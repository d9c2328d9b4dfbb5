//! Chaos harness for the §7 operators (DESIGN.md §8): the sort-merge
//! join, the group-by aggregation and the cyclo-join ring run under
//! seeded fault schedules and must obey the same contract as the radix
//! join — complete byte-correct, or abort with a structured
//! [`JoinError`]; never hang, and always replay a seed identically.

use proptest::prelude::*;
use rsj_cluster::ClusterSpec;
use rsj_operators::{
    try_run_aggregation, try_run_cyclo_join, try_run_sort_merge_join, AggregationConfig,
    CycloJoinConfig, JoinError, SortMergeConfig,
};
use rsj_rdma::FaultPlan;
use rsj_workload::{generate_inner, generate_outer, Skew, Tuple16};

// Same sizing rationale as the core chaos suite: virtual durations of a
// couple of milliseconds, so `FaultPlan::chaos` outages land mid-run.
const MACHINES: usize = 3;
const N_R: u64 = 20_000;
const N_S: u64 = 60_000;

const PHASES: [&str; 5] = [
    "startup",
    "histogram",
    "network_partition",
    "local_partition",
    "build_probe",
];

/// One deterministic fingerprint of an operator run under `plan`:
/// `Ok` collapses the verified result into a tuple of counters, `Err`
/// keeps the structured error. Two runs of the same seed must produce
/// equal fingerprints.
type Fingerprint = Result<(u64, u64, u64), JoinError>;

fn sort_merge_run(plan: Option<FaultPlan>) -> Fingerprint {
    let r = generate_inner::<Tuple16>(N_R, MACHINES, 8101);
    let (s, oracle) = generate_outer::<Tuple16>(N_S, N_R, MACHINES, Skew::None, 8102);
    let mut spec = ClusterSpec::fdr_cluster(MACHINES);
    spec.cores_per_machine = 3;
    let mut cfg = SortMergeConfig::new(spec);
    cfg.radix_bits = 4;
    cfg.rdma_buf_size = 1024;
    cfg.fault_plan = plan;
    try_run_sort_merge_join(cfg, r, s).map(|out| {
        oracle.verify(&out.result);
        (out.result.matches, out.result.s_key_sum, 0)
    })
}

fn aggregation_run(plan: Option<FaultPlan>) -> Fingerprint {
    let (s, _) = generate_outer::<Tuple16>(N_S, 2_000, MACHINES, Skew::Zipf(1.1), 8103);
    let mut spec = ClusterSpec::fdr_cluster(MACHINES);
    spec.cores_per_machine = 3;
    let mut cfg = AggregationConfig::new(spec);
    cfg.radix_bits = 4;
    cfg.rdma_buf_size = 1024;
    cfg.fault_plan = plan;
    try_run_aggregation(cfg, s).map(|out| {
        (
            out.result.groups,
            out.result.key_weighted_count,
            out.result.rid_sum,
        )
    })
}

fn cyclo_run(plan: Option<FaultPlan>) -> Fingerprint {
    let r = generate_inner::<Tuple16>(N_R / 4, MACHINES, 8104);
    let (s, oracle) = generate_outer::<Tuple16>(N_S, N_R / 4, MACHINES, Skew::None, 8105);
    let mut spec = ClusterSpec::fdr_cluster(MACHINES);
    spec.cores_per_machine = 2;
    let mut cfg = CycloJoinConfig::new(spec);
    cfg.fault_plan = plan;
    try_run_cyclo_join(cfg, r, s).map(|out| {
        oracle.verify(&out.result);
        (out.result.matches, out.result.s_key_sum, 0)
    })
}

/// One operator run under an optional fault plan.
type OperatorRun = fn(Option<FaultPlan>) -> Fingerprint;

const OPERATORS: [(&str, OperatorRun); 3] = [
    ("sort_merge", sort_merge_run),
    ("aggregation", aggregation_run),
    ("cyclo_join", cyclo_run),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every operator, under an arbitrary chaos schedule: completes with
    /// the oracle-verified result (the `Ok` arm of the fingerprint runs
    /// the oracle) or aborts with an error naming a real phase — and the
    /// seed replays identically either way.
    #[test]
    fn prop_operators_complete_correct_or_abort_clean(seed in 0u64..1_000_000) {
        for (name, run) in OPERATORS {
            let plan = FaultPlan::chaos(seed, MACHINES);
            let first = run(Some(plan.clone()));
            let again = run(Some(plan));
            prop_assert_eq!(&first, &again, "{}: seed {} did not replay", name, seed);
            if let Err(e) = &first {
                prop_assert!(
                    PHASES.contains(&e.phase()),
                    "{}: error names unknown phase {}", name, e.phase()
                );
            }
        }
    }
}

/// The armed-but-idle fault plane must not change any operator's result:
/// a fault-free plan produces the same fingerprint as no plan at all.
#[test]
fn fault_free_plan_matches_no_plan_on_every_operator() {
    for (name, run) in OPERATORS {
        let bare = run(None);
        let armed = run(Some(FaultPlan::fault_free()));
        assert!(bare.is_ok(), "{name}: no-plan run must complete");
        assert_eq!(bare, armed, "{name}: fault-free plan changed the outcome");
    }
}

/// A mid-run crash must surface as a structured abort on every operator
/// — in particular through the cyclo-join's ring transfer, whose receive
/// path decodes (rather than trusts) every immediate.
#[test]
fn mid_run_crash_aborts_every_operator() {
    for (name, run) in OPERATORS {
        let mut plan = FaultPlan::fault_free();
        plan.crashes.push(rsj_rdma::HostCrash {
            host: rsj_rdma::HostId(1),
            at: rsj_sim::SimTime::from_nanos(300_000),
        });
        match run(Some(plan)) {
            Ok(fp) => panic!("{name}: survived a dead machine: {fp:?}"),
            Err(e) => assert!(
                PHASES.contains(&e.phase()),
                "{name}: abort names unknown phase: {e}"
            ),
        }
    }
}
