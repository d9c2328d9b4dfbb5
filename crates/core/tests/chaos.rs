//! Chaos harness for the distributed radix hash join (DESIGN.md §8):
//! seeded fault schedules swept over the join must leave exactly three
//! outcomes possible — complete byte-correct despite transient faults,
//! or abort with a structured [`JoinError`] naming the failing machine
//! and phase, and in either case replaying the same seed reproduces the
//! identical outcome. A hang is the one outcome the fault plane must
//! never produce; the suite runs under ci.sh's global watchdog timeout
//! so a wedged schedule fails loudly instead of stalling CI.

use proptest::prelude::*;
use rsj_cluster::ClusterSpec;
use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinOutcome, JoinError};
use rsj_rdma::FaultPlan;
use rsj_workload::{generate_inner, generate_outer, ExpectedResult, Relation, Skew, Tuple16};

// Sized so the join's virtual duration (~2 ms) covers the window
// `FaultPlan::chaos` schedules its outages in (0.1–3.3 ms): most chaos
// events land mid-run rather than after the fabric tears down.
const MACHINES: usize = 3;
const N_R: u64 = 30_000;
const N_S: u64 = 90_000;

fn workload() -> (Relation<Tuple16>, Relation<Tuple16>, ExpectedResult) {
    let r = generate_inner::<Tuple16>(N_R, MACHINES, 7001);
    let (s, oracle) = generate_outer::<Tuple16>(N_S, N_R, MACHINES, Skew::Zipf(1.05), 7002);
    (r, s, oracle)
}

fn config(plan: Option<FaultPlan>) -> DistJoinConfig {
    let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(MACHINES));
    cfg.cluster.cores_per_machine = 2;
    cfg.radix_bits = (4, 3);
    cfg.rdma_buf_size = 1024;
    cfg.fault_plan = plan;
    cfg
}

fn chaos_run(plan: FaultPlan) -> Result<DistJoinOutcome, JoinError> {
    let (r, s, _) = workload();
    try_run_distributed_join(config(Some(plan)), r, s)
}

/// The phases an abort may legitimately be attributed to.
const PHASES: [&str; 5] = [
    "startup",
    "histogram",
    "network_partition",
    "local_partition",
    "build_probe",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The core chaos property: under an arbitrary seeded fault schedule
    /// the join either completes with exactly the oracle's result —
    /// transient drops are retried transparently, so a completed run is
    /// never silently wrong — or aborts with a structured error naming a
    /// real phase. And the same seed replays the identical outcome,
    /// virtual times included.
    #[test]
    fn prop_chaos_completes_correct_or_aborts_clean(seed in 0u64..1_000_000) {
        let plan = FaultPlan::chaos(seed, MACHINES);
        let first = chaos_run(plan.clone());
        let again = chaos_run(plan);
        match (&first, &again) {
            (Ok(a), Ok(b)) => {
                let (_, _, oracle) = workload();
                oracle.verify(&a.result);
                prop_assert_eq!(a.result, b.result);
                prop_assert_eq!(a.phases.histogram, b.phases.histogram);
                prop_assert_eq!(a.phases.network_partition, b.phases.network_partition);
                prop_assert_eq!(a.phases.local_partition, b.phases.local_partition);
                prop_assert_eq!(a.phases.build_probe, b.phases.build_probe);
                prop_assert_eq!(a.materialized_bytes, b.materialized_bytes);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b, "same seed must replay the same error");
                prop_assert!(
                    PHASES.contains(&a.phase()),
                    "error names unknown phase {}", a.phase()
                );
            }
            _ => prop_assert!(
                false,
                "seed {} did not replay: {:?} then {:?}",
                seed,
                first.as_ref().map(|o| o.result),
                again.as_ref().map(|o| o.result)
            ),
        }
    }
}

/// Installing a plan that injects nothing arms the whole fault plane —
/// error-path branches, watchdog, crash timers — yet the run must stay
/// byte-identical to the no-plan run: same result, same per-phase virtual
/// times, same materialized bytes.
#[test]
fn fault_free_plan_is_byte_identical_to_no_plan() {
    let (r, s, oracle) = workload();
    let bare = try_run_distributed_join(config(None), r, s).expect("distributed join aborted");
    oracle.verify(&bare.result);
    let (r, s, _) = workload();
    let armed = try_run_distributed_join(config(Some(FaultPlan::fault_free())), r, s)
        .expect("a fault-free plan must not abort the join");
    assert_eq!(bare.result, armed.result);
    assert_eq!(bare.phases.histogram, armed.phases.histogram);
    assert_eq!(
        bare.phases.network_partition,
        armed.phases.network_partition
    );
    assert_eq!(bare.phases.local_partition, armed.phases.local_partition);
    assert_eq!(bare.phases.build_probe, armed.phases.build_probe);
    assert_eq!(bare.materialized_bytes, armed.materialized_bytes);
}

/// Pure stochastic noise (drops + delays, no scheduled outages) is always
/// survivable: the retransmission machinery must ride it out and deliver
/// the exact oracle result.
#[test]
fn transient_noise_is_ridden_out_byte_correct() {
    let mut plan = FaultPlan::fault_free();
    plan.seed = 0xD15EA5E;
    plan.drop_per_mille = 15;
    plan.delay_per_mille = 80;
    plan.max_delay = rsj_sim::SimDuration::from_micros(40);
    let out = chaos_run(plan).expect("transient noise must not abort the join");
    let (_, _, oracle) = workload();
    oracle.verify(&out.result);
}

/// A host crash scheduled squarely mid-run must produce a structured
/// abort — the error names the crashed host or the poisoned phase — and
/// never a hang or a wrong answer.
#[test]
fn mid_run_crash_aborts_with_structured_error() {
    let mut plan = FaultPlan::fault_free();
    plan.crashes.push(rsj_rdma::HostCrash {
        host: rsj_rdma::HostId(1),
        at: rsj_sim::SimTime::from_nanos(400_000),
    });
    match chaos_run(plan) {
        Ok(out) => panic!("join survived a dead machine: {:?}", out.result),
        Err(e) => assert!(
            PHASES.contains(&e.phase()),
            "abort names unknown phase: {e}"
        ),
    }
}

/// A crash scheduled *after* the join's virtual end must not perturb the
/// run: the fabric tears down before the timer fires.
#[test]
fn crash_after_completion_is_harmless() {
    let mut plan = FaultPlan::fault_free();
    plan.crashes.push(rsj_rdma::HostCrash {
        host: rsj_rdma::HostId(0),
        at: rsj_sim::SimTime::from_nanos(3_600_000_000_000),
    });
    let out = chaos_run(plan).expect("a post-run crash must not abort the join");
    let (_, _, oracle) = workload();
    oracle.verify(&out.result);
}
