//! The one-sided dataplane contract (DESIGN.md §11): a radix join run
//! with [`Transport::OneSided`] — R published as seqlock-versioned
//! bucket tables, S probed in place through doorbell-batched RDMA READs
//! — must produce the *byte-identical* verified result of the two-sided
//! paper dataplane, replay deterministically, run unchanged under the
//! query service, and survive seeded fault schedules with either the
//! exact fault-free result or a structured abort.

use std::sync::Arc;

use proptest::prelude::*;
use rsj_cluster::{
    ClusterSpec, HealingConfig, JoinRequest, QueryJob, QueryService, Runtime, ServiceConfig,
};
use rsj_core::{
    try_run_distributed_join, DistJoinConfig, DistJoinJob, DistJoinOutcome, JoinError,
    MaterializeMode, Transport,
};
use rsj_rdma::{FaultPlan, HostId};
use rsj_workload::{generate_inner, generate_outer, ExpectedResult, Relation, Skew, Tuple16};

const MACHINES: usize = 3;
const N_R: u64 = 30_000;
const N_S: u64 = 90_000;

fn workload(skew: Skew) -> (Relation<Tuple16>, Relation<Tuple16>, ExpectedResult) {
    let r = generate_inner::<Tuple16>(N_R, MACHINES, 9101);
    let (s, oracle) = generate_outer::<Tuple16>(N_S, N_R, MACHINES, skew, 9102);
    (r, s, oracle)
}

fn config(transport: Transport) -> DistJoinConfig {
    let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(MACHINES));
    cfg.cluster.cores_per_machine = 2;
    cfg.radix_bits = (4, 3);
    cfg.rdma_buf_size = 1024;
    cfg.probe_transport = transport;
    cfg
}

/// Tentpole acceptance: one-sided and two-sided agree exactly with the
/// oracle — and with each other — on the paper's uniform and skewed
/// workloads.
#[test]
fn one_sided_matches_two_sided_on_paper_workloads() {
    for skew in [Skew::None, Skew::Zipf(1.05), Skew::Zipf(1.25)] {
        let (r, s, oracle) = workload(skew);
        let two = try_run_distributed_join(config(Transport::TwoSided), r, s)
            .expect("distributed join aborted");
        oracle.verify(&two.result);

        let (r, s, oracle) = workload(skew);
        let one = try_run_distributed_join(config(Transport::OneSided), r, s)
            .expect("distributed join aborted");
        oracle.verify(&one.result);

        assert_eq!(two.result, one.result, "dataplanes disagree under {skew:?}");
    }
}

/// Local materialization accounts every `<r.rid, s.rid>` pair on the
/// one-sided path too.
#[test]
fn one_sided_local_materialization_accounts_every_pair() {
    let mut cfg = config(Transport::OneSided);
    cfg.materialize = MaterializeMode::Local;
    let (r, s, oracle) = workload(Skew::None);
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    assert_eq!(out.materialized_bytes, out.result.matches * 16);
}

/// Replay determinism: two runs of the identical configuration are
/// byte-identical in result *and* virtual time, phase by phase.
#[test]
fn one_sided_replays_byte_identical() {
    let (r, s, _) = workload(Skew::Zipf(1.05));
    let a = try_run_distributed_join(config(Transport::OneSided), r, s)
        .expect("distributed join aborted");
    let (r, s, _) = workload(Skew::Zipf(1.05));
    let b = try_run_distributed_join(config(Transport::OneSided), r, s)
        .expect("distributed join aborted");
    assert_eq!(a.result, b.result);
    assert_eq!(a.phases.histogram, b.phases.histogram);
    assert_eq!(a.phases.network_partition, b.phases.network_partition);
    assert_eq!(a.phases.local_partition, b.phases.local_partition);
    assert_eq!(a.phases.build_probe, b.phases.build_probe);
    for (ma, mb) in a.machines.iter().zip(&b.machines) {
        assert_eq!(ma.tx_bytes, mb.tx_bytes);
        assert_eq!(ma.rx_bytes, mb.rx_bytes);
        assert_eq!(ma.cpu_busy_seconds, mb.cpu_busy_seconds);
    }
}

/// The wire-traffic crossover the transport shootout measures, pinned
/// at the test level: with *duplicate-heavy* probes (heavy Zipf — most
/// S tuples hit a handful of buckets, which the per-core fetch dedup
/// collapses), one-sided moves fewer total bytes than shipping S; with
/// *uniform* probes (every bucket of every remote table gets fetched,
/// plus seqlock framing), shipping S wins. See EXPERIMENTS.md's
/// transport-shootout family and the DESIGN.md §11 selection guide.
#[test]
fn wire_traffic_crossover_tracks_probe_duplication() {
    let total = |out: &DistJoinOutcome| -> u64 { out.machines.iter().map(|m| m.tx_bytes).sum() };

    let (r, s, _) = workload(Skew::Zipf(2.0));
    let two = try_run_distributed_join(config(Transport::TwoSided), r, s)
        .expect("distributed join aborted");
    let (r, s, _) = workload(Skew::Zipf(2.0));
    let one = try_run_distributed_join(config(Transport::OneSided), r, s)
        .expect("distributed join aborted");
    assert!(
        total(&one) < total(&two),
        "duplicate-heavy probes: one-sided ({} B) should undercut shipping S ({} B)",
        total(&one),
        total(&two)
    );

    let (r, s, _) = workload(Skew::None);
    let two = try_run_distributed_join(config(Transport::TwoSided), r, s)
        .expect("distributed join aborted");
    let (r, s, _) = workload(Skew::None);
    let one = try_run_distributed_join(config(Transport::OneSided), r, s)
        .expect("distributed join aborted");
    assert!(
        total(&one) > total(&two),
        "uniform dense probes: fetching every bucket ({} B) should exceed shipping S ({} B)",
        total(&one),
        total(&two)
    );
}

/// A single one-sided join through the query service is byte-identical
/// to the direct path — the PR 6 isolation contract extends to the new
/// dataplane.
#[test]
fn one_sided_through_service_is_byte_identical_to_direct() {
    let cfg = config(Transport::OneSided);
    let (r, s, _) = workload(Skew::None);
    let direct = try_run_distributed_join(cfg.clone(), r, s).expect("direct run");

    let (r, s, _) = workload(Skew::None);
    let job = DistJoinJob::new(cfg.clone(), r, s);
    let service_cfg = ServiceConfig {
        hosts: MACHINES,
        cores: cfg.cluster.cores_per_machine,
        fabric: cfg.fabric_config(),
        nic: cfg.cluster.cost.nic,
        fault_plan: None,
        max_concurrent: 1,
        pool_budget_bytes: 1 << 30,
        healing: HealingConfig::default(),
    };
    let report = QueryService::run(
        &service_cfg,
        vec![JoinRequest {
            label: "one-sided".into(),
            id: None,
            placement: None,
            job: job.clone(),
        }],
    );
    assert_eq!(report.aborted, 0);
    let served = job.take_outcome().expect("service run finished the job");
    assert_eq!(served.result, direct.result);
    assert_eq!(served.phases.histogram, direct.phases.histogram);
    assert_eq!(
        served.phases.network_partition,
        direct.phases.network_partition
    );
    assert_eq!(served.phases.local_partition, direct.phases.local_partition);
    assert_eq!(served.phases.build_probe, direct.phases.build_probe);
    for (sm, dm) in served.machines.iter().zip(&direct.machines) {
        assert_eq!(sm.tx_bytes, dm.tx_bytes);
        assert_eq!(sm.rx_bytes, dm.rx_bytes);
        assert_eq!(sm.cpu_busy_seconds, dm.cpu_busy_seconds);
    }
}

/// Each query of a service reports the bytes *it* registered, not its
/// host's running total: lanes share their host's region table, and a
/// retired query deregisters its tables. Three identical one-sided
/// queries through one service each report what the direct run does.
#[test]
fn each_service_query_reports_its_own_registered_bytes() {
    let cfg = config(Transport::OneSided);
    let (r, s, _) = workload(Skew::None);
    let direct = try_run_distributed_join(cfg.clone(), r, s).expect("direct run");
    assert!(direct.machines.iter().all(|m| m.registered_bytes > 0));

    let jobs: Vec<_> = (0..3)
        .map(|_| {
            let (r, s, _) = workload(Skew::None);
            DistJoinJob::new(cfg.clone(), r, s)
        })
        .collect();
    let service_cfg = ServiceConfig {
        hosts: MACHINES,
        cores: cfg.cluster.cores_per_machine,
        fabric: cfg.fabric_config(),
        nic: cfg.cluster.cost.nic,
        fault_plan: None,
        max_concurrent: 1,
        pool_budget_bytes: 1 << 30,
        healing: HealingConfig::default(),
    };
    let requests = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| JoinRequest {
            label: format!("one-sided-{i}"),
            id: None,
            placement: None,
            job: job.clone(),
        })
        .collect();
    let report = QueryService::run(&service_cfg, requests);
    assert_eq!(report.aborted, 0);
    for (i, job) in jobs.iter().enumerate() {
        let served = job.take_outcome().expect("service run finished the job");
        let got: Vec<u64> = served.machines.iter().map(|m| m.registered_bytes).collect();
        let want: Vec<u64> = direct.machines.iter().map(|m| m.registered_bytes).collect();
        assert_eq!(got, want, "query {i} registered bytes");
    }
}

fn one_sided_run(plan: FaultPlan) -> Result<DistJoinOutcome, JoinError> {
    let mut cfg = config(Transport::OneSided);
    cfg.fault_plan = Some(plan);
    let (r, s, _) = workload(Skew::Zipf(1.05));
    try_run_distributed_join(cfg, r, s)
}

/// The phases a one-sided abort may legitimately be attributed to.
const PHASES: [&str; 5] = [
    "startup",
    "histogram",
    "network_partition",
    "one_sided_publish",
    "one_sided_probe",
];

/// Seeded drops on the READ path retry through the QP error-state
/// machine invisibly: a completed chaos run carries the *exact*
/// fault-free result.
#[test]
fn one_sided_rides_out_transient_noise_byte_correct() {
    let fault_free = one_sided_run(FaultPlan::fault_free()).expect("fault-free run");
    let (_, _, oracle) = workload(Skew::Zipf(1.05));
    oracle.verify(&fault_free.result);

    let mut plan = FaultPlan::fault_free();
    plan.seed = 0x0DD5EED;
    plan.drop_per_mille = 15;
    plan.delay_per_mille = 80;
    plan.max_delay = rsj_sim::SimDuration::from_micros(40);
    let noisy = one_sided_run(plan).expect("transient noise must not abort the join");
    assert_eq!(
        noisy.result, fault_free.result,
        "dropped READs changed the join result"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos property for the one-sided dataplane: under an arbitrary
    /// seeded fault schedule the join either completes with the exact
    /// fault-free (oracle-verified) result, or aborts with a structured
    /// error naming a real one-sided phase — and the same seed replays
    /// the identical outcome.
    #[test]
    fn prop_one_sided_chaos_completes_correct_or_aborts_clean(seed in 0u64..1_000_000) {
        let plan = FaultPlan::chaos(seed, MACHINES);
        let first = one_sided_run(plan.clone());
        let again = one_sided_run(plan);
        match (&first, &again) {
            (Ok(a), Ok(b)) => {
                let (_, _, oracle) = workload(Skew::Zipf(1.05));
                oracle.verify(&a.result);
                prop_assert_eq!(a.result, b.result);
                prop_assert_eq!(a.phases.build_probe, b.phases.build_probe);
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

/// Inputs of the virtual-time pin: a 4-machine QDR rack, large enough that
/// a remote group spans several coalesced READs and doorbell chains.
const PIN_MACHINES: usize = 4;
const PIN_N_R: u64 = 40_000;
const PIN_N_S: u64 = 120_000;

/// The pinned values: `(phases, per-host NicStats)` of the uniform and
/// the Zipf 1.25 probe.
const PIN_UNIFORM_PHASES: [u64; 4] = [58_059, 292_626, 34_536, 86_287_990];
const PIN_UNIFORM_NICS: [[u64; 6]; 4] = [
    [27_637, 1_237_532, 27_637, 1_237_808, 66_647_853, 66_647_853],
    [27_629, 1_236_564, 27_629, 1_237_976, 66_628_581, 66_628_581],
    [27_905, 1_249_988, 27_905, 1_241_212, 67_293_465, 67_293_465],
    [27_681, 1_232_372, 27_681, 1_239_460, 66_753_849, 66_753_849],
];
const PIN_ZIPF_PHASES: [u64; 4] = [58_059, 292_626, 34_536, 20_332_377];
const PIN_ZIPF_NICS: [[u64; 6]; 4] = [
    [7_026, 646_552, 7_026, 644_220, 16_995_954, 16_995_954],
    [7_011, 641_432, 7_011, 645_660, 16_959_819, 16_959_819],
    [7_033, 647_852, 7_033, 643_360, 17_012_817, 17_012_817],
    [7_076, 643_888, 7_076, 646_484, 17_116_404, 17_116_404],
];

/// Per-phase virtual nanoseconds (histogram, network partition, publish,
/// probe) and per-host `[tx_msgs, tx_bytes, rx_msgs, rx_bytes, tx_busy_ns,
/// rx_busy_ns]` of one direct one-sided join.
fn pinned_run(skew: Skew) -> ([u64; 4], Vec<[u64; 6]>) {
    let r = generate_inner::<Tuple16>(PIN_N_R, PIN_MACHINES, 9201);
    let (s, oracle) = generate_outer::<Tuple16>(PIN_N_S, PIN_N_R, PIN_MACHINES, skew, 9202);
    let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(PIN_MACHINES));
    cfg.cluster.cores_per_machine = 3;
    cfg.radix_bits = (5, 3);
    cfg.probe_transport = Transport::OneSided;
    let cores = cfg.cluster.cores_per_machine;
    let rt = Runtime::new(
        PIN_MACHINES,
        cores,
        cfg.fabric_config(),
        cfg.cluster.cost.nic,
    );
    let job = DistJoinJob::new(cfg, r, s);
    job.attach(&rt);
    let worker = Arc::clone(&job);
    let run = rt
        .try_run(move |ctx, rt, mach, core| worker.run_worker(ctx, rt, mach, core))
        .expect("fault-free one-sided join");
    job.finish(&rt, &run);
    let out = job.take_outcome().expect("finished job has an outcome");
    oracle.verify(&out.result);
    let phases = out.phases.rows().map(|(_, d)| d.as_nanos());
    let nics = (0..PIN_MACHINES)
        .map(|h| {
            let s = rt.fabric.nic(HostId(h)).stats();
            [
                s.tx_msgs,
                s.tx_bytes,
                s.rx_msgs,
                s.rx_bytes,
                s.tx_busy_ns,
                s.rx_busy_ns,
            ]
        })
        .collect();
    (phases, nics)
}

/// The one-sided plane's virtual time and wire traffic, pinned. No gated
/// sweep output runs this dataplane, so a change to the READ path that
/// moves one virtual nanosecond or one wire byte — a landing buffer
/// recycled with stale bytes, say, which a READ request would carry onto
/// the wire — fails here.
#[test]
fn one_sided_virtual_time_and_wire_traffic_are_pinned() {
    let uniform = pinned_run(Skew::None);
    assert_eq!(uniform, (PIN_UNIFORM_PHASES, PIN_UNIFORM_NICS.to_vec()));
    let zipf = pinned_run(Skew::Zipf(1.25));
    assert_eq!(zipf, (PIN_ZIPF_PHASES, PIN_ZIPF_NICS.to_vec()));
}
