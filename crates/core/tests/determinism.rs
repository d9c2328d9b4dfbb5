//! Determinism and phase-bookkeeping regression tests for the phase
//! runtime promotion: re-running the identical configuration must
//! reproduce every per-phase virtual time bit for bit, and the four
//! phase durations must account for the whole run.

use rsj_cluster::ClusterSpec;
use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinOutcome};
use rsj_workload::{generate_inner, generate_outer, Skew, Tuple16};

fn two_machine_join() -> DistJoinOutcome {
    let machines = 2;
    let r = generate_inner::<Tuple16>(8_000, machines, 1234);
    let (s, oracle) = generate_outer::<Tuple16>(24_000, 8_000, machines, Skew::Zipf(1.1), 1235);
    let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(machines));
    cfg.cluster.cores_per_machine = 3;
    cfg.radix_bits = (4, 3);
    cfg.rdma_buf_size = 1024;
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    out
}

#[test]
fn identical_seeds_give_identical_per_phase_times_and_matches() {
    let a = two_machine_join();
    let b = two_machine_join();
    assert_eq!(a.result.matches, b.result.matches);
    assert_eq!(a.result, b.result);
    // Exact virtual-time equality, phase by phase — not just the total.
    assert_eq!(a.phases.histogram, b.phases.histogram);
    assert_eq!(a.phases.network_partition, b.phases.network_partition);
    assert_eq!(a.phases.local_partition, b.phases.local_partition);
    assert_eq!(a.phases.build_probe, b.phases.build_probe);
    assert_eq!(a.materialized_bytes, b.materialized_bytes);
}

#[test]
fn phase_durations_are_positive_and_sum_to_total() {
    let out = two_machine_join();
    let sum = out.phases.histogram
        + out.phases.network_partition
        + out.phases.local_partition
        + out.phases.build_probe;
    // The named phases are recorded back to back, so their folded
    // durations cover the run exactly (also debug-asserted against the
    // runtime's raw marks inside the driver).
    assert_eq!(sum, out.phases.total());
    for (name, d) in out.phases.rows() {
        assert!(d.as_nanos() > 0, "phase {name} has zero duration");
    }
}
