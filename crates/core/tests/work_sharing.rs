//! Tests of the two beyond-the-paper extensions: inter-machine
//! work-sharing during build-probe and the parallel local pass.

use rsj_cluster::ClusterSpec;
use rsj_core::{try_run_distributed_join, AssignmentPolicy, DistJoinConfig, DistJoinOutcome};
use rsj_workload::{generate_inner, generate_outer, Skew, Tuple16};

fn skewed_run(work_sharing: bool) -> DistJoinOutcome {
    let machines = 4;
    let r = generate_inner::<Tuple16>(3_000, machines, 77);
    let (s, oracle) = generate_outer::<Tuple16>(300_000, 3_000, machines, Skew::Zipf(1.5), 78);
    let mut spec = ClusterSpec::qdr_cluster(machines);
    spec.cores_per_machine = 3;
    let mut cfg = DistJoinConfig::new(spec);
    // Enough final fragments that the hottest key's fragment splits
    // into a deep chunk backlog (the regime where stealing pays).
    cfg.radix_bits = (4, 3);
    cfg.rdma_buf_size = 512;
    cfg.assignment = AssignmentPolicy::SortedDynamic;
    cfg.inter_machine_work_sharing = work_sharing;
    // Scale the per-message floors to the test's tiny volume, as the
    // experiment harness does.
    let mut fabric = cfg.fabric_config();
    fabric.msg_rate *= 128.0;
    fabric.latency /= 128.0;
    cfg.fabric_override = Some(fabric);
    cfg.work_sharing_min_bytes = 2 * 1024;
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    out
}

#[test]
fn work_sharing_preserves_the_result() {
    let without = skewed_run(false);
    let with = skewed_run(true);
    assert_eq!(without.result, with.result);
}

#[test]
fn work_sharing_shortens_build_probe_under_heavy_skew() {
    let without = skewed_run(false);
    let with = skewed_run(true);
    assert!(
        with.phases.build_probe < without.phases.build_probe,
        "work sharing {:?} must beat {:?}",
        with.phases.build_probe,
        without.phases.build_probe
    );
}

#[test]
fn work_sharing_registers_scratch_regions() {
    let with = skewed_run(true);
    assert!(
        with.machines.iter().any(|m| m.registered_bytes > 0),
        "scratch regions must be pinned"
    );
}

#[test]
fn parallel_local_pass_preserves_result_and_shortens_skewed_local_phase() {
    let run = |parallel: bool| {
        let machines = 4;
        let r = generate_inner::<Tuple16>(3_000, machines, 88);
        let (s, oracle) = generate_outer::<Tuple16>(200_000, 3_000, machines, Skew::Zipf(1.4), 89);
        let mut spec = ClusterSpec::qdr_cluster(machines);
        spec.cores_per_machine = 4;
        let mut cfg = DistJoinConfig::new(spec);
        cfg.radix_bits = (3, 3);
        cfg.rdma_buf_size = 512;
        cfg.assignment = AssignmentPolicy::SortedDynamic;
        cfg.parallel_local_pass = parallel;
        let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
        oracle.verify(&out.result);
        out
    };
    let base = run(false);
    let par = run(true);
    assert_eq!(base.result, par.result);
    // The giant partition's second pass is single-threaded in the
    // baseline and spread over 4 cores in the parallel pass.
    assert!(
        par.phases.local_partition.as_secs_f64() < 0.7 * base.phases.local_partition.as_secs_f64(),
        "parallel {:?} vs baseline {:?}",
        par.phases.local_partition,
        base.phases.local_partition
    );
}

#[test]
fn parallel_local_pass_matches_on_uniform() {
    let machines = 3;
    let r = generate_inner::<Tuple16>(9_000, machines, 90);
    let (s, oracle) = generate_outer::<Tuple16>(18_000, 9_000, machines, Skew::None, 91);
    let mut spec = ClusterSpec::fdr_cluster(machines);
    spec.cores_per_machine = 3;
    let mut cfg = DistJoinConfig::new(spec);
    cfg.radix_bits = (4, 3);
    cfg.rdma_buf_size = 1024;
    cfg.parallel_local_pass = true;
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
}

#[test]
fn work_sharing_is_harmless_on_uniform_data() {
    let machines = 3;
    let run = |ws: bool| {
        let r = generate_inner::<Tuple16>(12_000, machines, 80);
        let (s, oracle) = generate_outer::<Tuple16>(24_000, 12_000, machines, Skew::None, 81);
        let mut spec = ClusterSpec::fdr_cluster(machines);
        spec.cores_per_machine = 3;
        let mut cfg = DistJoinConfig::new(spec);
        cfg.radix_bits = (4, 2);
        cfg.rdma_buf_size = 512;
        cfg.inter_machine_work_sharing = ws;
        let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
        oracle.verify(&out.result);
        out
    };
    let base = run(false);
    let ws = run(true);
    assert_eq!(base.result, ws.result);
    // Balanced queues leave little to steal; time must not regress by
    // more than the stray read here or there.
    let ratio = ws.phases.total().as_secs_f64() / base.phases.total().as_secs_f64();
    assert!(ratio < 1.1, "uniform-data regression: {ratio:.3}");
}
