//! Result-materialization tests (§4.3 / §7): count-only, local buffers,
//! and shipping to the coordinator.

use rsj_cluster::ClusterSpec;
use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinOutcome, MaterializeMode};
use rsj_workload::{generate_inner, generate_outer, Skew, Tuple16};

fn run(mode: MaterializeMode, machines: usize) -> DistJoinOutcome {
    let r = generate_inner::<Tuple16>(4_000, machines, 95);
    let (s, oracle) = generate_outer::<Tuple16>(16_000, 4_000, machines, Skew::None, 96);
    let mut spec = ClusterSpec::fdr_cluster(machines.min(4));
    spec.cores_per_machine = 3;
    let mut cfg = DistJoinConfig::new(spec);
    cfg.radix_bits = (4, 2);
    cfg.rdma_buf_size = 512;
    cfg.materialize = mode;
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    out
}

#[test]
fn count_only_materializes_nothing() {
    let out = run(MaterializeMode::CountOnly, 3);
    assert_eq!(out.materialized_bytes, 0);
}

#[test]
fn local_materialization_covers_every_match() {
    let out = run(MaterializeMode::Local, 3);
    assert_eq!(out.materialized_bytes, out.result.matches * 16);
}

#[test]
fn coordinator_materialization_covers_every_match() {
    let out = run(MaterializeMode::ToCoordinator, 3);
    assert_eq!(out.materialized_bytes, out.result.matches * 16);
    // Remote machines shipped their shares over the wire.
    assert!(out.machines[1].tx_bytes > 0);
}

#[test]
fn coordinator_mode_on_single_machine_degenerates_to_local() {
    let out = run(MaterializeMode::ToCoordinator, 1);
    assert_eq!(out.materialized_bytes, out.result.matches * 16);
}

#[test]
fn materialization_costs_show_up_in_build_probe() {
    let base = run(MaterializeMode::CountOnly, 3);
    let coord = run(MaterializeMode::ToCoordinator, 3);
    assert_eq!(base.result, coord.result);
    assert!(
        coord.phases.build_probe > base.phases.build_probe,
        "shipping the result must cost something: {:?} vs {:?}",
        coord.phases.build_probe,
        base.phases.build_probe
    );
}

#[test]
fn materialization_with_skew_and_work_sharing() {
    let machines = 4;
    let r = generate_inner::<Tuple16>(2_000, machines, 97);
    let (s, oracle) = generate_outer::<Tuple16>(60_000, 2_000, machines, Skew::Zipf(1.3), 98);
    let mut spec = ClusterSpec::qdr_cluster(machines);
    spec.cores_per_machine = 3;
    let mut cfg = DistJoinConfig::new(spec);
    cfg.radix_bits = (4, 2);
    cfg.rdma_buf_size = 512;
    cfg.materialize = MaterializeMode::ToCoordinator;
    cfg.parallel_local_pass = true;
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    assert_eq!(out.materialized_bytes, out.result.matches * 16);
}
