//! End-to-end tests of the distributed join across transport variants,
//! skew, and tuple widths, through the public API only.

use rsj_cluster::ClusterSpec;
use rsj_core::{try_run_distributed_join, AssignmentPolicy, DistJoinConfig, TransportMode};
use rsj_workload::{
    generate_inner, generate_outer, JoinResult, Relation, Skew, Tuple, Tuple16, Tuple32, Tuple64,
};

fn small_cfg(machines: usize, cores: usize) -> DistJoinConfig {
    let mut spec = ClusterSpec::fdr_cluster(machines.min(4));
    if machines > 4 {
        spec = ClusterSpec::qdr_cluster(machines);
    }
    spec.cores_per_machine = cores;
    let mut cfg = DistJoinConfig::new(spec);
    cfg.radix_bits = (4, 3);
    cfg.rdma_buf_size = 1024;
    cfg
}

fn workload(
    machines: usize,
    n_r: u64,
    n_s: u64,
    skew: Skew,
) -> (
    Relation<Tuple16>,
    Relation<Tuple16>,
    rsj_workload::ExpectedResult,
) {
    let r = generate_inner::<Tuple16>(n_r, machines, 42);
    let (s, oracle) = generate_outer::<Tuple16>(n_s, n_r, machines, skew, 43);
    (r, s, oracle)
}

#[test]
fn two_sided_interleaved_produces_verified_result() {
    let (r, s, oracle) = workload(3, 6_000, 18_000, Skew::None);
    let out = try_run_distributed_join(small_cfg(3, 3), r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    assert!(out.phases.total().as_nanos() > 0);
    // Data actually crossed the simulated wire.
    assert!(out.machines.iter().all(|m| m.tx_bytes > 0));
}

#[test]
fn non_interleaved_is_slower_in_network_pass() {
    let (r, s, _) = workload(3, 20_000, 20_000, Skew::None);
    let mut il = small_cfg(3, 3);
    il.transport = TransportMode::RdmaInterleaved;
    let mut nil = small_cfg(3, 3);
    nil.transport = TransportMode::RdmaNonInterleaved;
    let (r2, s2, _) = workload(3, 20_000, 20_000, Skew::None);
    let out_il = try_run_distributed_join(il, r, s).expect("distributed join aborted");
    let out_nil = try_run_distributed_join(nil, r2, s2).expect("distributed join aborted");
    assert_eq!(out_il.result, out_nil.result);
    assert!(
        out_nil.phases.network_partition > out_il.phases.network_partition,
        "non-interleaved {:?} must exceed interleaved {:?}",
        out_nil.phases.network_partition,
        out_il.phases.network_partition
    );
    // Other phases are unaffected by the transport variant.
    assert_eq!(out_il.phases.build_probe, out_nil.phases.build_probe);
}

#[test]
fn tcp_is_slowest_in_network_pass() {
    let (r, s, oracle) = workload(3, 20_000, 20_000, Skew::None);
    let mut tcp = small_cfg(3, 3);
    tcp.transport = TransportMode::Tcp;
    tcp.cluster.interconnect = rsj_cluster::Interconnect::IpoIb;
    let out_tcp = try_run_distributed_join(tcp, r, s).expect("distributed join aborted");
    oracle.verify(&out_tcp.result);
    let (r2, s2, _) = workload(3, 20_000, 20_000, Skew::None);
    let out_rdma =
        try_run_distributed_join(small_cfg(3, 3), r2, s2).expect("distributed join aborted");
    assert!(
        out_tcp.phases.network_partition > out_rdma.phases.network_partition,
        "tcp {:?} vs rdma {:?}",
        out_tcp.phases.network_partition,
        out_rdma.phases.network_partition
    );
}

#[test]
fn skewed_workload_with_dynamic_assignment() {
    let (r, s, oracle) = workload(4, 4_000, 40_000, Skew::Zipf(1.2));
    let mut cfg = small_cfg(4, 3);
    cfg.assignment = AssignmentPolicy::SortedDynamic;
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
}

#[test]
fn skew_increases_execution_time() {
    let mk = |skew| {
        let (r, s, _) = workload(4, 4_000, 60_000, skew);
        let mut cfg = small_cfg(4, 3);
        cfg.assignment = AssignmentPolicy::SortedDynamic;
        try_run_distributed_join(cfg, r, s).expect("distributed join aborted")
    };
    let uniform = mk(Skew::None);
    let heavy = mk(Skew::Zipf(1.2));
    assert!(
        heavy.phases.total() > uniform.phases.total(),
        "heavy skew {:?} must exceed uniform {:?} (Figure 8)",
        heavy.phases.total(),
        uniform.phases.total()
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (r, s, _) = workload(3, 5_000, 10_000, Skew::Zipf(1.05));
        try_run_distributed_join(small_cfg(3, 3), r, s).expect("distributed join aborted")
    };
    let a = run();
    let b = run();
    assert_eq!(a.result, b.result);
    assert_eq!(a.phases.total(), b.phases.total());
    assert_eq!(a.machines[1].tx_bytes, b.machines[1].tx_bytes);
}

#[test]
fn virtual_time_is_linear_in_data_size() {
    let run = |n: u64| {
        let (r, s, _) = workload(2, n, n, Skew::None);
        try_run_distributed_join(small_cfg(2, 3), r, s).expect("distributed join aborted")
    };
    let small = run(16_000);
    let large = run(32_000);
    let ratio = large.phases.total().as_secs_f64() / small.phases.total().as_secs_f64();
    assert!(
        (1.7..=2.3).contains(&ratio),
        "doubling data gave time ratio {ratio:.3}"
    );
}

#[test]
fn wide_tuples_same_bytes_same_time() {
    // §6.7: constant byte volume across 16/32/64-byte tuples gives
    // near-identical execution times.
    fn run_width<T: Tuple>(tuples: u64) -> (JoinResult, f64) {
        let machines = 2;
        let r = generate_inner::<T>(tuples, machines, 7);
        let (s, oracle) = generate_outer::<T>(tuples, tuples, machines, Skew::None, 8);
        let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(machines));
        cfg.cluster.cores_per_machine = 3;
        cfg.radix_bits = (4, 3);
        cfg.rdma_buf_size = 1024;
        let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
        oracle.verify(&out.result);
        (out.result, out.phases.total().as_secs_f64())
    }
    let (_, t16) = run_width::<Tuple16>(16_000);
    let (_, t32) = run_width::<Tuple32>(8_000);
    let (_, t64) = run_width::<Tuple64>(4_000);
    for (label, t) in [("32B", t32), ("64B", t64)] {
        assert!(
            (t - t16).abs() / t16 < 0.12,
            "{label} time {t:.6} deviates from 16B {t16:.6}"
        );
    }
}

#[test]
fn no_on_the_fly_registrations_with_pooling() {
    let (r, s, _) = workload(3, 10_000, 10_000, Skew::None);
    let out = try_run_distributed_join(small_cfg(3, 3), r, s).expect("distributed join aborted");
    assert!(out.machines.iter().all(|m| m.fly_registrations == 0));
}

#[test]
fn single_machine_cluster_degenerates_gracefully() {
    let (r, s, oracle) = workload(1, 4_000, 8_000, Skew::None);
    let out = try_run_distributed_join(small_cfg(1, 3), r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    // Nothing to send: all partitions are local.
    assert_eq!(out.machines[0].tx_bytes, 0);
}

#[test]
fn cpu_accounting_is_plausible() {
    let (r, s, _) = workload(2, 30_000, 30_000, Skew::None);
    let out = try_run_distributed_join(small_cfg(2, 3), r, s).expect("distributed join aborted");
    let total = out.phases.total().as_secs_f64();
    for m in &out.machines {
        let util = m.cpu_busy_seconds / (3.0 * total);
        // Cores are busy a meaningful fraction of the run but can
        // never exceed 100%.
        assert!(util > 0.2 && util <= 1.0, "utilization {util:.3}");
    }
}

#[test]
fn small_to_large_ratios_all_verify() {
    for ratio in [1u64, 2, 4, 8] {
        let n_s = 16_000u64;
        let n_r = n_s / ratio;
        let (r, s, oracle) = workload(2, n_r, n_s, Skew::None);
        let out =
            try_run_distributed_join(small_cfg(2, 3), r, s).expect("distributed join aborted");
        oracle.verify(&out.result);
    }
}
