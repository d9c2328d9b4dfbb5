//! The [`Transport`] switch at the operators layer: flipping the radix
//! join between the two-sided and one-sided probe dataplanes must not
//! change the verified answer, must agree with the independent sort-merge
//! implementation, and must multiplex through the query service next to
//! other operators exactly like the two-sided plane does.

use rsj_cluster::{ClusterSpec, HealingConfig, JoinRequest, QueryService, ServiceConfig};
use rsj_operators::{
    try_run_distributed_join, try_run_sort_merge_join, DistJoinConfig, DistJoinJob,
    SortMergeConfig, Transport,
};
use rsj_workload::{generate_inner, generate_outer, Relation, Skew, Tuple16};

const MACHINES: usize = 2;
const CORES: usize = 3;

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::fdr_cluster(MACHINES);
    spec.cores_per_machine = CORES;
    spec
}

fn radix_cfg(transport: Transport) -> DistJoinConfig {
    let mut cfg = DistJoinConfig::new(spec());
    cfg.radix_bits = (4, 2);
    cfg.rdma_buf_size = 1024;
    cfg.probe_transport = transport;
    cfg
}

fn inputs(seed: u64) -> (Relation<Tuple16>, Relation<Tuple16>) {
    let r = generate_inner::<Tuple16>(5_000, MACHINES, seed);
    let (s, _) = generate_outer::<Tuple16>(15_000, 5_000, MACHINES, Skew::Zipf(1.1), seed + 1);
    (r, s)
}

/// Three independent implementations — sort-merge, two-sided radix, and
/// one-sided radix — agree tuple-for-tuple on the same workload.
#[test]
fn transport_switch_agrees_across_operators() {
    let (r, s) = inputs(71);
    let sm_cfg = {
        let mut cfg = SortMergeConfig::new(spec());
        cfg.radix_bits = 4;
        cfg.rdma_buf_size = 1024;
        cfg
    };
    let sm = try_run_sort_merge_join(sm_cfg, r, s).expect("sort-merge join aborted");

    let (r, s) = inputs(71);
    let two = try_run_distributed_join(radix_cfg(Transport::TwoSided), r, s)
        .expect("distributed join aborted");
    let (r, s) = inputs(71);
    let one = try_run_distributed_join(radix_cfg(Transport::OneSided), r, s)
        .expect("distributed join aborted");

    assert_eq!(sm.result, two.result, "sort-merge vs two-sided radix");
    assert_eq!(two.result, one.result, "two-sided vs one-sided radix");
}

/// Two radix queries on *different* dataplanes multiplex through one
/// shared-fabric service run, each byte-identical to its direct run — the
/// transport choice is per-query, not per-fabric.
#[test]
fn mixed_transports_share_one_service_fabric() {
    let direct = |transport: Transport, seed: u64| {
        let (r, s) = inputs(seed);
        try_run_distributed_join(radix_cfg(transport), r, s).expect("distributed join aborted")
    };
    let two_direct = direct(Transport::TwoSided, 73);
    let one_direct = direct(Transport::OneSided, 77);

    let job = |transport: Transport, seed: u64| {
        let (r, s) = inputs(seed);
        DistJoinJob::new(radix_cfg(transport), r, s)
    };
    let two_job = job(Transport::TwoSided, 73);
    let one_job = job(Transport::OneSided, 77);
    let base = radix_cfg(Transport::TwoSided);
    let service_cfg = ServiceConfig {
        hosts: MACHINES,
        cores: CORES,
        fabric: base.fabric_config(),
        nic: base.cluster.cost.nic,
        fault_plan: None,
        max_concurrent: 2,
        pool_budget_bytes: 1 << 30,
        healing: HealingConfig::default(),
    };
    let report = QueryService::run(
        &service_cfg,
        vec![
            JoinRequest {
                label: "two-sided".into(),
                id: None,
                placement: None,
                job: two_job.clone(),
            },
            JoinRequest {
                label: "one-sided".into(),
                id: None,
                placement: None,
                job: one_job.clone(),
            },
        ],
    );
    assert_eq!(report.aborted, 0);
    let two_served = two_job.take_outcome().expect("two-sided job finished");
    let one_served = one_job.take_outcome().expect("one-sided job finished");
    assert_eq!(two_served.result, two_direct.result);
    assert_eq!(one_served.result, one_direct.result);
}
