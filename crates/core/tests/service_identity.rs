//! The query-service isolation contract, part 1: a single join admitted
//! through the [`QueryService`] is **byte-identical** to the same join on
//! the direct path — same verified result, same per-phase times, same
//! per-machine wire traffic, same materialized bytes. The service's
//! multiplexing layer (query-tagged lanes, arena pools, namespaced
//! barriers) must cost nothing when there is nothing to multiplex.

use rsj_cluster::{ClusterSpec, HealingConfig, JoinRequest, QueryService, ServiceConfig};
use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinJob, MaterializeMode};
use rsj_workload::{generate_inner, generate_outer, Relation, Skew, Tuple16};

fn join_cfg(machines: usize, cores: usize) -> DistJoinConfig {
    let mut spec = ClusterSpec::fdr_cluster(machines);
    spec.cores_per_machine = cores;
    let mut cfg = DistJoinConfig::new(spec);
    cfg.radix_bits = (4, 2);
    cfg.rdma_buf_size = 1024;
    cfg
}

fn inputs(machines: usize) -> (Relation<Tuple16>, Relation<Tuple16>) {
    let r = generate_inner::<Tuple16>(6_000, machines, 71);
    let (s, _) = generate_outer::<Tuple16>(18_000, 6_000, machines, Skew::None, 72);
    (r, s)
}

#[test]
fn single_query_through_service_is_byte_identical_to_direct() {
    let machines = 3;
    let cores = 3;
    let cfg = join_cfg(machines, cores);

    let (r, s) = inputs(machines);
    let direct = try_run_distributed_join(cfg.clone(), r, s).expect("direct run");

    let (r, s) = inputs(machines);
    let job = DistJoinJob::new(cfg.clone(), r, s);
    let service_cfg = ServiceConfig {
        hosts: machines,
        cores,
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
            label: "solo".into(),
            id: None,
            placement: None,
            job: job.clone(),
        }],
    );
    assert_eq!(report.aborted, 0);
    let served = job.take_outcome().expect("service run finished the job");

    // Verified result and materialization byte-identical.
    assert_eq!(served.result, direct.result);
    assert_eq!(served.materialized_bytes, direct.materialized_bytes);
    // Same virtual-time phase breakdown, phase by phase.
    assert_eq!(served.phases.histogram, direct.phases.histogram);
    assert_eq!(
        served.phases.network_partition,
        direct.phases.network_partition
    );
    assert_eq!(served.phases.local_partition, direct.phases.local_partition);
    assert_eq!(served.phases.build_probe, direct.phases.build_probe);
    // Same wire traffic on every machine.
    for (sm, dm) in served.machines.iter().zip(&direct.machines) {
        assert_eq!(sm.tx_bytes, dm.tx_bytes);
        assert_eq!(sm.rx_bytes, dm.rx_bytes);
        assert_eq!(sm.send_stall_seconds, dm.send_stall_seconds);
        assert_eq!(sm.cpu_busy_seconds, dm.cpu_busy_seconds);
    }
    // The lone query was admitted immediately and its end-to-end latency
    // is exactly the direct run's end-to-end time.
    let q = &report.queries[0];
    assert_eq!(q.queue_wait.as_nanos(), 0);
    assert_eq!(q.latency, direct.phases.total());
}

#[test]
fn materializing_runs_agree_through_the_service_too() {
    let machines = 2;
    let cores = 3;
    let mut cfg = join_cfg(machines, cores);
    cfg.materialize = MaterializeMode::ToCoordinator;

    let (r, s) = inputs(machines);
    let direct = try_run_distributed_join(cfg.clone(), r, s).expect("direct run");

    let (r, s) = inputs(machines);
    let job = DistJoinJob::new(cfg.clone(), r, s);
    let service_cfg = ServiceConfig {
        hosts: machines,
        cores,
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
            label: "materialize".into(),
            id: None,
            placement: None,
            job: job.clone(),
        }],
    );
    assert_eq!(report.aborted, 0);
    let served = job.take_outcome().expect("service run finished the job");
    assert_eq!(served.result, direct.result);
    assert_eq!(served.materialized_bytes, direct.materialized_bytes);
    assert_eq!(served.materialized_bytes, served.result.matches * 16);
}
