//! Multi-query service integration: mixed operators multiplexed over one
//! shared fabric, fault isolation under a host crash, the admission-order
//! determinism contract, and every operator's re-attach to its input.

use std::sync::Arc;

use rsj_cluster::{
    run_direct, ClusterSpec, HealingConfig, JoinRequest, QueryJob, QueryService, ServiceConfig,
    ServiceReport,
};
use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinJob};
use rsj_operators::{
    try_run_aggregation, try_run_cyclo_join, try_run_sort_merge_join, AggregateResult,
    AggregationConfig, AggregationJob, CycloJoinConfig, CycloJoinJob, SortMergeConfig,
    SortMergeJob,
};
use rsj_rdma::{FabricConfig, FaultPlan, HostCrash, HostId, NicCosts};
use rsj_sim::SimTime;
use rsj_workload::{generate_inner, generate_outer, JoinResult, Relation, Skew, Tuple, Tuple16};

const HOSTS: usize = 10;
const CORES: usize = 3;

fn spec(machines: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::qdr_cluster(machines);
    spec.cores_per_machine = CORES;
    spec
}

fn radix_cfg(machines: usize) -> DistJoinConfig {
    let mut cfg = DistJoinConfig::new(spec(machines));
    cfg.radix_bits = (4, 2);
    cfg.rdma_buf_size = 1024;
    cfg
}

fn sm_cfg(machines: usize) -> SortMergeConfig {
    let mut cfg = SortMergeConfig::new(spec(machines));
    cfg.radix_bits = 4;
    cfg.rdma_buf_size = 1024;
    cfg
}

fn agg_cfg(machines: usize) -> AggregationConfig {
    let mut cfg = AggregationConfig::new(spec(machines));
    cfg.radix_bits = 4;
    cfg.rdma_buf_size = 1024;
    cfg
}

fn join_inputs(machines: usize, seed: u64) -> (Relation<Tuple16>, Relation<Tuple16>) {
    let r = generate_inner::<Tuple16>(3_000, machines, seed);
    let (s, _) = generate_outer::<Tuple16>(9_000, 3_000, machines, Skew::None, seed + 1);
    (r, s)
}

fn agg_input(machines: usize, seed: u64) -> Relation<Tuple16> {
    let (s, _) = generate_outer::<Tuple16>(9_000, 700, machines, Skew::Zipf(1.1), seed);
    s
}

/// The mixed workload: all four operators, varied sizes, explicit ids and
/// placements so each query's identity is stable. Returns the requests
/// plus per-query handles to pull outcomes from after the run.
struct Workload {
    requests: Vec<JoinRequest>,
    radix: Vec<(u32, Arc<DistJoinJob<Tuple16>>)>,
    sort_merge: Vec<(u32, Arc<SortMergeJob<Tuple16>>)>,
    aggregation: Vec<(u32, Arc<AggregationJob<Tuple16>>)>,
    cyclo: Vec<(u32, Arc<CycloJoinJob<Tuple16>>)>,
    placements: Vec<(u32, Vec<HostId>)>,
}

fn mixed_workload() -> Workload {
    let mut requests = Vec::new();
    let mut radix = Vec::new();
    let mut sort_merge = Vec::new();
    let mut aggregation = Vec::new();
    let mut cyclo = Vec::new();
    let mut placements = Vec::new();
    // Eight queries over ten hosts: two radix joins, two sort-merge, two
    // aggregations, two cyclo-joins, on overlapping placements.
    let plans: [(u32, &str, Vec<usize>); 8] = [
        (1, "radix-a", vec![0, 1, 2]),
        (2, "sort-merge-a", vec![3, 4, 5]),
        (3, "agg-a", vec![6, 7]),
        (4, "cyclo-a", vec![8, 9]),
        (5, "radix-b", vec![2, 3, 7]),
        (6, "sort-merge-b", vec![5, 6]),
        (7, "agg-b", vec![0, 9]),
        (8, "cyclo-b", vec![1, 4, 8]),
    ];
    for (id, label, hosts) in plans {
        let m = hosts.len();
        let placement: Vec<HostId> = hosts.iter().map(|&h| HostId(h)).collect();
        let seed = 100 + id as u64 * 10;
        let job: Arc<dyn QueryJob> = if label.starts_with("radix") {
            let (r, s) = join_inputs(m, seed);
            let job = DistJoinJob::new(radix_cfg(m), r, s);
            radix.push((id, Arc::clone(&job)));
            job
        } else if label.starts_with("sort-merge") {
            let (r, s) = join_inputs(m, seed);
            let job = SortMergeJob::new(sm_cfg(m), r, s);
            sort_merge.push((id, Arc::clone(&job)));
            job
        } else if label.starts_with("agg") {
            let job = AggregationJob::new(agg_cfg(m), agg_input(m, seed));
            aggregation.push((id, Arc::clone(&job)));
            job
        } else {
            let (r, s) = join_inputs(m, seed);
            let job = CycloJoinJob::new(CycloJoinConfig::new(spec(m)), r, s);
            cyclo.push((id, Arc::clone(&job)));
            job
        };
        requests.push(JoinRequest {
            label: label.to_string(),
            id: Some(id),
            placement: Some(placement.clone()),
            job,
        });
        placements.push((id, placement));
    }
    Workload {
        requests,
        radix,
        sort_merge,
        aggregation,
        cyclo,
        placements,
    }
}

fn service_cfg(fault_plan: Option<FaultPlan>, max_concurrent: usize) -> ServiceConfig {
    ServiceConfig {
        hosts: HOSTS,
        cores: CORES,
        fabric: FabricConfig::qdr(),
        nic: NicCosts::default(),
        fault_plan,
        max_concurrent,
        pool_budget_bytes: 1 << 30,
        healing: HealingConfig::default(),
    }
}

/// Direct-path oracles for each query in the mixed workload, computed on
/// private fabrics with the same configs and inputs.
fn direct_join_result(machines: usize, seed: u64) -> JoinResult {
    let (r, s) = join_inputs(machines, seed);
    try_run_distributed_join(radix_cfg(machines), r, s)
        .expect("direct radix")
        .result
}

fn direct_sm_result(machines: usize, seed: u64) -> JoinResult {
    let (r, s) = join_inputs(machines, seed);
    try_run_sort_merge_join(sm_cfg(machines), r, s)
        .expect("direct sort-merge")
        .result
}

fn direct_agg_result(machines: usize, seed: u64) -> AggregateResult {
    try_run_aggregation(agg_cfg(machines), agg_input(machines, seed))
        .expect("direct aggregation")
        .result
}

fn direct_cyclo_result(machines: usize, seed: u64) -> JoinResult {
    let (r, s) = join_inputs(machines, seed);
    try_run_cyclo_join(CycloJoinConfig::new(spec(machines)), r, s)
        .expect("direct cyclo")
        .result
}

fn assert_results_match_direct(w: &Workload, report: &ServiceReport, skip: &[u32]) {
    for q in &report.queries {
        if skip.contains(&q.id.0) {
            continue;
        }
        assert!(q.result.is_ok(), "query {} failed: {:?}", q.id.0, q.result);
    }
    for (id, job) in &w.radix {
        if skip.contains(id) {
            continue;
        }
        let m = w.placements.iter().find(|(i, _)| i == id).unwrap().1.len();
        let out = job.take_outcome().expect("radix outcome");
        assert_eq!(out.result, direct_join_result(m, 100 + *id as u64 * 10));
    }
    for (id, job) in &w.sort_merge {
        if skip.contains(id) {
            continue;
        }
        let m = w.placements.iter().find(|(i, _)| i == id).unwrap().1.len();
        let out = job.take_outcome().expect("sort-merge outcome");
        assert_eq!(out.result, direct_sm_result(m, 100 + *id as u64 * 10));
    }
    for (id, job) in &w.aggregation {
        if skip.contains(id) {
            continue;
        }
        let m = w.placements.iter().find(|(i, _)| i == id).unwrap().1.len();
        let out = job.take_outcome().expect("aggregation outcome");
        assert_eq!(out.result, direct_agg_result(m, 100 + *id as u64 * 10));
    }
    for (id, job) in &w.cyclo {
        if skip.contains(id) {
            continue;
        }
        let m = w.placements.iter().find(|(i, _)| i == id).unwrap().1.len();
        let out = job.take_outcome().expect("cyclo outcome");
        assert_eq!(out.result, direct_cyclo_result(m, 100 + *id as u64 * 10));
    }
}

#[test]
fn mixed_operator_batch_multiplexes_and_matches_direct_results() {
    let mut w = mixed_workload();
    let requests = std::mem::take(&mut w.requests);
    let report = QueryService::run(&service_cfg(None, 4), requests);
    assert_eq!(report.queries.len(), 8);
    assert_eq!(report.aborted, 0);
    assert!(report.fabric_utilization > 0.0);
    assert_results_match_direct(&w, &report, &[]);
}

#[test]
fn host_crash_aborts_exactly_the_touching_queries() {
    let mut w = mixed_workload();
    let requests = std::mem::take(&mut w.requests);
    // Crash host 4 early: with all eight queries admitted concurrently,
    // exactly the queries whose placement includes host 4 must abort —
    // "sort-merge-a" (hosts 3,4,5) and "cyclo-b" (hosts 1,4,8).
    let mut plan = FaultPlan::fault_free();
    plan.crashes = vec![HostCrash {
        host: HostId(4),
        at: SimTime::from_nanos(50_000),
    }];
    let report = QueryService::run(&service_cfg(Some(plan), 8), requests);
    let touching: Vec<u32> = w
        .placements
        .iter()
        .filter(|(_, p)| p.contains(&HostId(4)))
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(touching, vec![2, 8]);
    for q in &report.queries {
        if touching.contains(&q.id.0) {
            let err = q
                .result
                .as_ref()
                .expect_err("query on the crashed host must abort");
            assert_eq!(err.query(), q.id, "error must carry the failing query");
        } else {
            assert!(
                q.result.is_ok(),
                "query {} does not touch host 4 but failed: {:?}",
                q.id.0,
                q.result
            );
        }
    }
    assert_eq!(report.aborted, touching.len());
    // Every untouched query's results are byte-correct vs its direct run.
    assert_results_match_direct(&w, &report, &touching);
}

/// Regression (DESIGN.md §13): a worker parked in `Nic::recv` on a lane
/// whose placement peer crashes *before any fabric activity* must wake
/// with the typed crash error immediately — not sit until the per-query
/// barrier watchdog (1 virtual second) declares a hang.
struct ParkedRecvJob;

impl QueryJob for ParkedRecvJob {
    fn machines(&self) -> usize {
        2
    }
    fn cores(&self) -> usize {
        1
    }
    fn attach(&self, _rt: &Arc<rsj_cluster::Runtime>) {}
    fn run_worker(
        &self,
        ctx: &rsj_sim::SimCtx,
        rt: &rsj_cluster::Runtime,
        mach: usize,
        _core: usize,
    ) -> Result<(), rsj_cluster::JoinError> {
        if mach == 1 {
            // The machine on the doomed host: zero fabric activity, just
            // parked at the phase barrier.
            rt.try_sync_named(ctx, rsj_cluster::phase::HISTOGRAM, mach)?;
            return Ok(());
        }
        // The survivor parks in recv, waiting for a message its crashed
        // peer will never send.
        let nic = rt.fabric.nic(HostId(mach));
        nic.recv(ctx)
            .map_err(|e| rsj_cluster::JoinError::fabric(mach, rsj_cluster::phase::HISTOGRAM, e))?;
        rt.try_sync_named(ctx, rsj_cluster::phase::HISTOGRAM, mach)?;
        Ok(())
    }
    fn finish(&self, _rt: &rsj_cluster::Runtime, _run: &rsj_cluster::ClusterRun) {}
}

#[test]
fn recv_parked_before_any_fabric_activity_wakes_with_the_crash_not_the_watchdog() {
    let mut plan = FaultPlan::fault_free();
    plan.crashes = vec![HostCrash {
        host: HostId(4),
        at: SimTime::from_nanos(1_000),
    }];
    let report = QueryService::run(
        &service_cfg(Some(plan), 1),
        vec![JoinRequest {
            label: "parked".into(),
            id: None,
            placement: Some(vec![HostId(3), HostId(4)]),
            job: Arc::new(ParkedRecvJob),
        }],
    );
    assert_eq!(report.aborted, 1);
    let q = &report.queries[0];
    let err = q.result.as_ref().expect_err("crash must abort the query");
    assert_eq!(
        err.crashed_host(),
        Some(HostId(4)),
        "parked recv must surface the typed crash, got: {err}"
    );
    // The wake is crash-driven, not watchdog-driven: the watchdog needs a
    // full virtual second of zero progress, the crash lands at 1 µs.
    assert!(
        q.completed < SimTime::from_nanos(100_000_000),
        "query retired at {:?} — that is watchdog territory",
        q.completed
    );
}

#[test]
fn admission_order_permutations_preserve_disjoint_query_traces() {
    // Disjoint placements + enough concurrency slots: each query's trace
    // (its own virtual-time phase breakdown and result) must not depend
    // on the order the batch was submitted in, because ids — and with
    // them the (seed, QueryId) fault streams — are explicit.
    let orders: [[usize; 4]; 3] = [[0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]];
    let mut baseline: Option<Vec<(u32, u64, u64)>> = None;
    for order in orders {
        let plans: [(u32, Vec<usize>); 4] = [
            (1, vec![0, 1, 2]),
            (2, vec![3, 4]),
            (3, vec![5, 6]),
            (4, vec![7, 8, 9]),
        ];
        let jobs: Vec<(u32, Arc<DistJoinJob<Tuple16>>, Vec<HostId>)> = plans
            .iter()
            .map(|(id, hosts)| {
                let m = hosts.len();
                let (r, s) = join_inputs(m, 300 + *id as u64 * 10);
                (
                    *id,
                    DistJoinJob::new(radix_cfg(m), r, s),
                    hosts.iter().map(|&h| HostId(h)).collect(),
                )
            })
            .collect();
        let requests: Vec<JoinRequest> = order
            .iter()
            .map(|&k| {
                let (id, job, placement) = &jobs[k];
                JoinRequest {
                    label: format!("perm-{id}"),
                    id: Some(*id),
                    placement: Some(placement.clone()),
                    job: Arc::clone(job) as Arc<dyn QueryJob>,
                }
            })
            .collect();
        let mut plan = FaultPlan::fault_free();
        plan.seed = 42;
        plan.drop_per_mille = 3;
        let report = QueryService::run(&service_cfg(Some(plan), 4), requests);
        assert_eq!(report.aborted, 0);
        let mut trace: Vec<(u32, u64, u64)> = jobs
            .iter()
            .map(|(id, job, _)| {
                let out = job.take_outcome().expect("outcome");
                (*id, out.phases.total().as_nanos(), out.result.matches)
            })
            .collect();
        trace.sort_by_key(|t| t.0);
        match &baseline {
            None => baseline = Some(trace),
            Some(b) => assert_eq!(
                &trace, b,
                "admission order {order:?} changed a disjoint query's trace"
            ),
        }
    }
}

/// Run `job` through the direct driver twice on the same handle and take
/// each run's outcome. The second `attach` must rebuild the attempt's
/// state from the job's untouched input, as a healing re-execution does.
fn run_twice<J: QueryJob + 'static, O>(job: &Arc<J>, take: impl Fn(&J) -> Option<O>) -> [O; 2] {
    let spec = spec(job.machines());
    [(), ()].map(|()| {
        run_direct(job, spec.fabric_config(None), spec.cost.nic, None).expect("direct run");
        take(job).expect("finish records the outcome")
    })
}

#[test]
fn every_operator_reattaches_to_its_untouched_input() {
    let m = 3;
    let inputs = || {
        let r = generate_inner::<Tuple16>(3_000, m, 900);
        let (s, oracle) = generate_outer::<Tuple16>(9_000, 3_000, m, Skew::Zipf(1.1), 901);
        (r, s, oracle)
    };

    let (r, s, oracle) = inputs();
    let [a, b] = run_twice(
        &DistJoinJob::new(radix_cfg(m), r, s),
        DistJoinJob::take_outcome,
    );
    oracle.verify(&a.result);
    assert_eq!((a.result, a.phases.rows()), (b.result, b.phases.rows()));

    let (r, s, oracle) = inputs();
    let [a, b] = run_twice(
        &SortMergeJob::new(sm_cfg(m), r, s),
        SortMergeJob::take_outcome,
    );
    oracle.verify(&a.result);
    assert_eq!((a.result, a.phases.rows()), (b.result, b.phases.rows()));

    let (r, s, oracle) = inputs();
    let job = CycloJoinJob::new(CycloJoinConfig::new(spec(m)), r, s);
    let [a, b] = run_twice(&job, CycloJoinJob::take_outcome);
    oracle.verify(&a.result);
    assert_eq!((a.result, a.phases.rows()), (b.result, b.phases.rows()));

    let (_, s, _) = inputs();
    let distinct: std::collections::HashSet<u64> = s.iter_all().map(|t| t.key()).collect();
    let expected = AggregateResult {
        groups: distinct.len() as u64,
        key_weighted_count: s.iter_all().fold(0u64, |a, t| a.wrapping_add(t.key())),
        rid_sum: s.iter_all().fold(0u64, |a, t| a.wrapping_add(t.rid())),
    };
    let [a, b] = run_twice(
        &AggregationJob::new(agg_cfg(m), s),
        AggregationJob::take_outcome,
    );
    assert_eq!(a.result, expected);
    assert_eq!((a.result, a.phases.rows()), (b.result, b.phases.rows()));
}
