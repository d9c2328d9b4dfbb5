//! The multi-query service (DESIGN.md §9, §13): what a batch asks for
//! ([`JoinRequest`]), what the rack offers ([`ServiceConfig`] and its
//! [`HealingConfig`] policy), how admission says no ([`RejectReason`]),
//! and [`QueryService::run`] — set-up, one simulation, one fold. Who runs
//! when and where is `admission.rs`; what a run reports is `report.rs`.
//!
//! A run owns one root fabric and a bounded per-host slab of
//! pre-registered memory; every admitted query gets a query-scoped
//! runtime (a lane over the shared wire plus a private barrier
//! namespace). Concurrent joins so contend for bandwidth and registered
//! memory like co-scheduled tenants, while completions, aborts and
//! teardown audits stay per query.
//!
//! Determinism contract: the whole service runs in one discrete-event
//! simulation, per-query fault streams derive from `(seed, QueryId)`, and
//! admission is FIFO — so the same seed and the same admission order
//! reproduce the identical event schedule, and permuting *disjoint*
//! queries' admission order leaves each query's own trace unchanged.

use std::cell::RefCell;
use std::sync::Arc;

use rsj_rdma::{Fabric, FabricConfig, FaultPlan, HostId, NicCosts};
use rsj_sim::Simulation;

use crate::admission::Admission;
use crate::query::QueryJob;
use crate::report::{HostReport, ServiceReport};

/// Retry attempts of one query get ids `base + attempt * RETRY_STRIDE`:
/// an independent `(seed, QueryId)` fault stream each, report keys on the
/// base id. With healing armed, explicit ids at or above it are rejected.
pub(crate) const RETRY_STRIDE: u32 = 1 << 24;

/// A queued query: which job to run, and optionally where.
pub struct JoinRequest {
    /// Human-readable label carried into the report.
    pub label: String,
    /// Explicit query id: unique, nonzero, and below the retry-id stride
    /// (2²⁴) when healing is armed — anything else is rejected at
    /// admission ([`RejectReason::InvalidRequest`]). `None` assigns
    /// FIFO-position ids starting at 1. Disjoint-query determinism tests
    /// pin explicit ids so a query's `(seed, QueryId)` fault stream
    /// survives admission-order permutations.
    pub id: Option<u32>,
    /// Explicit placement: which physical host backs each logical
    /// machine — `job.machines()` distinct hosts of the rack, or the
    /// request is rejected at admission. `None` rotates the query across
    /// the rack by queue position.
    pub placement: Option<Vec<HostId>>,
    /// The work itself.
    pub job: Arc<dyn QueryJob>,
}

/// Static configuration of a [`QueryService`] run.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Physical hosts in the rack.
    pub hosts: usize,
    /// Worker cores per host: the most a job may ask for per machine.
    pub cores: usize,
    /// Wire parameters of the shared fabric.
    pub fabric: FabricConfig,
    /// NIC cost model.
    pub nic: NicCosts,
    /// Optional deterministic fault plan (host crashes, drops, …); each
    /// query sees its own `(seed, QueryId)`-derived stream.
    pub fault_plan: Option<FaultPlan>,
    /// Queries running concurrently; the rest wait in the FIFO queue.
    pub max_concurrent: usize,
    /// Pre-registered memory slab per host, carved into per-query pools.
    /// Queries exceeding the remaining budget fall back to on-the-fly
    /// registrations (visible as `fly_registrations` contention).
    pub pool_budget_bytes: u64,
    /// Self-healing policy: failure detection, fencing and bounded
    /// re-execution (DESIGN.md §13). Disabled by default.
    pub healing: HealingConfig,
}

impl ServiceConfig {
    /// A QDR rack of `hosts` machines with sensible service defaults.
    pub fn qdr_rack(hosts: usize, cores: usize) -> ServiceConfig {
        ServiceConfig {
            hosts,
            cores,
            fabric: FabricConfig::qdr(),
            nic: NicCosts::default(),
            fault_plan: None,
            max_concurrent: 4,
            pool_budget_bytes: 256 << 20,
            healing: HealingConfig::default(),
        }
    }
}

/// Self-healing policy for a [`QueryService`] run (DESIGN.md §13): a
/// switch and a retry budget. The detector's lease and heartbeat and the
/// re-admission backoff are constants of the fabric and of admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealingConfig {
    /// Arm the failure detector and the retry machinery. When `false`
    /// (the default) no host is ever fenced, a crash-aborted query stays
    /// aborted, and `max_attempts` is ignored.
    pub enabled: bool,
    /// Total admissions one query may consume: the first run plus up to
    /// `max_attempts - 1` re-executions. Exhausting the budget yields a
    /// typed [`RejectReason::RetryBudgetExhausted`].
    pub max_attempts: u32,
}

impl Default for HealingConfig {
    fn default() -> Self {
        HealingConfig {
            enabled: false,
            max_attempts: 3,
        }
    }
}

impl HealingConfig {
    /// The default policy with healing switched on.
    pub fn armed() -> HealingConfig {
        HealingConfig {
            enabled: true,
            ..HealingConfig::default()
        }
    }
}

/// Why admission rejected a query instead of running (or re-running) it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The request is malformed and could never run: a reserved,
    /// duplicate or out-of-range query id, a job of no size or of more
    /// cores per machine than a host has, or a placement that is not
    /// `machines` distinct hosts of this rack.
    InvalidRequest {
        /// What is wrong with it.
        why: &'static str,
    },
    /// The query wants more machines than the rack has live hosts.
    NoCapacity {
        /// Machines the query asked for.
        machines: usize,
        /// Live (non-fenced) hosts remaining.
        live: usize,
    },
    /// The request pinned an explicit placement that names a fenced host.
    PlacementUnavailable {
        /// The fenced host the placement names.
        host: HostId,
    },
    /// The query kept landing on crashing hosts until its retry budget
    /// ran out.
    RetryBudgetExhausted {
        /// Admissions consumed (== `HealingConfig::max_attempts`).
        attempts: u32,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::InvalidRequest { why } => write!(f, "invalid request: {why}"),
            RejectReason::NoCapacity { machines, live } => {
                write!(f, "wants {machines} machines, only {live} hosts live")
            }
            RejectReason::PlacementUnavailable { host } => {
                write!(f, "explicit placement names fenced host {}", host.0)
            }
            RejectReason::RetryBudgetExhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
        }
    }
}

/// The query service: runs a batch of queued [`JoinRequest`]s over one
/// shared fabric, re-executing crash-aborted queries on surviving hosts
/// when healing is enabled, and reports on it.
pub struct QueryService;

impl QueryService {
    /// Run `requests` to completion under `cfg` and report.
    pub fn run(cfg: &ServiceConfig, requests: Vec<JoinRequest>) -> ServiceReport {
        assert!(cfg.hosts >= 1 && cfg.cores >= 1 && cfg.max_concurrent >= 1);
        if cfg.healing.enabled {
            assert!(
                cfg.healing.max_attempts >= 1 && cfg.healing.max_attempts <= 255,
                "retry budget must fit the id stride"
            );
        }
        let fabric = Fabric::new_with_plan(cfg.fabric, cfg.nic, cfg.hosts, cfg.fault_plan.clone());
        let admission = Admission::new(cfg, &fabric, requests);

        let sim = Simulation::new();
        fabric.launch(&sim);
        if cfg.healing.enabled {
            fabric.arm_failure_detector(&sim);
        }
        // The one cell that carries anything out of the simulation: every
        // slot's recorded facts and the instant the last query retired.
        let drained = Arc::new(RefCell::new(None));
        let cell = Arc::clone(&drained);
        sim.spawn("service-admit", move |ctx| {
            *cell.borrow_mut() = Some(admission.run(ctx))
        });
        sim.run();

        // Each query was audited as it retired; this audits whatever is
        // still tracked, by the same rule.
        fabric.validator().check_teardown();

        let (facts, end) = drained.take().expect("the admission task ran to its end");
        let tx_busy_ns = (0..cfg.hosts)
            .map(|h| fabric.nic(HostId(h)).stats().tx_busy_ns)
            .sum();
        ServiceReport::fold(facts, host_liveness(cfg, &fabric), tx_busy_ns, end)
    }
}

/// Each host's liveness as the run left it, ordered by host id; the
/// recovery tallies are the report fold's to fill.
fn host_liveness(cfg: &ServiceConfig, fabric: &Fabric) -> Vec<HostReport> {
    (0..cfg.hosts)
        .map(|h| {
            let host = HostId(h);
            let crashed_at = cfg.fault_plan.as_ref().and_then(|p| p.crash_at(host));
            let detected_at = fabric.detected_at(host);
            HostReport {
                host,
                fenced: fabric.is_fenced(host),
                crashed_at,
                detected_at,
                detection_latency: crashed_at.zip(detected_at).map(|(c, d)| d - c),
                queries_recovered: 0,
                queries_rejected: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::JoinError;
    use crate::phase;
    use crate::query::run_direct;
    use crate::runtime::{ClusterRun, Runtime};
    use rsj_rdma::{BufferPool, QueryId, Validator, Violation};
    use rsj_sim::{SimCtx, SimDuration, SimTime};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Toy query: a ring exchange over `machines` one-core machines.
    /// Every machine ships `bytes` to its right neighbour, receives from
    /// the left, and meets at a named barrier. The send is drawn from the
    /// machine's pool and returned once the exchange is through, so a
    /// worker that fails mid-exchange leaves its buffer taken. `fail_on`
    /// makes that machine's worker error out instead, aborting the query.
    struct RingJob {
        machines: usize,
        cores: usize,
        bytes: usize,
        fail_on: Option<usize>,
        rx_bytes: AtomicU64,
        finished: AtomicU64,
        /// The physical host behind each logical machine of the most
        /// recent attempt.
        placed: RefCell<Vec<HostId>>,
        /// Each machine's send-buffer pool, of the most recent attempt.
        pools: RefCell<Vec<Arc<BufferPool>>>,
        /// The fabric's validator, to read the teardown audits' notes.
        validator: RefCell<Option<Arc<Validator>>>,
    }

    impl RingJob {
        fn new(machines: usize, bytes: usize, fail_on: Option<usize>) -> Arc<RingJob> {
            Arc::new(RingJob {
                machines,
                cores: 1,
                bytes,
                fail_on,
                rx_bytes: AtomicU64::new(0),
                finished: AtomicU64::new(0),
                placed: RefCell::new(Vec::new()),
                pools: RefCell::new(Vec::new()),
                validator: RefCell::new(None),
            })
        }
    }

    impl QueryJob for RingJob {
        fn machines(&self) -> usize {
            self.machines
        }

        fn cores(&self) -> usize {
            self.cores
        }

        fn attach(&self, rt: &Arc<Runtime>) {
            *self.placed.borrow_mut() = (0..self.machines)
                .map(|m| rt.fabric.nic(HostId(m)).host())
                .collect();
            *self.pools.borrow_mut() = (0..self.machines)
                .map(|m| rt.make_pool(m, 1, self.bytes))
                .collect();
            *self.validator.borrow_mut() = Some(Arc::clone(rt.fabric.validator()));
        }

        fn run_worker(
            &self,
            ctx: &SimCtx,
            rt: &Runtime,
            mach: usize,
            _core: usize,
        ) -> Result<(), JoinError> {
            if self.fail_on == Some(mach) {
                return Err(JoinError::aborted(phase::HISTOGRAM));
            }
            let nic = rt.fabric.nic(HostId(mach));
            let dst = HostId((mach + 1) % self.machines);
            let pool = Arc::clone(&self.pools.borrow()[mach]);
            let buf = pool.take(ctx);
            let ev = nic.post_send(ctx, dst, 7, vec![0u8; self.bytes]);
            let c = nic
                .recv(ctx)
                .map_err(|e| JoinError::fabric(mach, phase::NETWORK_PARTITION, e))?
                .ok_or(JoinError::aborted(phase::NETWORK_PARTITION))?;
            self.rx_bytes
                .fetch_add(c.payload.len() as u64, Ordering::Relaxed);
            nic.repost_recv(ctx);
            ev.wait(ctx)
                .map_err(|e| JoinError::fabric(mach, phase::NETWORK_PARTITION, e))?;
            pool.put(buf);
            rt.try_sync_named(ctx, phase::NETWORK_PARTITION, mach)?;
            Ok(())
        }

        fn finish(&self, _rt: &Runtime, _run: &ClusterRun) {
            self.finished.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn ring_requests(n: usize, bytes: usize) -> Vec<JoinRequest> {
        (0..n)
            .map(|i| JoinRequest {
                label: format!("ring-{i}"),
                id: None,
                placement: None,
                job: RingJob::new(2, bytes, None),
            })
            .collect()
    }

    #[test]
    fn service_completes_a_fifo_batch_with_bounded_concurrency() {
        let mut cfg = ServiceConfig::qdr_rack(3, 1);
        cfg.max_concurrent = 2;
        let report = QueryService::run(&cfg, ring_requests(6, 64 * 1024));
        assert_eq!(report.queries.len(), 6);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.completed(), 6);
        // FIFO ids 1..=6, sorted in the report.
        let ids: Vec<u32> = report.queries.iter().map(|q| q.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
        // The first two queries are admitted at t = 0; with only two
        // concurrent slots the tail of the queue must wait.
        assert_eq!(report.queries[0].queue_wait, SimDuration::ZERO);
        assert!(report.queue_wait_p99 > SimDuration::ZERO);
        assert!(report.latency_p99 >= report.latency_p50);
        assert!(report.makespan >= report.latency_p99);
        assert!(report.fabric_utilization > 0.0 && report.fabric_utilization <= 1.0);
        for q in &report.queries {
            assert!(q.result.is_ok());
            assert!(q.completed - q.admitted > SimDuration::ZERO);
        }
    }

    #[test]
    fn service_schedule_is_deterministic() {
        let run = || {
            let mut cfg = ServiceConfig::qdr_rack(4, 1);
            cfg.max_concurrent = 3;
            QueryService::run(&cfg, ring_requests(9, 32 * 1024))
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.id, qb.id);
            assert_eq!(qa.admitted, qb.admitted);
            assert_eq!(qa.completed, qb.completed);
            assert_eq!(qa.latency, qb.latency);
        }
    }

    #[test]
    fn failing_query_aborts_alone_and_carries_its_id() {
        let mut cfg = ServiceConfig::qdr_rack(4, 1);
        cfg.max_concurrent = 3;
        let jobs: Vec<Arc<RingJob>> = vec![
            RingJob::new(2, 4096, None),
            RingJob::new(2, 4096, Some(1)),
            RingJob::new(2, 4096, None),
        ];
        let requests = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| JoinRequest {
                label: format!("q{}", i + 1),
                id: None,
                placement: None,
                job: Arc::clone(job) as Arc<dyn QueryJob>,
            })
            .collect();
        let report = QueryService::run(&cfg, requests);
        assert_eq!(report.aborted, 1);
        let failed = &report.queries[1];
        assert_eq!(failed.id, QueryId(2));
        let err = failed.result.as_ref().unwrap_err();
        assert_eq!(err.query(), QueryId(2));
        // The healthy queries completed their exchanges byte-intact and
        // reached finish exactly once.
        for (i, job) in jobs.iter().enumerate() {
            if i == 1 {
                assert_eq!(job.finished.load(Ordering::Relaxed), 0);
            } else {
                assert_eq!(job.finished.load(Ordering::Relaxed), 1);
                assert_eq!(job.rx_bytes.load(Ordering::Relaxed), 2 * 4096);
            }
        }
    }

    #[test]
    fn explicit_ids_and_placements_are_respected() {
        let mut cfg = ServiceConfig::qdr_rack(4, 1);
        cfg.max_concurrent = 4;
        let requests = vec![
            JoinRequest {
                label: "a".into(),
                id: Some(9),
                placement: Some(vec![HostId(3), HostId(0)]),
                job: RingJob::new(2, 1024, None),
            },
            JoinRequest {
                label: "b".into(),
                id: Some(4),
                placement: None,
                job: RingJob::new(2, 1024, None),
            },
        ];
        let report = QueryService::run(&cfg, requests);
        assert_eq!(report.aborted, 0);
        let ids: Vec<u32> = report.queries.iter().map(|q| q.id.0).collect();
        assert_eq!(ids, vec![4, 9]);
        assert_eq!(report.queries[1].label, "a");
    }

    // ---- placement: one rule, healing on or off ----

    /// `Admission::place` has no healing-off branch: it rests on nothing
    /// being fenced while healing is off. So an armed service that meets
    /// no fault must place and schedule a batch exactly as a disarmed one.
    #[test]
    fn armed_healing_without_faults_places_and_schedules_like_healing_off() {
        let run = |healing: HealingConfig| {
            let mut cfg = ServiceConfig::qdr_rack(4, 1);
            cfg.max_concurrent = 3;
            cfg.healing = healing;
            let jobs: Vec<Arc<RingJob>> = (0..7)
                .map(|i| RingJob::new(2 + i % 2, 16 * 1024, None))
                .collect();
            let mut requests: Vec<JoinRequest> = jobs
                .iter()
                .enumerate()
                .map(|(i, job)| JoinRequest {
                    label: format!("q{}", i + 1),
                    id: None,
                    placement: None,
                    job: Arc::clone(job) as Arc<dyn QueryJob>,
                })
                .collect();
            requests[2].placement = Some(vec![HostId(3), HostId(1)]);
            let report = QueryService::run(&cfg, requests);
            assert_eq!(report.aborted, 0);
            let placed: Vec<Vec<HostId>> = jobs.iter().map(|j| j.placed.borrow().clone()).collect();
            (placed, report)
        };
        let (placed_off, off) = run(HealingConfig::default());
        let (placed_on, on) = run(HealingConfig::armed());
        assert_eq!(placed_on, placed_off);
        // FIFO position anchors the rotation; a pinned placement is kept.
        assert_eq!(placed_off[1], vec![HostId(1), HostId(2), HostId(3)]);
        assert_eq!(placed_off[2], vec![HostId(3), HostId(1)]);
        assert_eq!(placed_off[5], vec![HostId(1), HostId(2), HostId(3)]);
        assert_eq!(on.makespan, off.makespan);
        for (a, b) in on.queries.iter().zip(&off.queries) {
            assert_eq!(
                (a.id, a.admitted, a.completed),
                (b.id, b.admitted, b.completed)
            );
        }
    }

    // ---- malformed requests: typed rejection at admission ----

    /// Queue `bad` between two healthy ring queries: it must retire with
    /// the typed `reason` without ever being admitted, and its neighbours
    /// must complete as if it had not been there.
    fn assert_rejected_alone(cfg: &ServiceConfig, bad: JoinRequest, reason: RejectReason) {
        let mut requests = ring_requests(2, 4096);
        requests.insert(1, bad);
        let report = QueryService::run(cfg, requests);
        assert_eq!(report.queries.len(), 3);
        assert_eq!((report.aborted, report.rejected), (1, 1));
        for q in &report.queries {
            if q.label != "bad" {
                assert!(q.result.is_ok(), "{} must run untouched", q.label);
                continue;
            }
            assert_eq!(q.rejected, Some(reason.clone()));
            assert_eq!(q.attempts, 0);
            assert_eq!(
                q.result,
                Err(JoinError::aborted(phase::ADMISSION).with_query(q.id))
            );
        }
    }

    fn bad_request(
        id: Option<u32>,
        placement: Option<Vec<HostId>>,
        machines: usize,
    ) -> JoinRequest {
        JoinRequest {
            label: "bad".into(),
            id,
            placement,
            job: RingJob::new(machines, 4096, None),
        }
    }

    fn invalid(why: &'static str) -> RejectReason {
        RejectReason::InvalidRequest { why }
    }

    #[test]
    fn query_id_zero_is_rejected_typed() {
        assert_rejected_alone(
            &ServiceConfig::qdr_rack(4, 1),
            bad_request(Some(0), None, 2),
            invalid("query id 0 is the direct lane"),
        );
    }

    #[test]
    fn duplicate_query_id_is_rejected_typed() {
        // The first ring query took FIFO id 1.
        assert_rejected_alone(
            &ServiceConfig::qdr_rack(4, 1),
            bad_request(Some(1), None, 2),
            invalid("duplicate query id"),
        );
    }

    #[test]
    fn query_id_in_the_retry_stride_is_rejected_when_healing_is_armed() {
        let mut cfg = ServiceConfig::qdr_rack(4, 1);
        let bad = || bad_request(Some(RETRY_STRIDE), None, 2);
        // Without healing there are no retry ids to collide with.
        let report = QueryService::run(&cfg, vec![bad()]);
        assert_eq!((report.aborted, report.rejected), (0, 0));
        cfg.healing = HealingConfig::armed();
        cfg.fault_plan = Some(FaultPlan::fault_free());
        assert_rejected_alone(
            &cfg,
            bad(),
            invalid("query id collides with the retry id stride"),
        );
    }

    #[test]
    fn query_wanting_more_machines_than_the_rack_has_is_rejected_typed() {
        assert_rejected_alone(
            &ServiceConfig::qdr_rack(4, 1),
            bad_request(None, None, 5),
            RejectReason::NoCapacity {
                machines: 5,
                live: 4,
            },
        );
    }

    #[test]
    fn job_wanting_more_cores_than_a_host_has_is_rejected_typed() {
        let mut job = RingJob::new(2, 4096, None);
        Arc::get_mut(&mut job).expect("not shared yet").cores = 2;
        let mut bad = bad_request(None, None, 2);
        bad.job = job;
        assert_rejected_alone(
            &ServiceConfig::qdr_rack(4, 1),
            bad,
            invalid("job wants more cores per machine than the rack's hosts have"),
        );
    }

    #[test]
    fn malformed_placement_is_rejected_typed() {
        let cfg = ServiceConfig::qdr_rack(4, 1);
        for (placement, why) in [
            (
                vec![HostId(2), HostId(2)],
                "placement names an unknown or repeated host",
            ),
            (
                vec![HostId(0), HostId(4)],
                "placement names an unknown or repeated host",
            ),
            (
                vec![HostId(0), HostId(1), HostId(2)],
                "placement length differs from the job's machine count",
            ),
        ] {
            assert_rejected_alone(&cfg, bad_request(None, Some(placement), 2), invalid(why));
        }
    }

    // ---- the watchdog (one loop, both launch paths) ----

    /// Two one-core machines meet at the histogram barrier; then machine
    /// 1 wedges on an event the protocol never sets while machine 0 goes
    /// on to the next barrier. Only the abort path sets the event, so the
    /// wedged worker can unwind once the watchdog has fired.
    struct WedgeJob {
        wedge: Arc<rsj_sim::SimEvent>,
    }

    impl QueryJob for WedgeJob {
        fn machines(&self) -> usize {
            2
        }

        fn cores(&self) -> usize {
            1
        }

        fn attach(&self, _rt: &Arc<Runtime>) {}

        fn run_worker(
            &self,
            ctx: &SimCtx,
            rt: &Runtime,
            mach: usize,
            _core: usize,
        ) -> Result<(), JoinError> {
            rt.try_sync_named(ctx, phase::HISTOGRAM, mach)?;
            if mach == 1 {
                self.wedge.wait(ctx);
                return Ok(());
            }
            let synced = rt.try_sync_named(ctx, phase::NETWORK_PARTITION, mach);
            self.wedge.set(ctx);
            synced.map(|_| ())
        }

        fn finish(&self, _rt: &Runtime, _run: &ClusterRun) {}
    }

    #[test]
    fn wedged_worker_becomes_a_barrier_timeout_naming_straggler_and_phase() {
        let job = || {
            Arc::new(WedgeJob {
                wedge: rsj_sim::SimEvent::new(),
            })
        };
        let timeout = |query| JoinError::BarrierTimeout {
            query,
            phase: phase::NETWORK_PARTITION,
            stragglers: vec![1],
        };
        let plan = Some(FaultPlan::fault_free());

        let direct = run_direct(
            &job(),
            FabricConfig::qdr(),
            NicCosts::default(),
            plan.clone(),
        );
        assert_eq!(direct.err(), Some(timeout(QueryId::DIRECT)));

        let mut cfg = ServiceConfig::qdr_rack(2, 1);
        cfg.fault_plan = plan;
        let report = QueryService::run(
            &cfg,
            vec![JoinRequest {
                label: "wedged".into(),
                id: None,
                placement: None,
                job: job(),
            }],
        );
        assert_eq!(report.queries[0].result, Err(timeout(QueryId(1))));
        assert!(report.queries[0].rejected.is_none());
    }

    // ---- self-healing (DESIGN.md §13) ----

    use rsj_rdma::fault::HostCrash;

    /// A service config with healing armed and `host` scheduled to crash
    /// at `at_us` microseconds.
    fn healing_cfg(hosts: usize, crash_host: usize, at_us: u64) -> ServiceConfig {
        let mut cfg = ServiceConfig::qdr_rack(hosts, 1);
        cfg.healing = HealingConfig::armed();
        let mut plan = FaultPlan::fault_free();
        plan.crashes.push(HostCrash {
            host: HostId(crash_host),
            at: SimTime::from_nanos(at_us * 1_000),
        });
        cfg.fault_plan = Some(plan);
        cfg
    }

    #[test]
    fn crashed_query_is_reexecuted_on_survivors_and_reported_healed() {
        let cfg = healing_cfg(4, 1, 5);
        let job = RingJob::new(2, 64 * 1024, None);
        let report = QueryService::run(
            &cfg,
            vec![JoinRequest {
                label: "healme".into(),
                id: None,
                placement: None, // rotation puts attempt 1 on hosts {0, 1}
                job: Arc::clone(&job) as Arc<dyn QueryJob>,
            }],
        );
        assert_eq!(report.aborted, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.healed, 1);
        assert_eq!(report.retries, 1);
        let q = &report.queries[0];
        assert_eq!(q.id, QueryId(1));
        assert!(q.result.is_ok());
        assert_eq!(q.attempts, 2);
        assert!(q.recovery.is_some(), "time-to-recovery must be surfaced");
        // finish ran exactly once, on the surviving attempt.
        assert_eq!(job.finished.load(Ordering::Relaxed), 1);
        // The host rollup shows the crash: fenced, detected, credited
        // with the recovered query.
        let h1 = &report.hosts[1];
        assert!(h1.fenced);
        assert_eq!(h1.crashed_at, Some(SimTime::from_nanos(5_000)));
        let detected = h1.detected_at.expect("crash was detected");
        assert!(detected >= h1.crashed_at.unwrap());
        assert_eq!(
            h1.detection_latency,
            Some(detected - h1.crashed_at.unwrap())
        );
        assert_eq!(h1.queries_recovered, 1);
        assert_eq!(h1.queries_rejected, 0);
        for h in [0, 2, 3] {
            assert!(!report.hosts[h].fenced, "host {h} must stay live");
        }
    }

    #[test]
    fn rack_too_small_after_fencing_rejects_with_no_capacity() {
        // Two hosts, a two-machine query: once host 1 is fenced the rack
        // can never fit a re-execution.
        let cfg = healing_cfg(2, 1, 5);
        let report = QueryService::run(&cfg, ring_requests(1, 64 * 1024));
        assert_eq!(report.aborted, 1);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.healed, 0);
        let q = &report.queries[0];
        assert!(q.result.is_err());
        assert_eq!(
            q.rejected,
            Some(RejectReason::NoCapacity {
                machines: 2,
                live: 1
            })
        );
        // One admission happened (the crashed attempt); the re-admission
        // was refused by the degraded-admission policy, not hung.
        assert_eq!(q.attempts, 1);
        assert_eq!(report.hosts[1].queries_rejected, 1);
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_rejection() {
        let mut cfg = healing_cfg(4, 1, 5);
        cfg.healing.max_attempts = 1; // no re-executions allowed
        let report = QueryService::run(&cfg, ring_requests(1, 64 * 1024));
        assert_eq!(report.aborted, 1);
        assert_eq!(report.rejected, 1);
        let q = &report.queries[0];
        assert_eq!(
            q.rejected,
            Some(RejectReason::RetryBudgetExhausted { attempts: 1 })
        );
        assert_eq!(q.attempts, 1);
        let err = q.result.as_ref().unwrap_err();
        assert_eq!(
            err.query(),
            QueryId(1),
            "error is re-stamped to the base id"
        );
    }

    #[test]
    fn explicit_placement_naming_a_fenced_host_is_rejected_typed() {
        let cfg = healing_cfg(4, 1, 5);
        let report = QueryService::run(
            &cfg,
            vec![JoinRequest {
                label: "pinned".into(),
                id: None,
                placement: Some(vec![HostId(1), HostId(2)]),
                job: RingJob::new(2, 64 * 1024, None),
            }],
        );
        assert_eq!(report.rejected, 1);
        let q = &report.queries[0];
        assert_eq!(
            q.rejected,
            Some(RejectReason::PlacementUnavailable { host: HostId(1) })
        );
        assert_eq!(report.hosts[1].queries_rejected, 1);
    }

    #[test]
    fn healed_schedule_replays_byte_identically() {
        let run = || {
            let mut cfg = healing_cfg(4, 1, 5);
            cfg.max_concurrent = 2;
            QueryService::run(&cfg, ring_requests(5, 32 * 1024))
        };
        let a = run();
        let b = run();
        assert!(a.healed >= 1, "the crash must have touched some query");
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.healed, b.healed);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.rejected, b.rejected);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.id, qb.id);
            assert_eq!(qa.admitted, qb.admitted);
            assert_eq!(qa.completed, qb.completed);
            assert_eq!(qa.attempts, qb.attempts);
            assert_eq!(qa.recovery, qb.recovery);
            assert_eq!(qa.rejected, qb.rejected);
        }
        for (ha, hb) in a.hosts.iter().zip(&b.hosts) {
            assert_eq!(ha.fenced, hb.fenced);
            assert_eq!(ha.detected_at, hb.detected_at);
            assert_eq!(ha.queries_recovered, hb.queries_recovered);
        }
    }

    /// The per-query teardown audit applies the one residue rule: what
    /// the crashed host was left holding is one `HostCrashed` note, what
    /// its aborted peer dropped is fault fallout, and a query on
    /// untouched hosts leaves nothing.
    #[test]
    fn crash_residue_is_one_note_naming_the_crashed_host() {
        // Healing off, so the crash-aborted query retires once. Host 1
        // crashes at 5 µs, mid way through a 64 KiB exchange that holds
        // each machine's pool buffer.
        let mut cfg = healing_cfg(4, 1, 5);
        cfg.healing = HealingConfig::default();
        let (hit, spared) = (
            RingJob::new(2, 64 << 10, None),
            RingJob::new(2, 64 << 10, None),
        );
        let request = |label: &str, hosts: [usize; 2], job: &Arc<RingJob>| JoinRequest {
            label: label.into(),
            id: None,
            placement: Some(hosts.map(HostId).to_vec()),
            job: Arc::clone(job) as Arc<dyn QueryJob>,
        };
        let report = QueryService::run(
            &cfg,
            vec![
                request("hit", [0, 1], &hit),
                request("spared", [2, 3], &spared),
            ],
        );
        assert!(report.queries[0].result.is_err());
        assert!(report.queries[1].result.is_ok());
        let vs = hit.validator.take().expect("attached").violations();
        assert!(
            matches!(
                vs[..],
                [Violation::HostCrashed {
                    host: HostId(1),
                    leaked_buffers: 1,
                    ..
                }]
            ),
            "expected one note naming host 1, got {vs:?}"
        );
    }

    #[test]
    fn healing_off_leaves_the_crash_as_a_plain_abort() {
        // Same fault plan, healing disarmed: the query aborts once with
        // the typed crash error and is never retried — the pre-healing
        // contract, event for event.
        let mut cfg = healing_cfg(4, 1, 5);
        cfg.healing = HealingConfig::default();
        let report = QueryService::run(&cfg, ring_requests(1, 64 * 1024));
        assert_eq!(report.aborted, 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.retries, 0);
        let q = &report.queries[0];
        assert_eq!(q.attempts, 1);
        assert!(q.rejected.is_none());
        assert!(q.result.is_err());
    }
}
