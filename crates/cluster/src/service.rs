//! The multi-query service runtime: admission queue, shared-fabric
//! multiplexing, per-query isolation (DESIGN.md §9).
//!
//! The paper evaluates one join at a time; a production rack serves many.
//! [`QueryService::run`] owns a long-lived root [`Fabric`] and a bounded
//! per-host slab of pre-registered memory ([`PoolArena`]), admits typed
//! [`JoinRequest`]s from a FIFO queue up to a concurrency limit, and runs
//! each admitted query on its own query-scoped [`Runtime`] — a
//! [`Fabric::query_view`] lane over the shared wire plus a private
//! barrier namespace — so concurrent joins contend for bandwidth and
//! registered memory exactly like co-scheduled tenants, while completions,
//! aborts and teardown audits stay per query.
//!
//! Determinism contract: the whole service runs in one discrete-event
//! simulation, per-query fault streams derive from `(seed, QueryId)`, and
//! admission is FIFO — so the same seed and the same admission order
//! reproduce the identical event schedule, and permuting *disjoint*
//! queries' admission order leaves each query's own trace unchanged.
//!
//! With [`HealingConfig::enabled`] the service is additionally
//! *self-healing* (DESIGN.md §13): the fabric's failure detector fences
//! crashed hosts, queries aborted by a crash are re-admitted under a
//! fresh retry [`QueryId`] (fresh fault stream) onto surviving hosts with
//! exponential virtual-time backoff and a bounded retry budget, and new
//! admissions avoid fenced hosts — rejecting with a typed
//! [`RejectReason`] when the surviving rack cannot fit a placement. A
//! healed query's re-execution runs the same job on the same inputs, so
//! its final result is byte-identical to a fault-free run.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use rsj_rdma::{
    DetectorConfig, Fabric, FabricConfig, FaultPlan, HostId, NicCosts, PoolArena, QueryId,
};
use rsj_sim::{SimChannel, SimCtx, SimDuration, SimTime, Simulation};

use crate::error::JoinError;
use crate::phase;
use crate::phases::PhaseTimes;
use crate::runtime::{ClusterRun, Runtime};

/// Retry attempts of one query get ids `base + attempt * RETRY_STRIDE`,
/// so every attempt draws an independent `(seed, QueryId)` fault stream
/// while the report keys stay on the base id. With healing enabled an
/// explicit query id at or above the stride is rejected at admission.
const RETRY_STRIDE: u32 = 1 << 24;

/// One query's worth of work, as the service sees it: the operator crates
/// implement this for each join type, keeping their inputs and outputs in
/// interior-mutable cells so the trait stays object-safe.
///
/// Lifecycle: `attach` once (building per-query shared state and pools via
/// [`Runtime::make_pool`]), then `run_worker` on every `machines() ×
/// cores()` simulated core, then `finish` once after the workers drained
/// (merging per-machine outputs into the job's recorded outcome).
pub trait QueryJob: Send + Sync {
    /// Machines this query wants (≤ the service's host count).
    fn machines(&self) -> usize;
    /// Worker cores per machine.
    fn cores(&self) -> usize;
    /// Build the query's shared state against its admitted runtime.
    fn attach(&self, rt: &Arc<Runtime>);
    /// One worker's run; an `Err` aborts this query (and only this query).
    fn run_worker(
        &self,
        ctx: &SimCtx,
        rt: &Runtime,
        machine: usize,
        core: usize,
    ) -> Result<(), JoinError>;
    /// Merge and record the outcome after a successful run.
    fn finish(&self, rt: &Runtime, run: &ClusterRun);
}

/// Run `job` alone, on a dedicated fabric and a simulation of its own:
/// the one direct driver behind every operator's `try_run_*` entry point.
/// It performs the same attach / run / finish sequence as a
/// [`QueryService`] admission.
pub fn run_direct<J: QueryJob + 'static>(
    job: &Arc<J>,
    fabric: FabricConfig,
    nic: NicCosts,
    plan: Option<FaultPlan>,
) -> Result<ClusterRun, JoinError> {
    let rt = Runtime::new_with_plan(job.machines(), job.cores(), fabric, nic, plan);
    job.attach(&rt);
    let worker = Arc::clone(job);
    let run = rt.try_run(move |ctx, rt, mach, core| worker.run_worker(ctx, rt, mach, core))?;
    job.finish(&rt, &run);
    Ok(run)
}

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
    /// Worker cores per host.
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
    /// re-execution (DESIGN.md §13). Disabled by default — the service
    /// then behaves exactly as a non-healing scheduler, event for event.
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

/// Self-healing policy for a [`QueryService`] run (DESIGN.md §13).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealingConfig {
    /// Arm the failure detector and the retry machinery. When `false`
    /// (the default) the service ignores the rest of this struct and its
    /// event schedule is identical to the pre-healing scheduler.
    pub enabled: bool,
    /// Lease/heartbeat parameters of the fabric's failure detector.
    pub detector: DetectorConfig,
    /// Total admissions one query may consume: the first run plus up to
    /// `max_attempts - 1` re-executions. Exhausting the budget yields a
    /// typed [`RejectReason::RetryBudgetExhausted`].
    pub max_attempts: u32,
    /// Virtual-time backoff before the first re-admission; doubles on
    /// each further retry of the same query.
    pub backoff_base: SimDuration,
    /// Ceiling on a single backoff interval.
    pub backoff_max: SimDuration,
}

impl Default for HealingConfig {
    fn default() -> Self {
        HealingConfig {
            enabled: false,
            detector: DetectorConfig::default(),
            max_attempts: 3,
            backoff_base: SimDuration::from_micros(200),
            backoff_max: SimDuration::from_millis(5),
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

    /// Backoff before re-admission number `retry` (1-based): base
    /// doubled per retry, capped at `backoff_max`.
    fn backoff(&self, retry: u32) -> SimDuration {
        let shift = retry.saturating_sub(1).min(20);
        let ns = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64 << shift)
            .min(self.backoff_max.as_nanos());
        SimDuration::from_nanos(ns)
    }
}

/// Why admission rejected a query instead of running (or re-running) it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The request is malformed and could never run: a reserved,
    /// duplicate or out-of-range query id, a zero-sized job, or a
    /// placement that is not `machines` distinct hosts of this rack.
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

/// Per-host liveness and recovery rollup in a [`ServiceReport`].
#[derive(Clone, Debug)]
pub struct HostReport {
    /// The physical host.
    pub host: HostId,
    /// Whether the host ended the run fenced (crashed and detected).
    pub fenced: bool,
    /// When the fault plan crashed the host, if it did.
    pub crashed_at: Option<SimTime>,
    /// When the failure detector declared it dead, if it did.
    pub detected_at: Option<SimTime>,
    /// Detection latency: `detected_at - crashed_at` when both exist.
    pub detection_latency: Option<SimDuration>,
    /// Queries that lost an attempt to this host's crash and later
    /// completed on survivors.
    pub queries_recovered: usize,
    /// Queries that lost an attempt to this host's crash and ended
    /// rejected.
    pub queries_rejected: usize,
}

/// One query's outcome in the service report.
pub struct QueryReport {
    /// The query's id.
    pub id: QueryId,
    /// The request's label.
    pub label: String,
    /// When the query left the admission queue.
    pub admitted: SimTime,
    /// When its last worker retired.
    pub completed: SimTime,
    /// Time spent waiting in the admission queue (all requests are
    /// submitted at t = 0).
    pub queue_wait: SimDuration,
    /// Submission-to-completion latency.
    pub latency: SimDuration,
    /// Per-phase breakdown of the query's own named barriers.
    pub phases: PhaseTimes,
    /// `Ok` for a completed query, the typed [`JoinError`] (carrying this
    /// query's id) for an aborted one.
    pub result: Result<(), JoinError>,
    /// Admissions this query consumed (1 for an untroubled run; > 1 when
    /// the healing layer re-executed it after a host crash).
    pub attempts: u32,
    /// `Some` when the degraded-admission policy rejected the query
    /// instead of running it to completion.
    pub rejected: Option<RejectReason>,
    /// Time from the first crash-caused failure to final completion —
    /// the healing layer's time-to-recovery for this query. `None` for
    /// queries that never lost an attempt or never recovered.
    pub recovery: Option<SimDuration>,
}

/// What a whole [`QueryService::run`] reports.
pub struct ServiceReport {
    /// Per-query outcomes, ordered by query id.
    pub queries: Vec<QueryReport>,
    /// Virtual time from service start until the last query retired.
    pub makespan: SimDuration,
    /// Completion-latency percentiles across all queries.
    pub latency_p50: SimDuration,
    /// 95th-percentile completion latency.
    pub latency_p95: SimDuration,
    /// 99th-percentile completion latency.
    pub latency_p99: SimDuration,
    /// Queue-wait percentiles across all queries.
    pub queue_wait_p50: SimDuration,
    /// 95th-percentile queue wait.
    pub queue_wait_p95: SimDuration,
    /// 99th-percentile queue wait.
    pub queue_wait_p99: SimDuration,
    /// Fraction of the rack's total egress-wire capacity kept busy over
    /// the makespan (Σ per-host tx busy / (hosts × makespan)).
    pub fabric_utilization: f64,
    /// Queries that aborted with an error (typed rejections included).
    pub aborted: usize,
    /// Queries the degraded-admission policy rejected (subset of
    /// `aborted`, each carrying a typed [`RejectReason`]).
    pub rejected: usize,
    /// Queries that completed successfully after losing at least one
    /// attempt to a host crash.
    pub healed: usize,
    /// Total re-admissions across the batch (attempts beyond each
    /// query's first).
    pub retries: usize,
    /// Per-host liveness and recovery rollup, ordered by host id.
    pub hosts: Vec<HostReport>,
}

impl ServiceReport {
    /// Queries that completed successfully.
    pub fn completed(&self) -> usize {
        self.queries.len() - self.aborted
    }
}

/// The admission scheduler: runs a batch of queued [`JoinRequest`]s over
/// one shared fabric and reports per-query latency, queue wait and
/// rack-level utilization — re-executing crash-aborted queries on
/// surviving hosts when healing is enabled.
pub struct QueryService;

/// Control messages the admission loop blocks on.
enum Ctl {
    /// An attempt of `slot` retired (its last worker ran the per-query
    /// teardown audit), stamped at the worker's own completion instant.
    Done {
        slot: usize,
        completed: SimTime,
        result: Result<PhaseTimes, JoinError>,
    },
    /// `slot`'s re-admission backoff elapsed: put it back in the queue.
    Requeue { slot: usize },
}

/// Mutable per-request bookkeeping owned by the admission loop.
struct SlotState {
    /// The report-facing id; retry attempts run as `base + k·stride`.
    base: QueryId,
    /// Admissions consumed so far.
    attempts: u32,
    /// When the first attempt left the queue.
    first_admitted: Option<SimTime>,
    /// When the first crash-caused failure retired an attempt.
    first_failure: Option<SimTime>,
    /// Placement of the most recent attempt (for crash attribution).
    last_placement: Vec<HostId>,
    /// Hosts whose crash cost this query an attempt.
    crash_hosts: Vec<HostId>,
}

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
        let arenas: Arc<Vec<Arc<PoolArena>>> = Arc::new(
            (0..cfg.hosts)
                .map(|_| PoolArena::new(cfg.pool_budget_bytes, cfg.nic))
                .collect(),
        );

        // Resolve ids and placements up front: FIFO position decides both
        // the default id (starting at 1; 0 is the direct lane) and the
        // default rotation over the rack. With healing enabled the
        // rotation is recomputed over *live* hosts at each admission —
        // identical to this plan until the first fence. A request that
        // could never run is planned as its typed rejection, delivered
        // when its turn in the queue comes.
        let mut seen = std::collections::HashSet::new();
        let planned: Vec<(QueryId, Result<Vec<HostId>, RejectReason>)> = requests
            .iter()
            .enumerate()
            .map(|(k, req)| {
                let id = req.id.unwrap_or(k as u32 + 1);
                (QueryId(id), Self::plan(cfg, k, id, req, &mut seen))
            })
            .collect();

        let reports: Arc<Mutex<Vec<QueryReport>>> = Arc::new(Mutex::new(Vec::new()));
        // Per-host (queries_recovered, queries_rejected) tallies.
        let host_counts: Arc<Mutex<Vec<(usize, usize)>>> =
            Arc::new(Mutex::new(vec![(0, 0); cfg.hosts]));
        let end_time: Arc<Mutex<SimTime>> = Arc::new(Mutex::new(SimTime::ZERO));

        let sim = Simulation::new();
        fabric.launch(&sim);
        if cfg.healing.enabled {
            fabric.arm_failure_detector(&sim, cfg.healing.detector);
        }
        {
            let fabric = Arc::clone(&fabric);
            let arenas = Arc::clone(&arenas);
            let reports = Arc::clone(&reports);
            let host_counts = Arc::clone(&host_counts);
            let end_time = Arc::clone(&end_time);
            let cfg = cfg.clone();
            sim.spawn("service-admit", move |ctx| {
                let ctl: Arc<SimChannel<Ctl>> = SimChannel::new();
                let total = requests.len();
                let mut slots: Vec<SlotState> = planned
                    .iter()
                    .map(|(id, _)| SlotState {
                        base: *id,
                        attempts: 0,
                        first_admitted: None,
                        first_failure: None,
                        last_placement: Vec::new(),
                        crash_hosts: Vec::new(),
                    })
                    .collect();
                let mut pending: VecDeque<usize> = (0..total).collect();
                let mut active = 0usize;
                let mut retired = 0usize;
                // Assemble one slot's final report, attributing recovery
                // or rejection to the hosts whose crashes it survived.
                let retire = |st: &SlotState,
                              label: &str,
                              completed: SimTime,
                              phases: PhaseTimes,
                              result: Result<(), JoinError>,
                              rejected: Option<RejectReason>| {
                    {
                        let mut counts = host_counts.lock();
                        let mut counted: Vec<HostId> = Vec::new();
                        for &h in &st.crash_hosts {
                            if counted.contains(&h) {
                                continue;
                            }
                            counted.push(h);
                            if result.is_ok() {
                                counts[h.0].0 += 1;
                            } else if rejected.is_some() {
                                counts[h.0].1 += 1;
                            }
                        }
                        if let Some(RejectReason::PlacementUnavailable { host }) = &rejected {
                            if st.crash_hosts.is_empty() {
                                counts[host.0].1 += 1;
                            }
                        }
                    }
                    let admitted = st.first_admitted.unwrap_or(completed);
                    let recovery = if result.is_ok() {
                        st.first_failure.map(|t| completed - t)
                    } else {
                        None
                    };
                    reports.lock().push(QueryReport {
                        id: st.base,
                        label: label.to_string(),
                        admitted,
                        completed,
                        queue_wait: admitted - SimTime::ZERO,
                        latency: completed - SimTime::ZERO,
                        phases,
                        result,
                        attempts: st.attempts,
                        rejected,
                        recovery,
                    });
                };
                while retired < total {
                    while active < cfg.max_concurrent {
                        let Some(slot) = pending.pop_front() else {
                            break;
                        };
                        match Self::place(&cfg, &fabric, &requests[slot], slot, &planned[slot].1) {
                            Ok(placement) => {
                                let st = &mut slots[slot];
                                st.attempts += 1;
                                if st.first_admitted.is_none() {
                                    st.first_admitted = Some(ctx.now());
                                }
                                st.last_placement = placement.clone();
                                let qid = QueryId(st.base.0 + (st.attempts - 1) * RETRY_STRIDE);
                                Self::admit(
                                    ctx,
                                    &fabric,
                                    &arenas,
                                    &cfg,
                                    &requests[slot],
                                    slot,
                                    qid,
                                    placement,
                                    &ctl,
                                );
                                active += 1;
                            }
                            Err(reason) => {
                                // Typed rejection before any workers exist:
                                // admission refuses the query rather than
                                // hanging it or taking the batch down.
                                let st = &slots[slot];
                                let err = JoinError::aborted(phase::ADMISSION).with_query(st.base);
                                retire(
                                    st,
                                    &requests[slot].label,
                                    ctx.now(),
                                    PhaseTimes::default(),
                                    Err(err),
                                    Some(reason),
                                );
                                retired += 1;
                            }
                        }
                    }
                    // Typed rejections retire queries without a worker ever
                    // sending on `ctl`: re-check before blocking, or the
                    // last rejection would park the loop forever.
                    if retired >= total {
                        break;
                    }
                    match ctl.recv(ctx) {
                        Some(Ctl::Requeue { slot }) => pending.push_back(slot),
                        Some(Ctl::Done {
                            slot,
                            completed,
                            result,
                        }) => {
                            active -= 1;
                            match result {
                                Ok(phases) => {
                                    retire(
                                        &slots[slot],
                                        &requests[slot].label,
                                        completed,
                                        phases,
                                        Ok(()),
                                        None,
                                    );
                                    retired += 1;
                                }
                                Err(err) => {
                                    let err = err.with_query(slots[slot].base);
                                    let cause = Self::crash_cause(
                                        &cfg,
                                        &fabric,
                                        &err,
                                        &slots[slot].last_placement,
                                    );
                                    if let Some(host) = cause {
                                        // Evidence-based fencing: a typed
                                        // error naming the crash is proof
                                        // enough — no need to wait for the
                                        // detector's lease to expire.
                                        fabric.fence_host(ctx, host);
                                        {
                                            let st = &mut slots[slot];
                                            if st.first_failure.is_none() {
                                                st.first_failure = Some(completed);
                                            }
                                            st.crash_hosts.push(host);
                                        }
                                        let attempts = slots[slot].attempts;
                                        if attempts < cfg.healing.max_attempts {
                                            let wake = ctx.now() + cfg.healing.backoff(attempts);
                                            let base = slots[slot].base.0;
                                            let ctl = Arc::clone(&ctl);
                                            ctx.spawn(
                                                format!("q{base}-backoff-{attempts}"),
                                                move |ctx| {
                                                    ctx.sleep_until(wake);
                                                    ctl.send(ctx, Ctl::Requeue { slot });
                                                },
                                            );
                                        } else {
                                            retire(
                                                &slots[slot],
                                                &requests[slot].label,
                                                completed,
                                                PhaseTimes::default(),
                                                Err(err),
                                                Some(RejectReason::RetryBudgetExhausted {
                                                    attempts,
                                                }),
                                            );
                                            retired += 1;
                                        }
                                    } else {
                                        retire(
                                            &slots[slot],
                                            &requests[slot].label,
                                            completed,
                                            PhaseTimes::default(),
                                            Err(err),
                                            None,
                                        );
                                        retired += 1;
                                    }
                                }
                            }
                        }
                        None => break,
                    }
                }
                if cfg.healing.enabled {
                    fabric.disarm_failure_detector();
                }
                *end_time.lock() = ctx.now();
                // The batch is drained: stop the shared fabric's engines.
                fabric.shutdown(ctx);
            });
        }
        sim.run();

        // Per-query state was audited at each retirement; what remains is
        // rack-level residue (crash context and the like).
        fabric.validator().check_teardown();

        let makespan_t = *end_time.lock();
        let makespan = makespan_t - SimTime::ZERO;
        let mut queries: Vec<QueryReport> = reports.lock().drain(..).collect();
        queries.sort_by_key(|q| q.id);
        let aborted = queries.iter().filter(|q| q.result.is_err()).count();
        let mut lat: Vec<SimDuration> = queries.iter().map(|q| q.latency).collect();
        let mut qw: Vec<SimDuration> = queries.iter().map(|q| q.queue_wait).collect();
        lat.sort_unstable();
        qw.sort_unstable();
        let busy_ns: u64 = (0..cfg.hosts)
            .map(|h| fabric.nic(HostId(h)).stats().tx_busy_ns)
            .sum();
        let capacity_ns = cfg.hosts as u64 * makespan.as_nanos();
        let fabric_utilization = if capacity_ns == 0 {
            0.0
        } else {
            busy_ns as f64 / capacity_ns as f64
        };
        let rejected = queries.iter().filter(|q| q.rejected.is_some()).count();
        let healed = queries
            .iter()
            .filter(|q| q.result.is_ok() && q.attempts > 1)
            .count();
        let retries = queries
            .iter()
            .map(|q| q.attempts.saturating_sub(1) as usize)
            .sum();
        let counts = host_counts.lock();
        let hosts = (0..cfg.hosts)
            .map(|h| {
                let host = HostId(h);
                let crashed_at = cfg
                    .fault_plan
                    .as_ref()
                    .and_then(|p| p.crashes.iter().find(|c| c.host == host).map(|c| c.at));
                let detected_at = fabric.detected_at(host);
                HostReport {
                    host,
                    fenced: fabric.is_fenced(host),
                    crashed_at,
                    detected_at,
                    detection_latency: match (crashed_at, detected_at) {
                        (Some(c), Some(d)) => Some(d - c),
                        _ => None,
                    },
                    queries_recovered: counts[h].0,
                    queries_rejected: counts[h].1,
                }
            })
            .collect();
        ServiceReport {
            latency_p50: percentile(&lat, 50),
            latency_p95: percentile(&lat, 95),
            latency_p99: percentile(&lat, 99),
            queue_wait_p50: percentile(&qw, 50),
            queue_wait_p95: percentile(&qw, 95),
            queue_wait_p99: percentile(&qw, 99),
            queries,
            makespan,
            fabric_utilization,
            aborted,
            rejected,
            healed,
            retries,
            hosts,
        }
    }

    /// Check one request (FIFO position `k`, resolved id `id`) against
    /// the rack and plan its placement, or say why it can never run.
    /// These are checks on outside input: a bad request must cost its
    /// sender a typed rejection, never the batch a panic.
    fn plan(
        cfg: &ServiceConfig,
        k: usize,
        id: u32,
        req: &JoinRequest,
        seen: &mut std::collections::HashSet<u32>,
    ) -> Result<Vec<HostId>, RejectReason> {
        let invalid = |why| Err(RejectReason::InvalidRequest { why });
        let m = req.job.machines();
        if id == 0 {
            return invalid("query id 0 is the direct lane");
        }
        if cfg.healing.enabled && id >= RETRY_STRIDE {
            return invalid("query id collides with the retry id stride");
        }
        if !seen.insert(id) {
            return invalid("duplicate query id");
        }
        if m == 0 || req.job.cores() == 0 {
            return invalid("job wants no machines or no cores");
        }
        if m > cfg.hosts {
            return Err(RejectReason::NoCapacity {
                machines: m,
                live: cfg.hosts,
            });
        }
        let Some(placement) = &req.placement else {
            return Ok((0..m).map(|i| HostId((k + i) % cfg.hosts)).collect());
        };
        if placement.len() != m {
            return invalid("placement length differs from the job's machine count");
        }
        let mut taken = vec![false; cfg.hosts];
        if !placement
            .iter()
            .all(|h| h.0 < cfg.hosts && !std::mem::replace(&mut taken[h.0], true))
        {
            return invalid("placement names an unknown or repeated host");
        }
        Ok(placement.clone())
    }

    /// Decide where an attempt of `req` (queued at FIFO position `slot`)
    /// runs, or reject it. With healing off this is exactly the
    /// pre-resolved plan; with healing on, default placements rotate over
    /// the *live* hosts (same anchor, so a full rack reproduces the plan)
    /// and explicit placements are checked against the fenced set.
    fn place(
        cfg: &ServiceConfig,
        fabric: &Fabric,
        req: &JoinRequest,
        slot: usize,
        planned: &Result<Vec<HostId>, RejectReason>,
    ) -> Result<Vec<HostId>, RejectReason> {
        let planned = planned.as_ref().map_err(Clone::clone)?;
        if !cfg.healing.enabled {
            return Ok(planned.clone());
        }
        if let Some(explicit) = &req.placement {
            if let Some(&bad) = explicit.iter().find(|&&h| fabric.is_fenced(h)) {
                return Err(RejectReason::PlacementUnavailable { host: bad });
            }
            return Ok(explicit.clone());
        }
        let live: Vec<HostId> = (0..cfg.hosts)
            .map(HostId)
            .filter(|&h| !fabric.is_fenced(h))
            .collect();
        let m = req.job.machines();
        if m > live.len() {
            return Err(RejectReason::NoCapacity {
                machines: m,
                live: live.len(),
            });
        }
        Ok((0..m).map(|i| live[(slot + i) % live.len()]).collect())
    }

    /// The crashed host a failed attempt should be attributed to, if the
    /// failure is crash-caused and healing is on. Primary evidence is the
    /// typed error naming the host; secondary errors (peers observing the
    /// poisoned barrier, watchdog timeouts) fall back to intersecting the
    /// attempt's placement with the fabric's crashed-host set.
    fn crash_cause(
        cfg: &ServiceConfig,
        fabric: &Fabric,
        err: &JoinError,
        placement: &[HostId],
    ) -> Option<HostId> {
        if !cfg.healing.enabled {
            return None;
        }
        if let Some(h) = err.crashed_host() {
            return Some(h);
        }
        let crashed = fabric.crashed_hosts();
        placement.iter().copied().find(|h| crashed.contains(h))
    }

    #[allow(clippy::too_many_arguments)]
    fn admit(
        ctx: &SimCtx,
        fabric: &Arc<Fabric>,
        arenas: &Arc<Vec<Arc<PoolArena>>>,
        cfg: &ServiceConfig,
        req: &JoinRequest,
        slot: usize,
        id: QueryId,
        placement: Vec<HostId>,
        ctl: &Arc<SimChannel<Ctl>>,
    ) {
        let rt = Runtime::for_query(
            id,
            fabric,
            placement,
            req.job.cores(),
            cfg.nic,
            Some(Arc::clone(arenas)),
        );
        rt.stamp_start(ctx.now());
        req.job.attach(&rt);
        let job = Arc::clone(&req.job);
        let finish_rt = Arc::clone(&rt);
        let finish_job = Arc::clone(&job);
        let arenas = Arc::clone(arenas);
        let ctl = Arc::clone(ctl);
        rt.spawn_workers(
            ctx,
            move |ctx, rt, mach, core| job.run_worker(ctx, rt, mach, core),
            move |ctx, result| {
                // The query's share of retirement: its lanes unregister,
                // its own teardown audit runs, its arena share returns.
                finish_rt.fabric.close_view(ctx);
                finish_rt.fabric.validator().check_query_teardown(id);
                let result = result.map(|run| {
                    finish_job.finish(&finish_rt, &run);
                    PhaseTimes::from_events(&run.events)
                });
                for arena in arenas.iter() {
                    arena.release(id);
                }
                ctl.send(
                    ctx,
                    Ctl::Done {
                        slot,
                        completed: ctx.now(),
                        result,
                    },
                );
            },
        );
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[SimDuration], pct: u32) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Toy query: a ring exchange over `machines` one-core machines.
    /// Every machine ships `bytes` to its right neighbour, receives from
    /// the left, and meets at a named barrier. `fail_on` makes that
    /// machine's worker error out instead, aborting the query.
    struct RingJob {
        machines: usize,
        bytes: usize,
        fail_on: Option<usize>,
        rx_bytes: AtomicU64,
        finished: AtomicU64,
    }

    impl RingJob {
        fn new(machines: usize, bytes: usize, fail_on: Option<usize>) -> Arc<RingJob> {
            Arc::new(RingJob {
                machines,
                bytes,
                fail_on,
                rx_bytes: AtomicU64::new(0),
                finished: AtomicU64::new(0),
            })
        }
    }

    impl QueryJob for RingJob {
        fn machines(&self) -> usize {
            self.machines
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
            if self.fail_on == Some(mach) {
                return Err(JoinError::aborted(phase::HISTOGRAM));
            }
            let nic = rt.fabric.nic(HostId(mach));
            let dst = HostId((mach + 1) % self.machines);
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

    #[test]
    fn percentiles_use_nearest_rank() {
        let d = |n: u64| SimDuration::from_nanos(n);
        let v: Vec<SimDuration> = (1..=10).map(|i| d(i * 100)).collect();
        assert_eq!(percentile(&v, 50), d(500));
        assert_eq!(percentile(&v, 95), d(1000));
        assert_eq!(percentile(&v, 99), d(1000));
        assert_eq!(percentile(&[], 50), SimDuration::ZERO);
        assert_eq!(percentile(&v[..1], 99), d(100));
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
