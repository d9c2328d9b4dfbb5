//! The shared phase runtime: a fabric, one simulated thread per core per
//! machine, a cluster-wide barrier, and structured phase bookkeeping.
//!
//! Every distributed operator in the workspace — the main radix hash join
//! (`rsj-core`) and the §7 operators (`rsj-operators`) — runs as a set of
//! `machines × cores` simulated worker threads that proceed through
//! algorithm phases separated by cluster-wide barriers. This module owns
//! that skeleton so each operator stays focused on its algorithm:
//! [`Runtime::sync_named`] ends a phase, recording per machine when its
//! slowest core arrived ([`PhaseEvent`]) and the global barrier-release
//! time (a *mark*); [`Runtime::spawn_workers`] is the one launch routine.
//! The direct path (`Runtime::new`, `Runtime::try_run`) is in `query.rs`.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rsj_rdma::{BufferPool, Fabric, HostId, NicCosts, PoolArena, QueryId, Spawner};
use rsj_sim::{SimBarrier, SimCtx, SimDuration, SimSemaphore, SimTime};

use crate::error::JoinError;

/// Watchdog poll interval (virtual time).
const WATCHDOG_TICK: SimDuration = SimDuration::from_millis(10);
/// Consecutive zero-progress ticks before the watchdog declares a hang
/// (1 virtual second — far beyond any retry backoff budget).
const WATCHDOG_IDLE_TICKS: u32 = 100;

/// One machine's share of one named phase: the phase started for everyone
/// at `start` (the previous barrier's release) and this machine's slowest
/// core reached the closing barrier at `end`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PhaseEvent {
    /// The query this phase belongs to ([`QueryId::DIRECT`] outside a
    /// service). Together with `name` this is the namespaced barrier key.
    pub query: QueryId,
    /// Phase name, as passed to [`Runtime::sync_named`].
    pub name: &'static str,
    /// Machine index (logical, within the query's placement).
    pub machine: usize,
    /// Phase start (global; the previous phase's barrier release).
    pub start: SimTime,
    /// This machine's arrival at the closing barrier.
    pub end: SimTime,
}

impl PhaseEvent {
    /// How long this machine spent in the phase (including any wait for
    /// its own slowest core, excluding the wait for other machines).
    pub fn duration(&self) -> rsj_sim::SimDuration {
        self.end - self.start
    }
}

/// Bookkeeping mutated in one borrow at each barrier.
struct RunState {
    /// Global phase boundaries: barrier-release times, starting at t = 0.
    marks: Vec<SimTime>,
    /// Completed per-machine phase records, in phase order.
    events: Vec<PhaseEvent>,
    /// Per-machine max arrival time at the *current* phase's barrier.
    pending: Vec<SimTime>,
}

/// The shared environment handed to every worker of a distributed
/// operator.
pub struct Runtime {
    /// The simulated fabric connecting the machines: a dedicated root
    /// fabric on the direct path, or a per-query view over a shared
    /// fabric under a query service.
    pub fabric: Arc<Fabric>,
    /// The query this runtime executes ([`QueryId::DIRECT`] outside a
    /// service). Stamped onto every recorded error and phase event.
    query: QueryId,
    /// NIC cost model, for pool construction.
    nic_costs: NicCosts,
    /// Per-physical-host registered-memory arenas (service path only):
    /// [`Runtime::make_pool`] carves per-query sub-pools out of these
    /// instead of conjuring unbounded pools.
    arenas: Option<Arc<Vec<Arc<PoolArena>>>>,
    barrier: Arc<SimBarrier>,
    state: RefCell<RunState>,
    machines: usize,
    cores: usize,
    /// First failure reported by any worker (first error wins; later
    /// failures are consequences of the abort it triggered).
    failure: RefCell<Option<JoinError>>,
    /// Per-machine barrier-arrival counters, for straggler detection.
    arrivals: Vec<Cell<u64>>,
    /// Name of the most recently entered phase barrier, for attributing
    /// watchdog timeouts.
    phase_label: Cell<&'static str>,
    /// Machine-local barriers registered for poisoning on failure.
    poison_barriers: RefCell<Vec<Arc<SimBarrier>>>,
    /// Flow-control semaphores registered for poisoning on failure.
    poison_semaphores: RefCell<Vec<Arc<SimSemaphore>>>,
}

/// What a finished [`Runtime::run`] reports.
pub struct ClusterRun {
    /// Global phase boundaries (barrier-release times), starting with
    /// t = 0; one extra entry per [`Runtime::sync_named`].
    pub marks: Vec<SimTime>,
    /// Per-machine records of every *named* phase, in phase order.
    pub events: Vec<PhaseEvent>,
}

impl Runtime {
    /// Build a *query-scoped* runtime over a shared root fabric: the
    /// query's workers run on the logical machines named by `placement`
    /// (distinct physical hosts of `root`), all fabric traffic is tagged
    /// with `query`, and pools come out of the per-host `arenas`. The phase
    /// clock starts at `start`, the admission instant, so queue wait never
    /// leaks into the first phase. This is the query-service path; workers
    /// are spawned into an already-running simulation with
    /// [`Runtime::spawn_workers`].
    pub fn for_query(
        query: QueryId,
        root: &Arc<Fabric>,
        placement: Vec<HostId>,
        cores: usize,
        nic: NicCosts,
        arenas: Arc<Vec<Arc<PoolArena>>>,
        start: SimTime,
    ) -> Arc<Runtime> {
        assert!(!placement.is_empty() && cores >= 1);
        let machines = placement.len();
        let view = root.query_view(query, placement);
        Runtime::over_fabric(view, query, nic, Some(arenas), machines, cores, start)
    }

    pub(crate) fn over_fabric(
        fabric: Arc<Fabric>,
        query: QueryId,
        nic: NicCosts,
        arenas: Option<Arc<Vec<Arc<PoolArena>>>>,
        machines: usize,
        cores: usize,
        start: SimTime,
    ) -> Arc<Runtime> {
        Arc::new(Runtime {
            fabric,
            query,
            nic_costs: nic,
            arenas,
            barrier: SimBarrier::new(machines * cores),
            state: RefCell::new(RunState {
                marks: vec![start],
                events: Vec::new(),
                pending: vec![SimTime::ZERO; machines],
            }),
            machines,
            cores,
            failure: RefCell::new(None),
            arrivals: vec![Cell::new(0); machines],
            phase_label: Cell::new("startup"),
            poison_barriers: RefCell::new(Vec::new()),
            poison_semaphores: RefCell::new(Vec::new()),
        })
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The query this runtime executes ([`QueryId::DIRECT`] outside a
    /// service).
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Build one machine's RDMA buffer pool and register it with the
    /// verbs-contract validator under this runtime's query. On the direct
    /// path this is a plain pre-registered pool; under a service it is a
    /// sub-allocation of the machine's physical host arena, so concurrent
    /// queries share (and contend for) one bounded slab of registered
    /// memory per host.
    pub fn make_pool(&self, machine: usize, count: usize, buf_size: usize) -> Arc<BufferPool> {
        let host = self.fabric.nic(HostId(machine)).host();
        let pool = match &self.arenas {
            Some(arenas) => arenas[host.0].sub_pool(self.query, count, buf_size),
            None => BufferPool::new(count, buf_size, self.nic_costs),
        };
        self.fabric
            .validator()
            .register_pool_scoped(self.query, host, &pool);
        pool
    }

    /// Worker cores per machine.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// End a named phase: cluster-wide barrier, recording one
    /// [`PhaseEvent`] per machine plus a global mark. Returns `true` on
    /// exactly one core (the leader).
    pub fn sync_named(&self, ctx: &SimCtx, name: &'static str, machine: usize) -> bool {
        self.try_sync_named(ctx, name, machine).unwrap_or(false)
    }

    /// Failure-aware [`Runtime::sync_named`]: returns a [`JoinError`]
    /// instead of blocking forever when the run was aborted while this
    /// worker waited at the barrier.
    pub fn try_sync_named(
        &self,
        ctx: &SimCtx,
        name: &'static str,
        machine: usize,
    ) -> Result<bool, JoinError> {
        {
            let mut st = self.state.borrow_mut();
            st.pending[machine] = st.pending[machine].max(ctx.now());
        }
        self.phase_label.set(name);
        let arrivals = &self.arrivals[machine];
        arrivals.set(arrivals.get() + 1);
        let leader = match self.barrier.wait_checked(ctx) {
            Ok(leader) => leader,
            Err(_) => return Err(self.abort_error(name)),
        };
        if leader {
            let now = ctx.now();
            let mut st = self.state.borrow_mut();
            let start = *st.marks.last().expect("marks start non-empty");
            for machine in 0..self.machines {
                let end = st.pending[machine];
                st.events.push(PhaseEvent {
                    query: self.query,
                    name,
                    machine,
                    start,
                    end,
                });
                st.pending[machine] = SimTime::ZERO;
            }
            st.marks.push(now);
        }
        Ok(leader)
    }

    /// Cluster-wide barrier without marks or events: a poisoned barrier
    /// surfaces as [`JoinError::Aborted`]. Returns `true` on the leader.
    pub fn try_sync_quiet(&self, ctx: &SimCtx) -> Result<bool, JoinError> {
        self.barrier
            .wait_checked(ctx)
            .map_err(|_| self.abort_error(self.phase_label.get()))
    }

    /// The error a worker should propagate after observing a poisoned
    /// barrier: the peer failure is already recorded, so the observer
    /// reports a secondary [`JoinError::Aborted`].
    fn abort_error(&self, phase: &'static str) -> JoinError {
        JoinError::aborted(phase).with_query(self.query)
    }

    /// Report a worker failure and abort the run: the first error is
    /// recorded as *the* cause (stamped with this runtime's query), the
    /// fabric flushes all in-flight work with error completions, and every
    /// registered synchronization primitive is poisoned so no parked
    /// worker can hang. On the service path `fabric` is a query view, so
    /// the abort fan-out is query-scoped: other queries on the shared
    /// fabric are untouched. Idempotent.
    pub fn fail(&self, ctx: &SimCtx, err: JoinError) {
        {
            let mut f = self.failure.borrow_mut();
            if f.is_none() {
                *f = Some(err.with_query(self.query));
            }
        }
        self.fabric.abort(ctx);
        self.barrier.poison(ctx);
        for b in self.poison_barriers.borrow().iter() {
            b.poison(ctx);
        }
        for s in self.poison_semaphores.borrow().iter() {
            s.poison(ctx);
        }
    }

    /// The recorded first failure, if any.
    pub fn failure(&self) -> Option<JoinError> {
        self.failure.borrow().clone()
    }

    /// Register a machine-local barrier so [`Runtime::fail`] can poison it
    /// (any worker parked there wakes instead of hanging the abort).
    pub fn register_barrier(&self, barrier: Arc<SimBarrier>) {
        self.poison_barriers.borrow_mut().push(barrier);
    }

    /// Register a flow-control semaphore for poisoning on failure.
    pub fn register_semaphore(&self, sem: Arc<SimSemaphore>) {
        self.poison_semaphores.borrow_mut().push(sem);
    }

    /// Everything that should move when the cluster is healthy: fabric
    /// activity, barrier arrivals, completed phases.
    fn progress_snapshot(&self) -> u64 {
        let arrivals: u64 = self.arrivals.iter().map(Cell::get).sum();
        let marks = self.state.borrow().marks.len() as u64;
        self.fabric.progress_ticks() + arrivals + marks
    }

    /// Machines with the fewest barrier arrivals — the ones everyone else
    /// is waiting for when the watchdog fires.
    fn stragglers(&self) -> Vec<usize> {
        let counts: Vec<u64> = self.arrivals.iter().map(Cell::get).collect();
        let min = counts.iter().copied().min().unwrap_or(0);
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == min)
            .map(|(m, _)| m)
            .collect()
    }

    /// Spawn this runtime's `machines × cores` workers — the one launch
    /// routine, serving [`Runtime::try_run`] (a simulation of its own) and
    /// the query service (an *already running* simulation shared with
    /// other queries' workers). A worker's `Err` aborts the run
    /// ([`Runtime::fail`]); the last worker out invokes `done` exactly
    /// once with the outcome, and everything that differs between callers
    /// (stopping a dedicated fabric, retiring a query view and its arena)
    /// belongs in `done`. When a fault plan is armed, a watchdog turns a
    /// full window of zero progress into [`JoinError::BarrierTimeout`]
    /// naming the stragglers. It watches this runtime's *own* fabric
    /// handle, so under a service one query's stall is never masked by
    /// another query's traffic. Fault-free runs never spawn it, so their
    /// event schedule is untouched.
    pub fn spawn_workers<F, D>(self: &Arc<Self>, spawner: &impl Spawner, worker: F, done: D)
    where
        F: Fn(&SimCtx, &Runtime, usize, usize) -> Result<(), JoinError> + 'static,
        D: FnOnce(&SimCtx, Result<ClusterRun, JoinError>) + 'static,
    {
        let worker = Arc::new(worker);
        let done = Arc::new(Cell::new(Some(done)));
        let live = Arc::new(Cell::new(self.machines * self.cores));
        let qid = self.query.0;
        for mach in 0..self.machines {
            for core in 0..self.cores {
                let rt = Arc::clone(self);
                let worker = Arc::clone(&worker);
                let done = Arc::clone(&done);
                let live = Arc::clone(&live);
                spawner.spawn_task(format!("q{qid}-m{mach}-c{core}"), move |ctx| {
                    if let Err(e) = worker(ctx, &rt, mach, core) {
                        rt.fail(ctx, e);
                    }
                    // A poisoned barrier is fine here: the failure is recorded.
                    rt.barrier.wait_checked(ctx).unwrap_or(false);
                    live.set(live.get() - 1);
                    if live.get() == 0 {
                        let result = match rt.failure() {
                            Some(err) => Err(err),
                            None => {
                                let st = rt.state.borrow();
                                Ok(ClusterRun {
                                    marks: st.marks.clone(),
                                    events: st.events.clone(),
                                })
                            }
                        };
                        if let Some(done) = done.take() {
                            done(ctx, result);
                        }
                    }
                });
            }
        }
        if self.fabric.has_fault_plan() {
            let rt = Arc::clone(self);
            spawner.spawn_task(format!("q{qid}-watchdog"), move |ctx| {
                let mut last = u64::MAX;
                let mut idle = 0u32;
                while live.get() > 0 {
                    ctx.sleep_until(ctx.now() + WATCHDOG_TICK);
                    let progress = rt.progress_snapshot();
                    if progress != last {
                        last = progress;
                        idle = 0;
                        continue;
                    }
                    idle += 1;
                    if idle >= WATCHDOG_IDLE_TICKS {
                        let err = JoinError::BarrierTimeout {
                            query: rt.query,
                            phase: rt.phase_label.get(),
                            stragglers: rt.stragglers(),
                        };
                        rt.fail(ctx, err);
                        break;
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::PhaseTimes;
    use rsj_rdma::FabricConfig;

    /// A fault-free `machines × cores` run of a fallible worker.
    fn run<F>(machines: usize, cores: usize, fabric_cfg: FabricConfig, worker: F) -> ClusterRun
    where
        F: Fn(&SimCtx, &Runtime, usize, usize) -> Result<(), JoinError> + 'static,
    {
        Runtime::new(machines, cores, fabric_cfg, NicCosts::default())
            .try_run(worker)
            .expect("fault-free run")
    }

    #[test]
    fn marks_record_phase_boundaries() {
        let run = run(2, 2, FabricConfig::fdr(), |ctx, rt, mach, core| {
            ctx.advance(SimDuration::from_millis(1 + (mach * 2 + core) as u64));
            rt.try_sync_named(ctx, "one", mach)?;
            ctx.advance(SimDuration::from_millis(2));
            rt.try_sync_named(ctx, "two", mach)?;
            Ok(())
        });
        assert_eq!(run.marks.len(), 3);
        assert_eq!(run.marks[1].as_nanos(), 4_000_000); // slowest of phase 1
        assert_eq!(run.marks[2].as_nanos(), 6_000_000);
    }

    #[test]
    fn named_sync_records_per_machine_events() {
        let run = run(3, 2, FabricConfig::qdr(), |ctx, rt, mach, core| {
            // Machine m's slowest core takes 10(m+1) ms in phase one.
            ctx.advance(SimDuration::from_millis(
                10 * (mach as u64 + 1) - core as u64,
            ));
            rt.try_sync_named(ctx, "alpha", mach)?;
            ctx.advance(SimDuration::from_millis(5));
            rt.try_sync_named(ctx, "beta", mach)?;
            Ok(())
        });
        assert_eq!(run.events.len(), 6);
        let alpha: Vec<_> = run.events.iter().filter(|e| e.name == "alpha").collect();
        assert_eq!(alpha.len(), 3);
        for (m, ev) in alpha.iter().enumerate() {
            assert_eq!(ev.machine, m);
            assert_eq!(ev.start, SimTime::ZERO);
            assert_eq!(ev.end.as_nanos(), 10_000_000 * (m as u64 + 1));
        }
        // Phase two starts for everyone at the slowest machine's arrival.
        let beta: Vec<_> = run.events.iter().filter(|e| e.name == "beta").collect();
        assert_eq!(beta[0].start, run.marks[1]);
        assert_eq!(beta[2].end, run.marks[2]);
    }

    #[test]
    fn events_fold_into_phase_times_that_sum_to_total() {
        let run = run(2, 1, FabricConfig::fdr(), |ctx, rt, mach, _core| {
            for (phase, ms) in [
                ("histogram", 1u64),
                ("network_partition", 7),
                ("local_partition", 3),
                ("build_probe", 9),
            ] {
                ctx.advance(SimDuration::from_millis(ms * (mach as u64 + 1)));
                rt.try_sync_named(ctx, phase, mach)?;
            }
            Ok(())
        });
        let times = PhaseTimes::from_events(&run.events);
        // Machine 1 is the slowest throughout: each phase takes 2x ms.
        assert_eq!(times.histogram, SimDuration::from_millis(2));
        assert_eq!(times.network_partition, SimDuration::from_millis(14));
        assert_eq!(times.local_partition, SimDuration::from_millis(6));
        assert_eq!(times.build_probe, SimDuration::from_millis(18));
        // Back-to-back phases: durations sum to the end-to-end time.
        assert_eq!(times.total(), *run.marks.last().unwrap() - SimTime::ZERO);
    }

    #[test]
    fn workers_can_use_the_fabric() {
        use rsj_rdma::HostId;
        let run = run(2, 1, FabricConfig::qdr(), |ctx, rt, mach, _core| {
            let nic = rt.fabric.nic(HostId(mach));
            let dst = HostId(1 - mach);
            let ev = nic.post_send(ctx, dst, 5, vec![0u8; 4096]);
            let c = nic.recv(ctx).unwrap().expect("peer message");
            assert_eq!(c.tag, 5);
            nic.repost_recv(ctx);
            ev.wait(ctx).unwrap();
            rt.try_sync_named(ctx, "exchange", mach)?;
            Ok(())
        });
        assert_eq!(run.marks.len(), 2);
        assert!(run.marks[1] > SimTime::ZERO);
    }
}
