//! Who runs when and where: the admission task of a
//! [`QueryService`](crate::QueryService) run as one state machine
//! (DESIGN.md §9, §13).
//!
//! [`Admission`] owns the FIFO queue and the concurrency limit. `fill`
//! places and admits queued requests into the free slots, `handle` takes
//! one [`Ctl`] message (an attempt retired, a backoff elapsed), `retire`
//! records a request's final outcome. All it records is [`SlotFacts`];
//! the report is folded from them once the simulation has run.
//!
//! Placement is one rule, [`Admission::place`]. It never asks whether
//! healing is on: hosts are fenced only behind `HealingConfig::enabled`
//! (the detector is armed, and crash evidence acted on, only then), so
//! with healing off "the non-fenced hosts" are the whole rack.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use rsj_rdma::{capped_backoff, Fabric, HostId, PoolArena, QueryId};
use rsj_sim::{SimChannel, SimCtx, SimDuration, SimTime};

use crate::error::JoinError;
use crate::phase;
use crate::phases::PhaseTimes;
use crate::report::SlotFacts;
use crate::runtime::Runtime;
use crate::service::{JoinRequest, RejectReason, ServiceConfig, RETRY_STRIDE};

/// Virtual-time backoff before the first re-admission of a crash-aborted
/// query; doubles on each further retry of the same query.
const REQUEUE_BACKOFF_BASE: SimDuration = SimDuration::from_micros(200);
/// Ceiling on a single re-admission backoff.
const REQUEUE_BACKOFF_MAX: SimDuration = SimDuration::from_millis(5);

/// Control messages the admission task blocks on, each naming its slot.
enum Ctl {
    /// An attempt retired (its last worker ran the per-query teardown
    /// audit) with this result, at this instant of the worker's own clock.
    Done(usize, SimTime, Result<PhaseTimes, JoinError>),
    /// The re-admission backoff elapsed: put the slot back in the queue.
    Requeue(usize),
}

/// One request of the batch, at its FIFO position.
struct Slot {
    request: JoinRequest,
    /// Why the request can never run, if [`plan`] said so.
    refused: Option<RejectReason>,
    /// Placement of the most recent attempt (for crash attribution).
    last_placement: Vec<HostId>,
    facts: SlotFacts,
}

/// The admission task's state.
pub(crate) struct Admission {
    cfg: ServiceConfig,
    fabric: Arc<Fabric>,
    /// Pre-registered memory slab per host, carved into per-query pools.
    arenas: Arc<Vec<Arc<PoolArena>>>,
    ctl: Arc<SimChannel<Ctl>>,
    slots: Vec<Slot>,
    /// Slots waiting for admission, FIFO.
    pending: VecDeque<usize>,
    /// Attempts currently running.
    active: usize,
    /// Slots that reached their final outcome.
    retired: usize,
}

impl Admission {
    /// Queue `requests` in order: FIFO position decides the default id
    /// (from 1; 0 is the direct lane) and anchors the placement rotation.
    /// A request that could never run waits its turn to be told so.
    pub(crate) fn new(
        cfg: &ServiceConfig,
        fabric: &Arc<Fabric>,
        requests: Vec<JoinRequest>,
    ) -> Admission {
        let mut seen = BTreeSet::new();
        let slots: Vec<Slot> = requests
            .into_iter()
            .enumerate()
            .map(|(k, request)| {
                let id = request.id.unwrap_or(k as u32 + 1);
                Slot {
                    refused: plan(cfg, id, &request, &mut seen).err(),
                    last_placement: Vec::new(),
                    facts: SlotFacts::queued(QueryId(id), request.label.clone()),
                    request,
                }
            })
            .collect();
        let arena = |_| PoolArena::new(cfg.pool_budget_bytes, cfg.nic);
        Admission {
            cfg: cfg.clone(),
            fabric: Arc::clone(fabric),
            arenas: Arc::new((0..cfg.hosts).map(arena).collect()),
            ctl: SimChannel::new(),
            pending: (0..slots.len()).collect(),
            slots,
            active: 0,
            retired: 0,
        }
    }

    /// Run the batch to completion, then stop the shared fabric. Returns
    /// every slot's facts and the instant the last query retired.
    pub(crate) fn run(mut self, ctx: &SimCtx) -> (Vec<SlotFacts>, SimTime) {
        loop {
            self.fill(ctx);
            // `fill` retires refused requests without any worker sending
            // on `ctl`: blocking now would park this task forever.
            if self.retired == self.slots.len() {
                break;
            }
            let Some(msg) = self.ctl.recv(ctx) else { break };
            self.handle(ctx, msg);
        }
        if self.cfg.healing.enabled {
            self.fabric.disarm_failure_detector();
        }
        let end = ctx.now();
        self.fabric.shutdown(ctx);
        (self.slots.into_iter().map(|s| s.facts).collect(), end)
    }

    /// Admit queued requests while a concurrency slot is free. One that
    /// cannot be placed retires with its typed rejection before any worker
    /// exists: refused rather than hung, and the batch goes on.
    fn fill(&mut self, ctx: &SimCtx) {
        while self.active < self.cfg.max_concurrent {
            let Some(slot) = self.pending.pop_front() else {
                break;
            };
            match self.place(slot) {
                Ok(placement) => self.admit(ctx, slot, placement),
                Err(reason) => {
                    let err = JoinError::aborted(phase::ADMISSION);
                    self.retire(slot, ctx.now(), Err(err), Some(reason));
                }
            }
        }
    }

    /// Where the next attempt of `slot` runs, or why it cannot.
    fn place(&self, slot: usize) -> Result<Vec<HostId>, RejectReason> {
        let queued = &self.slots[slot];
        if let Some(reason) = &queued.refused {
            return Err(reason.clone());
        }
        if let Some(pinned) = &queued.request.placement {
            return match pinned.iter().find(|&&h| self.fabric.is_fenced(h)) {
                Some(&host) => Err(RejectReason::PlacementUnavailable { host }),
                None => Ok(pinned.clone()),
            };
        }
        let live: Vec<HostId> = (0..self.cfg.hosts)
            .map(HostId)
            .filter(|&h| !self.fabric.is_fenced(h))
            .collect();
        let machines = queued.request.job.machines();
        if machines > live.len() {
            return Err(RejectReason::NoCapacity {
                machines,
                live: live.len(),
            });
        }
        Ok((0..machines)
            .map(|i| live[(slot + i) % live.len()])
            .collect())
    }

    /// Start one attempt of `slot` on `placement`: a query-scoped runtime
    /// under a fresh retry id (an independent `(seed, QueryId)` fault
    /// stream per attempt) whose last worker out reports on `ctl`.
    fn admit(&mut self, ctx: &SimCtx, slot: usize, placement: Vec<HostId>) {
        let s = &mut self.slots[slot];
        s.facts.attempts += 1;
        s.facts.first_admitted.get_or_insert(ctx.now());
        s.last_placement = placement.clone();
        let id = QueryId(s.facts.id.0 + (s.facts.attempts - 1) * RETRY_STRIDE);
        let job = Arc::clone(&s.request.job);
        let rt = Runtime::for_query(
            id,
            &self.fabric,
            placement,
            job.cores(),
            self.cfg.nic,
            Arc::clone(&self.arenas),
            ctx.now(),
        );
        job.attach(&rt);
        let (finish_rt, finish_job) = (Arc::clone(&rt), Arc::clone(&job));
        let (arenas, ctl) = (Arc::clone(&self.arenas), Arc::clone(&self.ctl));
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
                ctl.send(ctx, Ctl::Done(slot, ctx.now(), result));
            },
        );
        self.active += 1;
    }

    /// React to one message received on `ctl`.
    fn handle(&mut self, ctx: &SimCtx, msg: Ctl) {
        match msg {
            Ctl::Requeue(slot) => self.pending.push_back(slot),
            Ctl::Done(slot, completed, result) => {
                self.active -= 1;
                match result {
                    Ok(phases) => self.retire(slot, completed, Ok(phases), None),
                    Err(err) => self.attempt_failed(ctx, slot, completed, err),
                }
            }
        }
    }

    /// An attempt of `slot` failed at `completed`: the query's final
    /// result, unless healing is on and a crash caused it — then the host
    /// is fenced and, while the budget lasts, the slot backs off and re-queues.
    fn attempt_failed(&mut self, ctx: &SimCtx, slot: usize, completed: SimTime, err: JoinError) {
        // Primary evidence is the typed error naming the crashed host;
        // secondary errors (peers observing the poisoned barrier, watchdog
        // timeouts) fall back to the attempt's placement touching one.
        let cause = err.crashed_host().or_else(|| {
            let crashed = self.fabric.crashed_hosts();
            let placement = &self.slots[slot].last_placement;
            placement.iter().copied().find(|h| crashed.contains(h))
        });
        let Some(host) = cause.filter(|_| self.cfg.healing.enabled) else {
            return self.retire(slot, completed, Err(err), None);
        };
        // Evidence-based fencing: a typed error naming the crash is proof
        // enough — no need to wait for the detector's lease to expire.
        self.fabric.fence_host(ctx, host);
        let facts = &mut self.slots[slot].facts;
        facts.lost.push((completed, host));
        let (base, attempts) = (facts.id.0, facts.attempts);
        if attempts >= self.cfg.healing.max_attempts {
            let reason = RejectReason::RetryBudgetExhausted { attempts };
            return self.retire(slot, completed, Err(err), Some(reason));
        }
        let wake = ctx.now() + capped_backoff(REQUEUE_BACKOFF_BASE, REQUEUE_BACKOFF_MAX, attempts);
        let ctl = Arc::clone(&self.ctl);
        ctx.spawn(format!("q{base}-backoff-{attempts}"), move |ctx| {
            ctx.sleep_until(wake);
            ctl.send(ctx, Ctl::Requeue(slot));
        });
    }

    /// Record `slot`'s final outcome; the error is stamped with the
    /// report-facing id, whichever attempt raised it.
    fn retire(
        &mut self,
        slot: usize,
        completed: SimTime,
        result: Result<PhaseTimes, JoinError>,
        rejected: Option<RejectReason>,
    ) {
        let facts = &mut self.slots[slot].facts;
        facts.completed = completed;
        facts.result = result.map_err(|err| err.with_query(facts.id));
        facts.rejected = rejected;
        self.retired += 1;
    }
}

/// Check one request (resolved id `id`) against the rack, or say why it
/// can never run. These are checks on outside input: a bad request must
/// cost its sender a typed rejection, never the batch a panic.
fn plan(
    cfg: &ServiceConfig,
    id: u32,
    req: &JoinRequest,
    seen: &mut BTreeSet<u32>,
) -> Result<(), RejectReason> {
    let invalid = |why| Err(RejectReason::InvalidRequest { why });
    let (m, cores) = (req.job.machines(), req.job.cores());
    if id == 0 {
        return invalid("query id 0 is the direct lane");
    }
    if cfg.healing.enabled && id >= RETRY_STRIDE {
        return invalid("query id collides with the retry id stride");
    }
    if !seen.insert(id) {
        return invalid("duplicate query id");
    }
    if m == 0 || cores == 0 {
        return invalid("job wants no machines or no cores");
    }
    if cores > cfg.cores {
        return invalid("job wants more cores per machine than the rack's hosts have");
    }
    if m > cfg.hosts {
        return Err(RejectReason::NoCapacity {
            machines: m,
            live: cfg.hosts,
        });
    }
    let Some(placement) = &req.placement else {
        return Ok(());
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
    Ok(())
}
