//! Membership: which hosts and which queries are still part of the rack.
//!
//! This module decides *who may talk*. It owns the lane registry (a
//! query's per-host receive lanes, registered by [`Fabric::query_view`]
//! and retired by [`Fabric::close_view`]), fail-stop crashes, the
//! failure detector and host fencing (DESIGN.md §13), and aborts — plus
//! [`FaultState`], the flags all of that sets and that `nic.rs` (deny a
//! post) and `wire.rs` (flush instead of deliver) only read.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

use rsj_sim::{SimChannel, SimCtx, SimDuration, SimSemaphore, SimTime, Step};

use crate::config::{HostId, QueryId};
use crate::fabric::{Fabric, Spawner};
use crate::fault::{FabricError, FaultPlan, WcStatus};
use crate::nic::{CellPool, Nic, NicStats};

/// Shared fault-plane state of one fabric: the installed plan plus the
/// dynamic flags (abort, per-host crash, per-QP error) that the engines,
/// NICs and completion handles consult.
pub(crate) struct FaultState {
    plan: Option<FaultPlan>,
    hosts: usize,
    aborted: Cell<bool>,
    crashed: Vec<Cell<bool>>,
    /// Row-major `src * hosts + dst`: queue pair in the error state.
    qp_error: Vec<Cell<bool>>,
    /// Monotone activity counter, snapshotted by the runtime watchdog to
    /// detect a wedged cluster.
    progress: Cell<u64>,
    /// Fast-path flag: some query-scoped abort happened. Lets the hot
    /// paths skip the set lookup with one load, so a fabric with no
    /// multiplexed queries pays nothing.
    query_aborted_any: Cell<bool>,
    /// Queries aborted individually (service multiplexing).
    query_aborted: RefCell<BTreeSet<u32>>,
    /// Hosts fenced by the failure detector (or by crash evidence): their
    /// MR epochs are closed and the service stops placing queries there.
    fenced: Vec<Cell<bool>>,
    /// Virtual instant (ns) the detector declared each host dead;
    /// `u64::MAX` until detected.
    detected_ns: Vec<Cell<u64>>,
    /// Last observed fabric activity per host (ns) — the lease the
    /// failure detector renews and checks.
    activity_ns: Vec<Cell<u64>>,
    /// Set when the service retires its batch: the detector exits at
    /// its next tick instead of keeping the simulation alive forever.
    detector_stop: Cell<bool>,
}

impl FaultState {
    pub(crate) fn new(plan: Option<FaultPlan>, hosts: usize) -> Arc<FaultState> {
        Arc::new(FaultState {
            plan,
            hosts,
            aborted: Cell::new(false),
            crashed: vec![Cell::new(false); hosts],
            qp_error: vec![Cell::new(false); hosts * hosts],
            progress: Cell::new(0),
            query_aborted_any: Cell::new(false),
            query_aborted: RefCell::new(BTreeSet::new()),
            fenced: vec![Cell::new(false); hosts],
            detected_ns: vec![Cell::new(u64::MAX); hosts],
            activity_ns: vec![Cell::new(0); hosts],
            detector_stop: Cell::new(false),
        })
    }

    /// Number of hosts of the fabric.
    pub(crate) fn hosts(&self) -> usize {
        self.hosts
    }

    pub(crate) fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// First abort wins; returns whether this call switched the flag.
    pub(crate) fn set_aborted(&self) -> bool {
        !self.aborted.replace(true)
    }

    pub(crate) fn is_crashed(&self, host: HostId) -> bool {
        self.crashed[host.0].get()
    }

    /// Returns whether this call switched the flag.
    pub(crate) fn set_crashed(&self, host: HostId) -> bool {
        !self.crashed[host.0].replace(true)
    }

    /// Hosts flagged as crashed so far.
    pub(crate) fn crashed_hosts(&self) -> Vec<HostId> {
        flagged(&self.crashed)
    }

    pub(crate) fn is_fenced(&self, host: HostId) -> bool {
        self.fenced[host.0].get()
    }

    /// Returns whether this call switched the flag (first fence wins).
    pub(crate) fn set_fenced(&self, host: HostId) -> bool {
        !self.fenced[host.0].replace(true)
    }

    /// Hosts fenced so far (detector- or evidence-driven).
    pub(crate) fn fenced_hosts(&self) -> Vec<HostId> {
        flagged(&self.fenced)
    }

    /// Renew `host`'s lease: the engines call this on every live message
    /// they carry, the detector on every answered heartbeat probe.
    pub(crate) fn note_activity(&self, host: HostId, now: SimTime) {
        self.activity_ns[host.0].set(now.as_nanos());
    }

    pub(crate) fn last_activity_ns(&self, host: HostId) -> u64 {
        self.activity_ns[host.0].get()
    }

    /// Record the instant the detector declared `host` dead (first wins).
    pub(crate) fn note_detected(&self, host: HostId, now: SimTime) {
        let detected = &self.detected_ns[host.0];
        if detected.get() == u64::MAX {
            detected.set(now.as_nanos());
        }
    }

    pub(crate) fn detected_at(&self, host: HostId) -> Option<SimTime> {
        match self.detected_ns[host.0].get() {
            u64::MAX => None,
            ns => Some(SimTime::from_nanos(ns)),
        }
    }

    pub(crate) fn stop_detector(&self) {
        self.detector_stop.set(true);
    }

    pub(crate) fn detector_stopped(&self) -> bool {
        self.detector_stop.get()
    }

    pub(crate) fn qp_in_error(&self, src: HostId, dst: HostId) -> bool {
        self.qp_error[src.0 * self.hosts + dst.0].get()
    }

    pub(crate) fn set_qp_error(&self, src: HostId, dst: HostId) {
        self.qp_error[src.0 * self.hosts + dst.0].set(true);
    }

    pub(crate) fn note_progress(&self) {
        self.progress.set(self.progress.get() + 1);
    }

    pub(crate) fn progress(&self) -> u64 {
        self.progress.get()
    }

    /// Whether `query` was individually aborted. One load on the hot path
    /// until the first query-scoped abort actually happens.
    fn is_query_aborted(&self, query: QueryId) -> bool {
        query != QueryId::DIRECT
            && self.query_aborted_any.get()
            && self.query_aborted.borrow().contains(&query.0)
    }

    /// Whether `query`'s traffic is dead: the whole rack aborted, or this
    /// query did.
    pub(crate) fn aborted(&self, query: QueryId) -> bool {
        self.aborted.get() || self.is_query_aborted(query)
    }

    /// The "flush instead of deliver" predicate, asked at every yield
    /// point of the engines: `query`'s traffic through `host`'s NIC can no
    /// longer be delivered.
    pub(crate) fn must_flush(&self, query: QueryId, host: HostId) -> bool {
        self.is_crashed(host) || self.aborted(query)
    }

    /// First abort of `query` wins; returns whether this call switched it.
    pub(crate) fn set_query_aborted(&self, query: QueryId) -> bool {
        self.query_aborted_any.set(true);
        self.query_aborted.borrow_mut().insert(query.0)
    }

    /// Why a post by `query` on `src → dst` must fail fast, if it must
    /// (checked before and after the post-overhead yield point). An abort,
    /// query-scoped or rack-wide, denies posts even with no fault plan
    /// installed.
    pub(crate) fn post_denied(&self, query: QueryId, src: HostId, dst: HostId) -> Option<WcStatus> {
        // An abort needs no fault plan: any worker's typed error (a stray
        // tag, say) closes the egress queues, and peers must see flushed
        // handles rather than post into them.
        if self.aborted(query) {
            return Some(WcStatus::Flushed);
        }
        self.plan.as_ref()?;
        if self.is_crashed(src) || self.is_crashed(dst) {
            return Some(WcStatus::Flushed);
        }
        if self.qp_in_error(src, dst) {
            return Some(WcStatus::Flushed);
        }
        None
    }

    /// Map an errored completion status into the most informative
    /// [`FabricError`].
    pub(crate) fn error_for(
        &self,
        query: QueryId,
        src: HostId,
        dst: HostId,
        status: WcStatus,
    ) -> FabricError {
        match status {
            WcStatus::Success => unreachable!("success is not an error"),
            WcStatus::RetryExceeded => FabricError::QpError { src, dst, status },
            WcStatus::Flushed => {
                if self.is_crashed(dst) {
                    FabricError::HostCrashed { host: dst }
                } else if self.is_crashed(src) {
                    FabricError::HostCrashed { host: src }
                } else if self.aborted(query) {
                    FabricError::Aborted
                } else {
                    FabricError::QpError { src, dst, status }
                }
            }
        }
    }
}

/// The hosts whose flag is set, in host order.
fn flagged(flags: &[Cell<bool>]) -> Vec<HostId> {
    (0..flags.len())
        .filter(|&h| flags[h].get())
        .map(HostId)
        .collect()
}

/// The failure detector's tick: how often stale-lease hosts are probed.
const HEARTBEAT: SimDuration = SimDuration::from_micros(20);
/// How long a host's lease stays fresh after its last fabric activity.
const LEASE: SimDuration = SimDuration::from_micros(50);
/// Consecutive missed heartbeats before a host is declared dead.
const MISS_THRESHOLD: u32 = 3;

impl Fabric {
    /// Carve a per-query view for `query`: `placement[m]` names the
    /// physical host backing the view's logical machine `m` (hosts must
    /// be distinct). The view exposes the root's API — `nic(HostId(m))`
    /// hands out machine `m`'s lane NIC, `abort` fans out only to this
    /// query, `shutdown` is a no-op (the shared fabric stays up) — so
    /// operator code written against a dedicated fabric runs unchanged
    /// over a multiplexed one. Call [`Fabric::close_view`] when the
    /// query retires so its lanes unregister and parked receivers wake.
    pub fn query_view(self: &Arc<Self>, query: QueryId, placement: Vec<HostId>) -> Arc<Fabric> {
        assert!(
            self.root.is_none(),
            "query views are carved from the root fabric, not from other views"
        );
        assert!(
            query != QueryId::DIRECT,
            "QueryId::DIRECT is the root fabric's own lane"
        );
        let hosts = self.hosts();
        {
            let mut seen = BTreeSet::new();
            for &h in &placement {
                assert!(h.0 < hosts, "placement names unknown host {}", h.0);
                assert!(seen.insert(h.0), "placement repeats host {}", h.0);
            }
        }
        let placement = Arc::new(placement);
        let nics: Vec<Arc<Nic>> = placement
            .iter()
            .map(|&phys| {
                let base = &self.nics[phys.0];
                Arc::new(Nic {
                    host: phys,
                    query,
                    placement: Some(Arc::clone(&placement)),
                    costs: base.costs,
                    tx: Arc::clone(&base.tx),
                    recv_cq: SimChannel::new(),
                    srq: SimSemaphore::new(self.cfg.srq_slots),
                    srq_slots: self.cfg.srq_slots,
                    mrs: Rc::clone(&base.mrs),
                    stats: RefCell::new(NicStats::default()),
                    lane_progress: Cell::new(0),
                    validator: Arc::clone(&self.validator),
                    faults: Arc::clone(&self.faults),
                    cells: CellPool::new(query, phys, Arc::clone(&self.faults)),
                })
            })
            .collect();
        for nic in &nics {
            let prev = self.lanes[nic.host.0]
                .borrow_mut()
                .insert(query.0, Arc::clone(nic));
            assert!(
                prev.is_none(),
                "query {} already has a lane on host {}",
                query.0,
                nic.host.0
            );
            self.validator.track_lane(nic);
        }
        Arc::new(Fabric {
            cfg: self.cfg,
            query,
            root: Some(Arc::clone(self)),
            nics,
            rx_queues: self.rx_queues.clone(),
            live_tx: Arc::clone(&self.live_tx),
            // Views never launch engines; the root's are already running.
            launched: Cell::new(true),
            lanes: Vec::new(),
            view_closed: Cell::new(false),
            validator: Arc::clone(&self.validator),
            faults: Arc::clone(&self.faults),
            wire: self.wire,
        })
    }

    /// Retire a view: unregister its receive lanes from the root's demux
    /// table and close its receive queues so parked receivers see
    /// end-of-stream. Idempotent; no-op on the root fabric.
    pub fn close_view(&self, ctx: &SimCtx) {
        self.retire_view(ctx, false);
    }

    /// A view retires exactly once — gracefully (`close_view`) or, with
    /// `poison`, by its query's abort.
    fn retire_view(&self, ctx: &SimCtx, poison: bool) {
        let Some(root) = &self.root else { return };
        if self.view_closed.replace(true) {
            return;
        }
        // Unregister *before* closing: the ingress engine must stop
        // resolving this query's lanes before their channels close (a
        // send to a closed SimChannel is a fault; an unresolvable lane
        // is a clean flush).
        for nic in &self.nics {
            root.lanes[nic.host.0].borrow_mut().remove(&self.query.0);
        }
        for nic in &self.nics {
            nic.retire(ctx, poison);
        }
    }

    /// Whether this fabric handle has been aborted: the whole rack on the
    /// root, the rack *or this query* on a view.
    pub fn aborted(&self) -> bool {
        self.faults.aborted(self.query)
    }

    /// Hosts that have crashed so far (fault-plan schedule).
    pub fn crashed_hosts(&self) -> Vec<HostId> {
        self.faults.crashed_hosts()
    }

    /// Fail-stop `host` now: flag it, wake its parked receivers with
    /// errors, and poison its SRQ so the ingress engine cannot wedge.
    /// Query lanes on the crashed host wake too; their registry entries
    /// stay (the `is_crashed` check precedes every delivery, so nothing
    /// can reach the closed lane channels). Every query *touching* the
    /// crashed host additionally has its lanes on the surviving hosts
    /// unregistered and closed: a receiver parked there is waiting for a
    /// peer that can never answer, and must wake with a typed error now,
    /// not when the barrier watchdog gives up.
    pub(crate) fn crash_host(&self, ctx: &SimCtx, host: HostId) {
        if !self.faults.set_crashed(host) {
            return;
        }
        self.validator.on_host_crashed(host);
        self.nics[host.0].retire(ctx, true);
        let touching: BTreeMap<u32, Arc<Nic>> = self.lanes[host.0].borrow().clone();
        for lane in touching.values() {
            lane.retire(ctx, true);
        }
        // Survivor-side wake, in deterministic (query, host) order. The
        // lanes unregister *before* closing, so the ingress engine
        // resolves them to a clean flush rather than a closed channel.
        for q in touching.keys() {
            for h in (0..self.hosts()).filter(|&h| h != host.0) {
                let lane = self.lanes[h].borrow_mut().remove(q);
                if let Some(lane) = lane {
                    lane.retire(ctx, true);
                }
            }
        }
    }

    /// Fence `host` after its crash was detected (by the failure detector
    /// or by crash evidence in a typed error): close the read epoch of
    /// every memory region it registered — one-sided probes holding stale
    /// handles get `ReadAfterUnpublish`/`HostCrashed`, never stale bytes —
    /// and make sure the fail-stop machinery (queue close, lane wake) has
    /// run. The query service additionally stops placing queries on
    /// fenced hosts. Idempotent; first fence wins.
    pub fn fence_host(&self, ctx: &SimCtx, host: HostId) {
        if let Some(root) = &self.root {
            root.fence_host(ctx, host);
            return;
        }
        if !self.faults.set_fenced(host) {
            return;
        }
        self.faults.note_detected(host, ctx.now());
        self.crash_host(ctx, host);
        self.nics[host.0].mrs.unpublish_all();
    }

    /// Hosts fenced so far (failure detector or crash-evidence driven).
    pub fn fenced_hosts(&self) -> Vec<HostId> {
        self.faults.fenced_hosts()
    }

    /// Whether `host` is fenced.
    pub fn is_fenced(&self, host: HostId) -> bool {
        self.faults.is_fenced(host)
    }

    /// The virtual instant `host` was declared dead — by the failure
    /// detector's lease expiry or by crash evidence in a typed error,
    /// whichever fenced it first.
    pub fn detected_at(&self, host: HostId) -> Option<SimTime> {
        self.faults.detected_at(host)
    }

    /// Arm the deterministic failure detector (DESIGN.md §13): a single
    /// monitor step slot that, every `HEARTBEAT` (20 µs) of virtual time,
    /// probes hosts whose activity `LEASE` (50 µs) expired and fences a
    /// host after `MISS_THRESHOLD` (3) consecutive missed heartbeats.
    /// Probes are modeled out of band — no wire messages — so per-query
    /// fault streams and the event schedule of healthy traffic are untouched;
    /// detection latency is a seeded, replayable function of the crash
    /// schedule, at most `LEASE + HEARTBEAT · (MISS_THRESHOLD + 1)` after
    /// the crash. Call [`Fabric::disarm_failure_detector`] when the
    /// service drains so the monitor exits and the simulation can quiesce.
    pub fn arm_failure_detector(self: &Arc<Self>, spawner: &impl Spawner) {
        assert!(
            self.root.is_none(),
            "the failure detector runs on the root fabric"
        );
        let fabric = Arc::clone(self);
        let mut misses = vec![0u32; self.hosts()];
        let mut started = false;
        spawner.spawn_steps("failure-detector".to_string(), move |ctx| {
            if std::mem::replace(&mut started, true) {
                if fabric.faults.detector_stopped() {
                    return Step::Exit;
                }
                fabric.heartbeat(ctx, &mut misses);
            }
            Step::Advance(HEARTBEAT)
        });
    }

    /// One failure-detector tick: probe every unfenced host whose lease
    /// expired, and fence a host once it missed `MISS_THRESHOLD` probes in
    /// a row.
    fn heartbeat(&self, ctx: &SimCtx, misses: &mut [u32]) {
        for (h, missed) in misses.iter_mut().enumerate() {
            let host = HostId(h);
            if self.faults.is_fenced(host) {
                continue;
            }
            let idle = ctx
                .now()
                .as_nanos()
                .saturating_sub(self.faults.last_activity_ns(host));
            if idle <= LEASE.as_nanos() {
                *missed = 0;
                continue;
            }
            // Lease expired: heartbeat-probe the host. A live but idle host
            // answers and renews its lease; a crashed host misses.
            if self.faults.is_crashed(host) {
                *missed += 1;
                if *missed >= MISS_THRESHOLD {
                    self.fence_host(ctx, host);
                }
            } else {
                self.faults.note_activity(host, ctx.now());
                *missed = 0;
            }
        }
    }

    /// Tell the armed failure detector to exit at its next tick (the
    /// service calls this once its batch has drained).
    pub fn disarm_failure_detector(&self) {
        self.faults.stop_detector();
    }

    /// Abort this fabric handle. On the root: every queue closes, every
    /// SRQ is poisoned, and in-flight messages are flushed with error
    /// completions — workers parked on any fabric primitive wake with
    /// typed errors. On a view: the abort is *query-scoped* — only this
    /// query's posts are denied, its in-flight traffic flushes, and its
    /// lanes retire; every other query on the shared fabric is untouched.
    /// Idempotent.
    pub fn abort(&self, ctx: &SimCtx) {
        if self.root.is_some() {
            if self.faults.set_query_aborted(self.query) {
                self.validator.on_query_aborted(self.query);
            }
            self.retire_view(ctx, true);
            return;
        }
        if !self.faults.set_aborted() {
            return;
        }
        self.validator.on_abort();
        for nic in &self.nics {
            nic.tx.close(ctx);
            nic.retire(ctx, true);
        }
        // A rack-wide abort wakes every query lane as well; entries stay
        // registered — the global abort flag flushes everything anyway.
        for lanes in &self.lanes {
            let lanes: Vec<Arc<Nic>> = lanes.borrow().values().cloned().collect();
            for lane in lanes {
                lane.retire(ctx, true);
            }
        }
    }
}
