//! The verbs surface: what a worker thread sees of the fabric.
//!
//! A [`Nic`] posts work requests (SEND, WRITE, READ) and polls receive
//! completions; a [`SendHandle`] / [`ReadHandle`] is the poster's half of
//! one outstanding work request. Workers never spend CPU on the transfer
//! itself — kernel bypass — they only pay [`NicCosts::post_overhead`] to
//! post. Waiting for a completion costs virtual time only if the
//! completion has not fired yet, which is exactly the interleaving
//! trade-off of §4.2.1.
//!
//! This module decides *what a post or a poll returns*. Moving the bytes
//! is `wire.rs`'s job (a posted [`Message`] enters the host's egress
//! queue and comes back as a fired [`WorkCompletion`] or a queued
//! [`Completion`]); whether a post is denied outright is
//! `membership.rs`'s (`FaultState::post_denied`).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Deref;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use rsj_sim::{FloorAction, Parked, SimChannel, SimCtx, SimDuration, SimEvent, SimSemaphore};

use crate::config::{HostId, NicCosts, QueryId};
use crate::fault::{FabricError, WcStatus};
use crate::membership::FaultState;
use crate::mr::{MrTable, RemoteMr};
use crate::validate::Validator;
use crate::wire::{Message, MsgKind};

/// A completed two-sided receive, as seen by the consuming thread.
#[derive(Debug, PartialEq, Eq)]
pub struct Completion {
    /// Sending host.
    pub src: HostId,
    /// Application tag (immediate data): the join encodes the partition id
    /// or a control opcode here.
    pub tag: u32,
    /// The received bytes, already placed in a receive buffer.
    pub payload: Vec<u8>,
}

/// Completion cell of one posted work request, shared between the poster's
/// handle and the message on the wire: the event the poster parks on, the
/// work-completion status, (READs only) the fetched bytes, and who posted
/// the request to whom, so a failed status becomes a typed error.
pub(crate) struct WorkCompletion {
    ev: SimEvent,
    /// `None` until the wire (or a denied post) completes the request.
    status: Cell<Option<WcStatus>>,
    data: RefCell<Option<Vec<u8>>>,
    /// Bumped each time the cell goes back to its pool. A handle minted
    /// at an older generation is a ticket for a request that completed
    /// successfully.
    generation: Cell<u64>,
    /// Whether the current generation's handle is still alive.
    held: Cell<bool>,
    query: QueryId,
    src: HostId,
    dst: Cell<HostId>,
    faults: Arc<FaultState>,
    /// The free list this cell goes back to (dangling for a detached test
    /// cell, or once its NIC is gone).
    home: Weak<CellPool>,
}

/// One holder's share of a [`WorkCompletion`]: the poster's handle holds
/// one, the message on the wire (or the READ reply) another. The cell goes
/// back to its NIC's [`CellPool`] as soon as nobody needs what it holds:
/// when the wire completes it successfully with no task parked on it (the
/// handle then reads the bumped generation as success), when the wire
/// completes a request whose handle is gone, or when the handle of a
/// completed request that still holds something — an error status, READ
/// data, a woken waiter's status — is dropped.
pub(crate) struct Wc(Rc<WorkCompletion>);

impl Wc {
    /// Another holder's share of the same cell.
    pub(crate) fn share(&self) -> Wc {
        Wc(Rc::clone(&self.0))
    }

    /// Complete the work request with `status` and wake its poster. A
    /// success nobody is parked on leaves nothing for the handle to read,
    /// so the cell goes back to its pool at once.
    pub(crate) fn complete(&self, ctx: &SimCtx, status: WcStatus) {
        let parked = self.ev.has_waiters();
        self.status.set(Some(status));
        self.ev.set(ctx);
        if !self.held.get() || (status == WcStatus::Success && !parked) {
            self.recycle();
        }
    }

    /// Complete a READ successfully with its landing buffer, `data`, which
    /// the cell keeps until [`ReadHandle::wait`] takes it.
    pub(crate) fn complete_read(&self, ctx: &SimCtx, data: Vec<u8>) {
        *self.data.borrow_mut() = Some(data);
        self.status.set(Some(WcStatus::Success));
        self.ev.set(ctx);
        if !self.held.get() {
            self.recycle();
        }
    }

    /// Hand the cell back to its pool, ending its generation.
    fn recycle(&self) {
        self.generation.set(self.generation.get() + 1);
        if let Some(home) = self.home.upgrade() {
            home.free.borrow_mut().push(Rc::clone(&self.0));
        }
    }
}

impl Deref for Wc {
    type Target = WorkCompletion;

    fn deref(&self) -> &WorkCompletion {
        &self.0
    }
}

/// One NIC's free lists of completion cells and READ landing buffers: a
/// post draws a cell (a READ also a landing buffer) from it and allocates
/// only when every one is in use. A SEND or WRITE cell comes back when
/// the wire completes it, not when its handle drops, so a stream allocates
/// no more cells than it has requests in flight at once (*Storm*'s rule:
/// no allocation per operation), however long its send windows keep their
/// handles.
pub(crate) struct CellPool {
    free: RefCell<Vec<Rc<WorkCompletion>>>,
    /// Empty landing buffers that keep their capacity.
    landings: RefCell<Vec<Vec<u8>>>,
    /// Cells allocated so far: the most this NIC ever had out at once.
    allocated: Cell<u64>,
    /// The NIC's query lane, host and fault state, which every cell of
    /// the pool carries.
    query: QueryId,
    src: HostId,
    faults: Arc<FaultState>,
}

impl CellPool {
    /// The pool of a NIC serving `query` on host `src`.
    pub(crate) fn new(query: QueryId, src: HostId, faults: Arc<FaultState>) -> Rc<CellPool> {
        Rc::new(CellPool {
            free: RefCell::new(Vec::new()),
            landings: RefCell::new(Vec::new()),
            allocated: Cell::new(0),
            query,
            src,
            faults,
        })
    }

    /// An un-fired cell for a request to `dst`: a recycled one, reset, or
    /// a new one homed here.
    fn take(self: &Rc<CellPool>, dst: HostId) -> Wc {
        let Some(cell) = self.free.borrow_mut().pop() else {
            self.allocated.set(self.allocated.get() + 1);
            // lint: allow-hot-alloc(a miss means every cell of this NIC is in flight or holds an unread error or READ)
            return Wc(Rc::new(WorkCompletion {
                ev: SimEvent::default(),
                status: Cell::new(None),
                data: RefCell::new(None),
                generation: Cell::new(0),
                held: Cell::new(true),
                query: self.query,
                src: self.src,
                dst: Cell::new(dst),
                faults: Arc::clone(&self.faults),
                home: Rc::downgrade(self),
            }));
        };
        cell.ev.reset();
        cell.status.set(None);
        cell.data.borrow_mut().take();
        cell.held.set(true);
        cell.dst.set(dst);
        Wc(cell)
    }

    /// An empty landing buffer for one READ: a recycled one, or a fresh
    /// one that grows on its first landing.
    fn take_landing(&self) -> Vec<u8> {
        self.landings.borrow_mut().pop().unwrap_or_default()
    }

    /// Take a landing buffer back, emptied: the next READ request carries
    /// it onto the wire, where only its length counts.
    fn put_landing(&self, mut data: Vec<u8>) {
        data.clear();
        self.landings.borrow_mut().push(data);
    }
}

/// Poster-side handle to one outstanding send/write work request: a
/// ticket of (cell, generation). Once the cell has moved on to a newer
/// generation, the request completed successfully.
///
/// The buffer behind the posted payload is logically reusable once the
/// completion fires; [`SendHandle::wait`] additionally surfaces the
/// completion *status* — a flushed or retry-exhausted work request returns
/// a typed [`FabricError`] instead of silent success.
pub struct SendHandle {
    cell: Wc,
    generation: u64,
}

impl SendHandle {
    /// The ticket for the current generation of `cell`.
    fn new(cell: Wc) -> SendHandle {
        SendHandle {
            generation: cell.generation.get(),
            cell,
        }
    }

    /// The cell, while it still serves this handle's request; `None` once
    /// it went back to its pool on a successful completion.
    fn live(&self) -> Option<&WorkCompletion> {
        (self.cell.generation.get() == self.generation).then_some(&*self.cell)
    }

    /// Block until the work request completes, then surface its status.
    pub fn wait(&self, ctx: &SimCtx) -> Result<(), FabricError> {
        let Some(cell) = self.live() else {
            return Ok(());
        };
        // A parked waiter keeps the cell out of its pool until this
        // handle drops, so it is still this request's cell on waking.
        cell.ev.wait(ctx);
        match cell.status.get() {
            None | Some(WcStatus::Success) => Ok(()),
            Some(status) => {
                Err(cell
                    .faults
                    .error_for(cell.query, cell.src, cell.dst.get(), status))
            }
        }
    }

    /// Whether the completion (success or error) has fired.
    pub fn is_done(&self) -> bool {
        self.live().is_none_or(|cell| cell.ev.is_set())
    }

    /// A detached, un-fired handle and the call that completes it
    /// successfully, for unit tests of window bookkeeping.
    #[doc(hidden)]
    pub fn for_test() -> (SendHandle, impl Fn(&SimCtx)) {
        // The pool is dropped at once, so the cell never goes back to it.
        let faults = FaultState::new(None, 1);
        let cell = CellPool::new(QueryId::DIRECT, HostId(0), faults).take(HostId(0));
        let handle = SendHandle::new(cell.share());
        (handle, move |ctx: &SimCtx| {
            cell.complete(ctx, WcStatus::Success)
        })
    }
}

impl Drop for SendHandle {
    /// A completed request's cell goes back to its pool with its handle;
    /// an un-completed one when the wire completes it.
    fn drop(&mut self) {
        if self.live().is_none() {
            return;
        }
        self.cell.held.set(false);
        if self.cell.status.get().is_some() {
            self.cell.recycle();
        }
    }
}

/// Initiator-side handle to an outstanding RDMA READ.
pub struct ReadHandle {
    wr: SendHandle,
    /// Whether the work request actually reached the wire (false when the
    /// fault plane denied the post). Batch posting uses this to decide
    /// which read in a chain pays the doorbell.
    posted: bool,
}

impl ReadHandle {
    /// Block until the read completes, then take the data — or the typed
    /// error if the read was flushed or retries were exhausted. The cell
    /// goes back to its pool when the consumed handle drops.
    pub fn wait(self, ctx: &SimCtx) -> Result<ReadBuf, FabricError> {
        self.wr.wait(ctx)?;
        let bytes = self
            .wr
            .live()
            .and_then(|cell| cell.data.take())
            .expect("read completed without data");
        Ok(ReadBuf {
            bytes,
            home: Weak::clone(&self.wr.cell.home),
        })
    }

    /// Whether the read has completed.
    pub fn is_done(&self) -> bool {
        self.wr.is_done()
    }
}

/// The bytes one RDMA READ fetched, in the landing buffer the READ drew
/// from its requester's NIC (the work request's local SGE in verbs terms).
/// Derefs to the bytes; dropping it hands the buffer back to that NIC.
pub struct ReadBuf {
    bytes: Vec<u8>,
    /// The pool the buffer goes back to (dangling once its NIC is gone).
    home: Weak<CellPool>,
}

impl Deref for ReadBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Drop for ReadBuf {
    fn drop(&mut self) {
        if let Some(home) = self.home.upgrade() {
            home.put_landing(std::mem::take(&mut self.bytes));
        }
    }
}

impl fmt::Debug for ReadBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ReadBuf").field(&&self.bytes[..]).finish()
    }
}

impl PartialEq for ReadBuf {
    fn eq(&self, other: &ReadBuf) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for ReadBuf {}

impl PartialEq<Vec<u8>> for ReadBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.bytes == other
    }
}

/// Per-NIC traffic counters (for reports and tests).
#[derive(Copy, Clone, Default, Debug)]
pub struct NicStats {
    /// Messages sent.
    pub tx_msgs: u64,
    /// Payload bytes sent.
    pub tx_bytes: u64,
    /// Messages received.
    pub rx_msgs: u64,
    /// Payload bytes received.
    pub rx_bytes: u64,
    /// Nanoseconds the egress link was busy.
    pub tx_busy_ns: u64,
    /// Nanoseconds the ingress link was busy.
    pub rx_busy_ns: u64,
    /// Retransmissions performed by the egress engine (fault plane).
    pub retransmits: u64,
    /// Work requests completed with an error status.
    pub wc_errors: u64,
    /// Completion cells allocated: posts that found the NIC's free list
    /// empty because every earlier cell was still in use.
    pub cells: u64,
}

/// One host's network interface: the verbs-facing API of the fabric.
///
/// A NIC is either the *base* NIC of a physical host (the root fabric's
/// lane, [`QueryId::DIRECT`]) or a per-query *lane* carved out by
/// [`crate::Fabric::query_view`]: the latter shares the physical host's
/// egress queue and memory-region table but owns a private receive queue
/// and SRQ, so completions of concurrent queries never mix.
pub struct Nic {
    /// The *physical* host this NIC sits on.
    pub(crate) host: HostId,
    /// The query lane this handle serves (`DIRECT` on base NICs).
    pub(crate) query: QueryId,
    /// Logical machine → physical host translation for view NICs: the
    /// worker posts to logical machine ids, the wire carries physical
    /// host ids, and arriving completions are translated back.
    pub(crate) placement: Option<Arc<Vec<HostId>>>,
    pub(crate) costs: NicCosts,
    pub(crate) tx: Arc<SimChannel<Message>>,
    pub(crate) recv_cq: Arc<SimChannel<Completion>>,
    pub(crate) srq: Arc<SimSemaphore>,
    /// The receive buffers posted to the SRQ at creation: a permit
    /// neither free nor held by a queued completion was consumed and not
    /// yet reposted.
    pub(crate) srq_slots: usize,
    /// This host's registered memory regions (one-sided write targets),
    /// shared between the base NIC and every lane on the host.
    pub mrs: Rc<MrTable>,
    pub(crate) stats: RefCell<NicStats>,
    /// Lane activity counter: posts and deliveries on this lane. Summed
    /// by a view fabric's `progress_ticks` so a per-query watchdog can
    /// tell a slow query from a wedged one.
    pub(crate) lane_progress: Cell<u64>,
    pub(crate) validator: Arc<Validator>,
    pub(crate) faults: Arc<FaultState>,
    /// Completion cells of this NIC's posts, recycled.
    pub(crate) cells: Rc<CellPool>,
}

impl Nic {
    /// Translate a logical machine id to the physical host behind it
    /// (identity on base NICs).
    fn phys(&self, dst: HostId) -> HostId {
        match &self.placement {
            Some(p) => p[dst.0],
            None => dst,
        }
    }

    /// Translate a physical source host back to this query's logical
    /// machine id (identity on base NICs).
    fn logical(&self, src: HostId) -> HostId {
        match &self.placement {
            Some(p) => HostId(
                p.iter()
                    .position(|&h| h == src)
                    .expect("completion from a host outside this query's placement"),
            ),
            None => src,
        }
    }

    /// Post a two-sided SEND of `payload` to `dst`. Returns the send
    /// handle: the buffer behind `payload` is logically reusable once its
    /// completion fires. Charges only the WQE post overhead to the caller.
    /// Posting against a queue pair in the error state (or during an
    /// abort) returns an immediately-flushed handle.
    pub fn post_send(&self, ctx: &SimCtx, dst: HostId, tag: u32, payload: Vec<u8>) -> SendHandle {
        // Two-sided posts name a *logical* machine; the wire carries
        // physical host ids.
        let kind = MsgKind::TwoSided { tag };
        self.post(ctx, self.phys(dst), kind, payload, None)
    }

    /// Like [`Nic::post_send`] but ties the message to a flow-control
    /// window: the given semaphore is released when the message is
    /// delivered (or flushed). The caller must have acquired a permit
    /// beforehand.
    pub fn post_send_windowed(
        &self,
        ctx: &SimCtx,
        dst: HostId,
        tag: u32,
        payload: Vec<u8>,
        window: Arc<SimSemaphore>,
    ) -> SendHandle {
        let kind = MsgKind::TwoSided { tag };
        self.post(ctx, self.phys(dst), kind, payload, Some(window))
    }

    /// Post a one-sided RDMA READ of `len` bytes from `remote` at
    /// `offset`. No CPU is consumed on the remote host: its NIC streams
    /// the data back directly (used by the work-sharing extension to pull
    /// build-probe fragments from overloaded machines, and by the
    /// one-sided probe path to fetch published bucket tables).
    ///
    /// Each call pays [`NicCosts::post_overhead`] for its doorbell; use
    /// [`Nic::post_read_batch`] to amortize the doorbell over a chain of
    /// reads.
    ///
    /// ```
    /// use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
    /// use rsj_sim::Simulation;
    ///
    /// let sim = Simulation::new();
    /// let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
    /// fabric.launch(&sim);
    /// sim.spawn("reader", move |ctx| {
    ///     let mr = fabric.nic(HostId(1)).mrs.register(ctx, 256);
    ///     mr.fill(0, &[42; 256]);
    ///     let remote = mr.publish();
    ///     let bytes = fabric
    ///         .nic(HostId(0))
    ///         .post_read(ctx, remote, 128, 64)
    ///         .wait(ctx)
    ///         .unwrap();
    ///     assert_eq!(bytes, vec![42u8; 64]);
    ///     // Dropping `bytes` hands its landing buffer back to host 0's NIC.
    ///     fabric.shutdown(ctx);
    /// });
    /// sim.run();
    /// ```
    pub fn post_read(
        &self,
        ctx: &SimCtx,
        remote: RemoteMr,
        offset: usize,
        len: usize,
    ) -> ReadHandle {
        self.post_read_inner(ctx, remote, offset, len, true)
    }

    /// Post a doorbell-batched chain of RDMA READs: the verbs `wr.next`
    /// linked-list idiom, where one doorbell write submits every work
    /// request in the chain. The whole batch costs a single
    /// [`NicCosts::post_overhead`] on the initiating core — the CPU-side
    /// win the one-sided probe path is built around — while each read
    /// still pays its own wire time. Reads are validated (and fault-gated)
    /// individually, exactly as if posted one by one.
    ///
    /// ```
    /// use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
    /// use rsj_sim::Simulation;
    ///
    /// let sim = Simulation::new();
    /// let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
    /// fabric.launch(&sim);
    /// sim.spawn("reader", move |ctx| {
    ///     let mr = fabric.nic(HostId(1)).mrs.register(ctx, 64);
    ///     mr.fill(0, &[9; 64]);
    ///     let remote = mr.publish();
    ///     let reads = [(remote, 0, 16), (remote, 16, 16), (remote, 48, 16)];
    ///     let handles = fabric.nic(HostId(0)).post_read_batch(ctx, &reads);
    ///     for h in handles {
    ///         assert_eq!(h.wait(ctx).unwrap(), vec![9u8; 16]);
    ///     }
    ///     fabric.shutdown(ctx);
    /// });
    /// sim.run();
    /// ```
    pub fn post_read_batch(
        &self,
        ctx: &SimCtx,
        reads: &[(RemoteMr, usize, usize)],
    ) -> Vec<ReadHandle> {
        let mut doorbell_rung = false;
        reads
            .iter()
            .map(|&(remote, offset, len)| {
                let h = self.post_read_inner(ctx, remote, offset, len, !doorbell_rung);
                // Fault-denied reads never reach the wire; the doorbell
                // is paid by the first read that does.
                doorbell_rung |= h.posted;
                h
            })
            .collect()
    }

    /// Shared READ post path; `charge_doorbell` decides whether this work
    /// request pays [`NicCosts::post_overhead`] (single posts and the
    /// first live read of a batch) or rides a doorbell already rung.
    fn post_read_inner(
        &self,
        ctx: &SimCtx,
        remote: RemoteMr,
        offset: usize,
        len: usize,
        charge_doorbell: bool,
    ) -> ReadHandle {
        self.check_dst(remote.host);
        // Fault-plane denial is checked *before* the validator: a READ
        // aimed at a crashed (and fenced — its MR epochs are closed) host
        // must surface as a typed `HostCrashed` completion the caller can
        // recover from, not as a read-after-unpublish panic.
        let denied = self.faults.post_denied(self.query, self.host, remote.host);
        let wr = self.handle(ctx, remote.host, denied);
        if denied.is_some() {
            return ReadHandle { wr, posted: false };
        }
        self.validator.check_post(&remote, offset, len, true);
        if charge_doorbell {
            ctx.advance(SimDuration::from_secs_f64(self.costs.post_overhead));
        }
        self.stats.borrow_mut().tx_msgs += 1;
        self.lane_progress.set(self.lane_progress.get() + 1);
        let kind = MsgKind::ReadRequest {
            mr: remote.index,
            offset,
            len,
            reply: wr.cell.share(),
        };
        // The request carries the empty landing buffer out (its length,
        // zero, is what the wire charges); the responder fills it and the
        // response carries it back.
        let landing = self.cells.take_landing();
        let msg = Message::new(self.host, remote.host, self.query, kind, landing);
        self.tx.send(ctx, msg);
        ReadHandle { wr, posted: true }
    }

    /// Post a one-sided RDMA WRITE of `payload` into `remote` at `offset`.
    /// No CPU is consumed on the remote host; the returned handle
    /// completes when the write is acknowledged.
    pub fn post_write(
        &self,
        ctx: &SimCtx,
        remote: RemoteMr,
        offset: usize,
        payload: Vec<u8>,
    ) -> SendHandle {
        self.validator
            .check_post(&remote, offset, payload.len(), false);
        let kind = MsgKind::OneSided {
            mr: remote.index,
            offset,
        };
        self.post(ctx, remote.host, kind, payload, None)
    }

    /// A post names a host of the fabric: checked on the poster's stack,
    /// before any charge, so a stray destination fails the posting task.
    ///
    /// # Panics
    /// Panics if `dst` is not a host of this NIC's fabric.
    fn check_dst(&self, dst: HostId) {
        let hosts = self.faults.hosts();
        assert!(
            dst.0 < hosts,
            "post to unknown host {} (the fabric has {hosts} hosts)",
            dst.0
        );
    }

    /// The one place a work-request handle is built: live (`fired` is
    /// `None`; the wire completes it later) or already completed with
    /// `fired` — a post denied by the fault plane.
    fn handle(&self, ctx: &SimCtx, dst: HostId, fired: Option<WcStatus>) -> SendHandle {
        let handle = SendHandle::new(self.cells.take(dst));
        if let Some(status) = fired {
            handle.cell.complete(ctx, status);
            if status != WcStatus::Success {
                self.stats.borrow_mut().wc_errors += 1;
            }
        }
        handle
    }

    /// Shared SEND / WRITE post path to *physical* host `dst`.
    fn post(
        &self,
        ctx: &SimCtx,
        dst: HostId,
        kind: MsgKind,
        payload: Vec<u8>,
        window: Option<Arc<SimSemaphore>>,
    ) -> SendHandle {
        self.check_dst(dst);
        let mut denied = self.faults.post_denied(self.query, self.host, dst);
        if denied.is_none() {
            ctx.advance(SimDuration::from_secs_f64(self.costs.post_overhead));
            // The overhead charge is a yield point: an abort or crash may
            // have landed while this worker was suspended, in which case
            // the egress queue may already be closed — flush instead of
            // posting.
            denied = self.faults.post_denied(self.query, self.host, dst);
        }
        let handle = self.handle(ctx, dst, denied);
        if denied.is_some() {
            // The window permit is returned so flow control cannot wedge
            // on a dead peer.
            if let Some(w) = window {
                w.release(ctx);
            }
            return handle;
        }
        self.count_tx(payload.len());
        self.lane_progress.set(self.lane_progress.get() + 1);
        let mut msg = Message::new(self.host, dst, self.query, kind, payload);
        msg.completion = Some(handle.cell.share());
        msg.window = window;
        self.tx.send(ctx, msg);
        handle
    }

    /// Block until the next two-sided message arrives. Returns `Ok(None)`
    /// once the fabric has shut down cleanly and all in-flight messages
    /// are drained, or a typed error if this host crashed or the cluster
    /// aborted while waiting.
    ///
    /// The caller owns a receive-buffer slot for the returned completion
    /// and must call [`Nic::repost_recv`] once it has copied the payload
    /// out (§4.2.2: "the receive buffers can be reused once the copy
    /// operation terminated successfully").
    pub fn recv(&self, ctx: &SimCtx) -> Result<Option<Completion>, FabricError> {
        self.recv_fault_check()?;
        self.take_completion(ctx)
    }

    /// [`Nic::repost_recv`] then [`Nic::recv`], with the caller's batched
    /// time (a copy charge) settled, the slot reposted and the fault check
    /// made at the caller's floor by the scheduler, through `action` (from
    /// [`Nic::repost_action`]). The receiver is switched in only when a
    /// completion is there, a fault is visible or a permit is stored, so a
    /// receiver that would block does so without a switch. Every charge,
    /// repost, error and wake happens at the instant and in the order of
    /// the two calls. With a completion already queued, a fault already
    /// visible or nothing batched, it makes the two calls.
    pub fn repost_and_recv(
        &self,
        ctx: &SimCtx,
        action: &FloorAction,
    ) -> Result<Option<Completion>, FabricError> {
        if self.recv_cq.is_empty() && self.recv_fault_check().is_ok() {
            match ctx.park_with(action) {
                Parked::AtFloor => return self.recv(ctx),
                // Woken where `recv` parks: take the completion as it
                // would, without its first fault check.
                Parked::Unparked => return self.take_completion(ctx),
                Parked::Declined => {}
            }
        }
        ctx.settle_point();
        self.repost_recv(ctx);
        self.recv(ctx)
    }

    /// The floor action of [`Nic::repost_and_recv`] for the calling
    /// receiver, made once per receive loop: repost, then ask for the
    /// receiver if the fault check fails or the completion queue is
    /// ready, and register it to be woken by the next completion if not.
    pub fn repost_action(self: &Arc<Self>, ctx: &SimCtx) -> FloorAction {
        let nic = Arc::clone(self);
        ctx.floor_action(move |ctx| {
            nic.repost_recv(ctx);
            nic.recv_fault_check().is_err() || nic.recv_cq.poll_ready(ctx).is_ready()
        })
    }

    /// The part of [`Nic::recv`] after its first fault check.
    fn take_completion(&self, ctx: &SimCtx) -> Result<Option<Completion>, FabricError> {
        match self.recv_cq.recv(ctx) {
            Some(mut c) => {
                // The wire carries physical source ids; hand the
                // application its own logical machine numbering.
                c.src = self.logical(c.src);
                Ok(Some(c))
            }
            None => {
                self.recv_fault_check()?;
                Ok(None)
            }
        }
    }

    fn recv_fault_check(&self) -> Result<(), FabricError> {
        // A lane receiver is waiting for its placement peers as well: if
        // any of them crashed, the message it is parked for can never
        // arrive. Surface the crash as a typed error instead of leaving
        // the worker to the barrier watchdog — this also covers a query
        // admitted *after* the crash, whose lanes no crash fan-out will
        // ever close.
        let peers = self.placement.iter().flat_map(|p| p.iter().copied());
        for host in std::iter::once(self.host).chain(peers) {
            if self.faults.is_crashed(host) {
                return Err(FabricError::HostCrashed { host });
            }
        }
        if self.faults.aborted(self.query) {
            return Err(FabricError::Aborted);
        }
        Ok(())
    }

    /// Return one receive-buffer slot to the shared receive queue.
    pub fn repost_recv(&self, ctx: &SimCtx) {
        self.srq.release(ctx);
    }

    /// Retire this NIC's receive side: close the completion queue so a
    /// parked receiver wakes, and — unless the retire is a graceful
    /// end-of-stream — poison the SRQ so the ingress engine cannot wedge
    /// on a slot nobody will repost.
    pub(crate) fn retire(&self, ctx: &SimCtx, poison: bool) {
        self.recv_cq.close(ctx);
        if poison {
            self.srq.poison(ctx);
        }
    }

    /// Count one sent message of `bytes` payload.
    pub(crate) fn count_tx(&self, bytes: usize) {
        let mut stats = self.stats.borrow_mut();
        stats.tx_msgs += 1;
        stats.tx_bytes += bytes as u64;
    }

    /// Count one received message of `bytes` payload.
    pub(crate) fn count_rx(&self, bytes: usize) {
        let mut stats = self.stats.borrow_mut();
        stats.rx_msgs += 1;
        stats.rx_bytes += bytes as u64;
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NicStats {
        NicStats {
            cells: self.cells.allocated.get(),
            ..*self.stats.borrow()
        }
    }

    /// This NIC's *physical* host id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The query lane this NIC handle serves.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// The fabric-wide verbs-contract validator (shared by every NIC).
    pub fn validator(&self) -> &Arc<Validator> {
        &self.validator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_sim::Simulation;

    /// A pool of host 0's NIC and a post on it: the poster's handle and
    /// the wire's share of the same cell.
    fn pool() -> Rc<CellPool> {
        CellPool::new(QueryId::DIRECT, HostId(0), FaultState::new(None, 2))
    }

    fn post(pool: &Rc<CellPool>) -> (SendHandle, Wc) {
        let wire = pool.take(HostId(1));
        (SendHandle::new(wire.share()), wire)
    }

    fn free(pool: &CellPool) -> usize {
        pool.free.borrow().len()
    }

    #[test]
    fn a_success_nobody_waits_for_recycles_the_cell_and_the_ticket_reads_ok() {
        let sim = Simulation::new();
        sim.spawn("poster", |ctx| {
            let pool = pool();
            let (old, wire) = post(&pool);
            assert!(!old.is_done());
            wire.complete(ctx, WcStatus::Success);
            drop(wire);
            assert_eq!(free(&pool), 1, "back before its handle drops");
            // The next post reuses the cell; the old ticket still reads
            // its own request's success, the new one is pending.
            let (new, _wire) = post(&pool);
            assert!(Rc::ptr_eq(&old.cell.0, &new.cell.0));
            assert!(old.is_done() && !new.is_done());
            assert_eq!(old.wait(ctx), Ok(()));
            drop(old);
            assert_eq!(free(&pool), 0, "a stale ticket hands nothing back");
            assert!(!new.is_done());
        });
        sim.run();
    }

    #[test]
    fn a_parked_waiter_is_woken_and_the_cell_returns_with_its_handle() {
        let sim = Simulation::new();
        let pool = pool();
        let (handle, wire) = post(&pool);
        let p = Rc::clone(&pool);
        sim.spawn("poster", move |ctx| {
            assert_eq!(handle.wait(ctx), Ok(()));
            assert_eq!(ctx.now().as_nanos(), 5, "woken by the completion");
            assert!(handle.is_done());
            assert_eq!(free(&p), 0, "held while the woken handle lives");
            drop(handle);
            assert_eq!(free(&p), 1);
        });
        sim.spawn("wire", move |ctx| {
            ctx.advance(SimDuration::from_nanos(5));
            wire.complete(ctx, WcStatus::Success);
        });
        sim.run();
        assert_eq!(free(&pool), 1);
    }

    #[test]
    fn an_error_completion_stays_with_its_handle() {
        let sim = Simulation::new();
        sim.spawn("poster", |ctx| {
            let pool = pool();
            let (handle, wire) = post(&pool);
            wire.complete(ctx, WcStatus::Flushed);
            drop(wire);
            assert_eq!(free(&pool), 0, "the status is still unread");
            assert!(handle.is_done());
            assert!(handle.wait(ctx).is_err());
            assert!(handle.wait(ctx).is_err(), "and stays readable");
            drop(handle);
            assert_eq!(free(&pool), 1);
        });
        sim.run();
    }

    #[test]
    fn an_orphaned_handles_cell_is_recycled_on_completion_whatever_the_status() {
        let sim = Simulation::new();
        sim.spawn("poster", |ctx| {
            let pool = pool();
            for status in [WcStatus::Success, WcStatus::RetryExceeded] {
                let (handle, wire) = post(&pool);
                drop(handle);
                assert_eq!(free(&pool), 0, "the wire still holds it");
                wire.complete(ctx, status);
                assert_eq!(free(&pool), 1);
                let _reuse = pool.take(HostId(1));
            }
        });
        sim.run();
    }

    #[test]
    fn read_data_survives_until_wait_takes_it() {
        let sim = Simulation::new();
        sim.spawn("reader", |ctx| {
            let pool = pool();
            let (wr, wire) = post(&pool);
            let read = ReadHandle { wr, posted: true };
            wire.complete_read(ctx, vec![7; 16]);
            drop(wire);
            assert_eq!(free(&pool), 0, "the data is still unread");
            // Another post cannot draw the cell that holds the data.
            let (_other, _other_wire) = post(&pool);
            assert!(read.is_done());
            assert_eq!(read.wait(ctx).unwrap(), vec![7u8; 16]);
            assert_eq!(free(&pool), 1, "the consumed handle hands it back");
        });
        sim.run();
    }
}
