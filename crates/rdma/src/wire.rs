//! The switch and the links: how a posted [`Message`] crosses the rack.
//!
//! Topology matches the paper's clusters (§6.3): every machine connects to
//! a single switch. Each host's NIC is driven by two engines:
//!
//! * the **egress engine** serializes outgoing messages onto the host's
//!   uplink (`max(bytes/bandwidth, 1/msg_rate)` per message), then forwards
//!   them to the destination with the propagation latency added;
//! * the **ingress engine** serializes arriving messages off the downlink
//!   (creating incast contention when many hosts target one receiver),
//!   performs the memory placement (SRQ buffer for two-sided, direct MR
//!   write for one-sided), and fires completion events.
//!
//! Like the hardware they model, the engines take no thread of their own:
//! each is a *step slot* of the simulation ([`rsj_sim::Step`]), a per-host
//! state machine — the message it holds and the phase it is in — that the
//! scheduler calls on its own stack. A run goes up to the next point where
//! a task would have yielded and returns it: `Advance` for a stall, a
//! retransmission backoff, the wait for a message's arrival or a wire
//! charge, `Park` for an empty queue or a full SRQ (RNR), `Exit` when the
//! queue closes. These are the points where an engine written as a task
//! would yield, so the dispatch order is that task's, without its stack
//! switches (the pinned trace digests in `tests/fabric.rs` hold it).
//!
//! This module decides *when a message is delivered and what it costs on
//! the wire*: it is the only caller of
//! [`crate::FabricConfig::wire_seconds`] and of the injected plan's
//! per-message decisions. Its input is a host's egress
//! `SimChannel<Message>`; its output is a fired completion cell, a queued
//! receive completion, or a flush.
//!
//! ## Fault plane
//!
//! With a [`crate::FaultPlan`] installed (DESIGN.md §8) the egress engine
//! consults the plan per transmission and models IB RC retransmission — a
//! dropped attempt is retried after exponential RNR-style backoff, paid in
//! virtual time at the head of the egress queue (go-back-N, so per-source
//! FIFO order is preserved). A message that exhausts the retry counter
//! completes with [`WcStatus::RetryExceeded`] and moves its queue pair to
//! the error state; later posts on that pair flush immediately. Crashed
//! hosts flush everything they touch. With no plan installed none of these
//! branches are taken and the event schedule is identical to the
//! pre-fault-plane fabric.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::task::Poll;

use rsj_sim::{SimCtx, SimDuration, SimSemaphore, SimTime, Step};

use crate::config::{FabricConfig, HostId, QueryId};
use crate::fabric::{Fabric, Spawner};
use crate::fault::{capped_backoff, WcStatus};
use crate::nic::{Completion, Nic, Wc};
use crate::validate::Violation;

pub(crate) enum MsgKind {
    TwoSided {
        tag: u32,
    },
    OneSided {
        mr: usize,
        offset: usize,
    },
    /// Tiny request asking the *target* NIC to stream `len` bytes of its
    /// MR back to the initiator (RDMA READ, no remote CPU).
    ReadRequest {
        mr: usize,
        offset: usize,
        len: usize,
        reply: Wc,
    },
    /// The data leg of an RDMA READ, travelling back to the initiator.
    ReadResponse {
        reply: Wc,
    },
}

pub(crate) struct Message {
    src: HostId,
    dst: HostId,
    /// Which query's lane this message belongs to; the ingress engine
    /// demuxes two-sided deliveries to the matching per-query receive
    /// lane, and the fault plane scopes flushes/seeds by it.
    query: QueryId,
    payload: Vec<u8>,
    kind: MsgKind,
    /// Earliest instant the ingress engine may start draining this message
    /// (egress completion + propagation latency); set by the egress engine.
    arrival: SimTime,
    /// Fired when the sender may reuse the buffer (send completion / ack),
    /// with the completion status alongside.
    pub(crate) completion: Option<Wc>,
    /// Released on delivery; backs TCP-style windowed flow control.
    pub(crate) window: Option<Arc<SimSemaphore>>,
}

impl Message {
    /// A message with no send completion and no flow-control window.
    pub(crate) fn new(
        src: HostId,
        dst: HostId,
        query: QueryId,
        kind: MsgKind,
        payload: Vec<u8>,
    ) -> Message {
        Message {
            src,
            dst,
            query,
            payload,
            kind,
            arrival: SimTime::ZERO,
            completion: None,
            window: None,
        }
    }
}

/// Retransmissions of a dropped message before its completion errors out
/// and the queue pair enters the error state (IB RC's 3-bit retry counter
/// tops out at 7).
const MAX_RETRIES: u32 = 7;
/// Backoff before the first retransmission; doubles per attempt.
const RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_micros(10);
/// Ceiling on a single retransmission backoff.
const RETRY_BACKOFF_MAX: SimDuration = SimDuration::from_millis(10);

/// Where a host's egress engine is between two runs of its step.
#[derive(Copy, Clone)]
enum EgressPhase {
    /// Waiting for the next posted message.
    Idle,
    /// Sitting out an injected NIC stall before the first attempt.
    Stalled,
    /// Backed off after a dropped attempt; `attempt` is the next one.
    Backoff { attempt: u32 },
    /// Serializing the message onto the uplink.
    OnWire,
}

/// One host's egress engine: the step state the scheduler calls
/// [`Fabric::egress_step`] with.
pub(crate) struct Egress {
    src: HostId,
    phase: EgressPhase,
    /// The message every phase but `Idle` works on, held in place.
    msg: Option<Message>,
    /// Its sequence number in its query's stream (fault plan only).
    seq: u64,
    /// Per-query message sequence counters (the root lane is query 0),
    /// kept only when a fault plan is installed, the one reader. Each
    /// query advances its own stream, so its fault schedule is a pure
    /// function of `(seed, QueryId)` and admitting another query never
    /// perturbs it.
    seqs: BTreeMap<u32, u64>,
}

impl Egress {
    /// The held message.
    fn msg(&self) -> &Message {
        self.msg
            .as_ref()
            .expect("a busy egress engine holds a message")
    }

    /// Release the held message and go idle.
    fn release(&mut self) -> Message {
        self.phase = EgressPhase::Idle;
        self.msg
            .take()
            .expect("a busy egress engine holds a message")
    }
}

/// Where a host's ingress engine is between two runs of its step.
#[derive(Copy, Clone)]
enum IngressPhase {
    /// Waiting for the next arriving message.
    Idle,
    /// Waiting for the message's arrival instant.
    Arriving,
    /// Serializing the message off the downlink.
    OnWire,
    /// Waiting for a posted receive buffer on `srq_lane` (RNR).
    Srq,
}

/// One host's ingress engine: the step state the scheduler calls
/// [`Fabric::ingress_step`] with.
pub(crate) struct Ingress {
    host: HostId,
    phase: IngressPhase,
    /// The message every phase but `Idle` works on, held in place.
    msg: Option<Message>,
    /// The receive lane an `Srq` wait is for: held across the park, so a
    /// lane unregistered meanwhile still gets its delivery or flush.
    srq_lane: Option<Arc<Nic>>,
}

/// What one transmission attempt decided.
enum Attempt {
    /// Not dropped: serialize it.
    Send,
    /// Dropped: back off this long, then try attempt `next`.
    Retry { backoff: SimDuration, next: u32 },
    /// Dropped for good: complete the message with this error.
    Fail(WcStatus),
}

/// A host link's serialization time as a function of message size,
/// precomputed per fabric: every size up to `floor_bytes` costs the
/// message-rate floor, so the engines' per-message charge is one compare
/// for small messages. Equal to [`crate::FabricConfig::wire_seconds`]
/// rounded to the nanosecond for every size.
#[derive(Copy, Clone, Debug)]
pub(crate) struct WireTime {
    floor_bytes: usize,
    floor: SimDuration,
    /// Propagation latency added to every message's arrival.
    latency: SimDuration,
}

impl WireTime {
    pub(crate) fn new(cfg: &FabricConfig, hosts: usize) -> WireTime {
        let floor_secs = cfg.wire_seconds(0, hosts);
        // `wire_seconds` is `max(bytes / bandwidth, floor)`, monotone in
        // `bytes`: find the last size that still costs the floor.
        let (mut lo, mut hi) = (0usize, 1usize << 40);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if cfg.wire_seconds(mid, hosts) <= floor_secs {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        WireTime {
            floor_bytes: lo,
            floor: SimDuration::from_secs_f64(floor_secs),
            latency: SimDuration::from_secs_f64(cfg.latency),
        }
    }
}

impl Fabric {
    /// Start every host's egress and ingress engine (plus the fault-plan
    /// crash timers when a plan is installed), each a step slot of the
    /// simulation. Accepts either a [`rsj_sim::Simulation`] (before
    /// `run`) or a [`SimCtx`] (from inside the simulation) via
    /// [`Spawner`].
    pub fn launch(self: &Arc<Self>, spawner: &impl Spawner) {
        assert!(!self.launched.replace(true), "fabric launched twice");
        for h in 0..self.hosts() {
            let fabric = Arc::clone(self);
            let mut egress = Egress {
                src: HostId(h),
                phase: EgressPhase::Idle,
                msg: None,
                seq: 0,
                seqs: BTreeMap::new(),
            };
            spawner.spawn_steps(format!("nic-tx-{h}"), move |ctx| {
                fabric.egress_step(ctx, &mut egress)
            });
            let fabric = Arc::clone(self);
            let mut ingress = Ingress {
                host: HostId(h),
                phase: IngressPhase::Idle,
                msg: None,
                srq_lane: None,
            };
            spawner.spawn_steps(format!("nic-rx-{h}"), move |ctx| {
                fabric.ingress_step(ctx, &mut ingress)
            });
        }
        // Crash timers: fail-stop the scheduled hosts at their instants.
        if let Some(plan) = self.faults.plan() {
            for crash in plan.crashes.clone() {
                let fabric = Arc::clone(self);
                let mut due = false;
                spawner.spawn_steps(format!("fault-crash-{}", crash.host.0), move |ctx| {
                    if !std::mem::replace(&mut due, true) {
                        return Step::sleep_until(ctx, crash.at);
                    }
                    fabric.crash_host(ctx, crash.host);
                    Step::Exit
                });
            }
        }
    }

    /// Stop accepting traffic: closes every egress queue, letting the
    /// engines drain in-flight messages and terminate. On a view this is
    /// a no-op — one query retiring never tears down the shared fabric
    /// (that is [`Fabric::close_view`]'s job).
    pub fn shutdown(&self, ctx: &SimCtx) {
        if self.root.is_some() {
            return;
        }
        for nic in &self.nics {
            nic.tx.close(ctx);
        }
    }

    /// Serialization time of one `bytes`-long message on a host link.
    fn wire_time(&self, bytes: usize) -> SimDuration {
        if bytes <= self.wire.floor_bytes {
            return self.wire.floor;
        }
        SimDuration::from_secs_f64(self.cfg.wire_seconds(bytes, self.hosts()))
    }

    /// Run a host's egress engine up to its next yield point: take the
    /// next posted message off the host's queue, sit out stalls and
    /// retransmission backoff, charge the uplink, and hand the message to
    /// the destination's ingress queue. The last engine to see its queue
    /// close closes every ingress queue.
    fn egress_step(&self, ctx: &SimCtx, eng: &mut Egress) -> Step {
        let src = eng.src;
        loop {
            let attempt = match eng.phase {
                EgressPhase::Idle => {
                    let msg = match self.nics[src.0].tx.poll_recv(ctx) {
                        Poll::Ready(Some(msg)) => msg,
                        Poll::Ready(None) => {
                            self.live_tx.set(self.live_tx.get() - 1);
                            if self.live_tx.get() == 0 {
                                for q in &self.rx_queues {
                                    q.close(ctx);
                                }
                            }
                            return Step::Exit;
                        }
                        Poll::Pending => return Step::Park,
                    };
                    if self.faults.plan().is_some() {
                        let seq = eng.seqs.entry(msg.query.0).or_insert(0);
                        *seq += 1;
                        eng.seq = *seq;
                    }
                    self.faults.note_progress();
                    if self.faults.must_flush(msg.query, src) {
                        self.flush_message(ctx, msg, WcStatus::Flushed);
                        continue;
                    }
                    // A live host carrying traffic renews its failure-detector
                    // lease (flushed messages above do not: a dead host's
                    // engine draining its queue is not liveness).
                    self.faults.note_activity(src, ctx.now());
                    eng.msg = Some(msg);
                    let Some(plan) = self.faults.plan() else {
                        return self.transmit(eng);
                    };
                    if let Some(end) = plan.stall_end(src, ctx.now()) {
                        eng.phase = EgressPhase::Stalled;
                        return Step::sleep_until(ctx, end);
                    }
                    0
                }
                EgressPhase::Stalled => 0,
                EgressPhase::Backoff { attempt } => {
                    if self.faults.must_flush(eng.msg().query, src) {
                        let msg = eng.release();
                        self.flush_message(ctx, msg, WcStatus::Flushed);
                        continue;
                    }
                    attempt
                }
                EgressPhase::OnWire => {
                    let mut msg = eng.release();
                    msg.arrival = ctx.now() + self.wire.latency;
                    if let Some(plan) = self.faults.plan() {
                        let seed = plan.stream_seed(msg.query);
                        msg.arrival += plan.extra_delay_seeded(seed, src, msg.dst, eng.seq);
                    }
                    self.rx_queues[msg.dst.0].send(ctx, msg);
                    continue;
                }
            };
            // A fault plan is installed: attempt `attempt` may be dropped.
            match self.attempt(ctx, eng.msg(), eng.seq, attempt) {
                Attempt::Send => return self.transmit(eng),
                Attempt::Retry { backoff, next } => {
                    eng.phase = EgressPhase::Backoff { attempt: next };
                    return Step::Advance(backoff);
                }
                Attempt::Fail(status) => {
                    let msg = eng.release();
                    if status == WcStatus::RetryExceeded {
                        self.faults.set_qp_error(src, msg.dst);
                    }
                    self.flush_message(ctx, msg, status);
                }
            }
        }
    }

    /// Put the held message on the uplink: charge its serialization time.
    fn transmit(&self, eng: &mut Egress) -> Step {
        let wire = self.wire_time(eng.msg().payload.len());
        self.nics[eng.src.0].stats.borrow_mut().tx_busy_ns += wire.as_nanos();
        eng.phase = EgressPhase::OnWire;
        Step::Advance(wire)
    }

    /// IB RC retransmission at the head of the egress queue, one attempt
    /// at a time: a dropped attempt charges exponential backoff in virtual
    /// time before the next, up to [`MAX_RETRIES`] retransmissions.
    fn attempt(&self, ctx: &SimCtx, msg: &Message, seq: u64, attempt: u32) -> Attempt {
        let plan = self
            .faults
            .plan()
            .expect("retransmission needs a fault plan");
        let (src, dst) = (msg.src, msg.dst);
        let seed = plan.stream_seed(msg.query);
        let dropped = self.faults.is_crashed(dst)
            || plan.attempt_drops_seeded(seed, src, dst, seq, attempt, ctx.now());
        if !dropped {
            return Attempt::Send;
        }
        let next = attempt + 1;
        self.faults.note_progress();
        self.nics[src.0].stats.borrow_mut().retransmits += 1;
        if next > MAX_RETRIES {
            return Attempt::Fail(WcStatus::RetryExceeded);
        }
        Attempt::Retry {
            backoff: capped_backoff(RETRY_BACKOFF_BASE, RETRY_BACKOFF_MAX, next),
            next,
        }
    }

    /// Run a host's ingress engine up to its next yield point: take the
    /// next message off the host's ingress queue, wait for its arrival,
    /// charge the downlink, and place it — an SRQ buffer and a receive
    /// completion for two-sided traffic (waiting for a reposted buffer if
    /// none is free), a direct MR write or read for one-sided. Retires the
    /// host's receive side once the queue closes.
    fn ingress_step(&self, ctx: &SimCtx, eng: &mut Ingress) -> Step {
        let host = eng.host;
        let nic = &self.nics[host.0];
        loop {
            match eng.phase {
                IngressPhase::Idle => {
                    let msg = match self.rx_queues[host.0].poll_recv(ctx) {
                        Poll::Ready(Some(msg)) => msg,
                        Poll::Ready(None) => {
                            nic.retire(ctx, false);
                            return Step::Exit;
                        }
                        Poll::Pending => return Step::Park,
                    };
                    self.faults.note_progress();
                    if self.faults.must_flush(msg.query, host) {
                        self.flush_message(ctx, msg, WcStatus::Flushed);
                        continue;
                    }
                    self.faults.note_activity(host, ctx.now());
                    let arrival = msg.arrival;
                    eng.msg = Some(msg);
                    eng.phase = IngressPhase::Arriving;
                    return Step::sleep_until(ctx, arrival);
                }
                IngressPhase::Arriving => {
                    let held = eng.msg.as_ref().expect("an arriving message");
                    let wire = self.wire_time(held.payload.len());
                    nic.stats.borrow_mut().rx_busy_ns += wire.as_nanos();
                    eng.phase = IngressPhase::OnWire;
                    return Step::Advance(wire);
                }
                IngressPhase::OnWire => {
                    eng.phase = IngressPhase::Idle;
                    let msg = eng.msg.take().expect("a message on the wire");
                    // The wire charge is a yield point: a crash or abort may
                    // have landed meanwhile, and the receive queue may be
                    // closed.
                    if self.faults.must_flush(msg.query, host) {
                        self.flush_message(ctx, msg, WcStatus::Flushed);
                        continue;
                    }
                    nic.count_rx(msg.payload.len());
                    if !matches!(msg.kind, MsgKind::TwoSided { .. }) {
                        self.place_one_sided(ctx, host, msg);
                        continue;
                    }
                    // Resolve the receive lane: the base NIC for direct
                    // traffic, the query's registered lane otherwise. An
                    // unresolvable lane means the query already retired or
                    // aborted — flush cleanly.
                    let lanes;
                    let lane = if msg.query == QueryId::DIRECT {
                        nic
                    } else {
                        lanes = self.lanes[host.0].borrow();
                        match lanes.get(&msg.query.0) {
                            Some(lane) => lane,
                            None => {
                                self.flush_message(ctx, msg, WcStatus::Flushed);
                                continue;
                            }
                        }
                    };
                    // Consume a posted receive buffer; waits (RNR) if the
                    // application is not reposting. An empty SRQ with an
                    // empty CQ means the application holds every slot:
                    // a contract violation (§4.2.2), not backpressure.
                    if lane.srq.available() == 0 && lane.recv_cq.is_empty() {
                        let slots = self.cfg.srq_slots;
                        self.validator.report(Violation::SrqExhausted {
                            host,
                            held: slots,
                            slots,
                        });
                    }
                    match lane.srq.try_acquire_checked(ctx) {
                        Poll::Ready(acquired) => {
                            self.place_two_sided(ctx, host, lane, msg, acquired.is_ok());
                        }
                        Poll::Pending => {
                            eng.srq_lane = Some(Arc::clone(lane));
                            eng.msg = Some(msg);
                            eng.phase = IngressPhase::Srq;
                            return Step::Park;
                        }
                    }
                }
                IngressPhase::Srq => {
                    let lane = eng.srq_lane.as_ref().expect("an SRQ wait holds its lane");
                    let Poll::Ready(acquired) = lane.srq.try_acquire_checked(ctx) else {
                        return Step::Park;
                    };
                    let lane = eng.srq_lane.take().expect("an SRQ wait holds its lane");
                    let msg = eng.msg.take().expect("an SRQ wait holds its message");
                    eng.phase = IngressPhase::Idle;
                    self.place_two_sided(ctx, host, &lane, msg, acquired.is_ok());
                }
            }
        }
    }

    /// Deliver a two-sided message into `lane`'s receive queue, once the
    /// SRQ wait ended (`acquired` false: the SRQ was poisoned).
    fn place_two_sided(
        &self,
        ctx: &SimCtx,
        host: HostId,
        lane: &Nic,
        msg: Message,
        acquired: bool,
    ) {
        // The SRQ wait may have been a yield point — re-check before
        // touching the CQ (no further yield between this check and the
        // send, so the lane channel cannot close in between).
        if !acquired || self.faults.must_flush(msg.query, host) {
            self.flush_message(ctx, msg, WcStatus::Flushed);
            return;
        }
        let MsgKind::TwoSided { tag } = msg.kind else {
            unreachable!("a two-sided placement of a one-sided message");
        };
        let bytes = msg.payload.len();
        lane.lane_progress.set(lane.lane_progress.get() + 1);
        if msg.query != QueryId::DIRECT {
            lane.count_rx(bytes);
        }
        lane.recv_cq.send(
            ctx,
            Completion {
                src: msg.src,
                tag,
                payload: msg.payload,
            },
        );
        complete_delivery(ctx, msg.completion, msg.window);
    }

    /// Place a one-sided message on `host`: a WRITE lands in the MR, a
    /// READ request is served from it back onto `host`'s egress, a READ
    /// response completes the initiator's read.
    fn place_one_sided(&self, ctx: &SimCtx, host: HostId, msg: Message) {
        let nic = &self.nics[host.0];
        let bytes = msg.payload.len();
        match msg.kind {
            MsgKind::TwoSided { .. } => unreachable!("a one-sided placement of a SEND"),
            MsgKind::OneSided { mr, offset } => {
                nic.mrs.with(mr, |r| r.dma_write(offset, &msg.payload));
                // Query-scoped writes land on the shared region, but the
                // traffic belongs to the query's lane report.
                self.credit_lane(host, msg.query, bytes, None);
            }
            MsgKind::ReadRequest {
                mr,
                offset,
                len,
                reply,
            } => {
                // The *responder's* NIC streams the data back, in the
                // requester's landing buffer the request brought: enqueue
                // the response on this host's egress.
                let mut data = msg.payload;
                nic.mrs.with(mr, |r| r.dma_read(offset, len, &mut data));
                nic.count_tx(data.len());
                // Both sides of the responder's involvement: the request
                // arrival and the response bytes served.
                self.credit_lane(host, msg.query, bytes, Some(data.len()));
                let kind = MsgKind::ReadResponse { reply };
                nic.tx
                    .send(ctx, Message::new(host, msg.src, msg.query, kind, data));
            }
            MsgKind::ReadResponse { reply } => {
                // Requester side of a READ: the fetched bytes count against
                // the query's lane, as two-sided receives do.
                self.credit_lane(host, msg.query, bytes, None);
                reply.complete_read(ctx, msg.payload);
            }
        }
        complete_delivery(ctx, msg.completion, msg.window);
    }

    /// Flush a message without delivering it: error completion to the
    /// poster, window permit returned, read reply failed. This is how
    /// aborts, crashes and retry exhaustion keep every waiter unblocked.
    fn flush_message(&self, ctx: &SimCtx, msg: Message, status: WcStatus) {
        match msg.kind {
            MsgKind::ReadRequest { reply, .. } | MsgKind::ReadResponse { reply } => {
                reply.complete(ctx, status);
            }
            MsgKind::TwoSided { .. } | MsgKind::OneSided { .. } => {}
        }
        if let Some(send) = msg.completion {
            send.complete(ctx, status);
            self.nics[msg.src.0].stats.borrow_mut().wc_errors += 1;
        }
        if let Some(w) = msg.window {
            w.release(ctx);
        }
    }

    /// Credit one arriving message of `rx` bytes — and, when the host
    /// *serves* a READ, the `tx` response bytes streamed out — to the
    /// query's lane NIC on `host`, so a query-scoped [`crate::NicStats`]
    /// accounts one-sided traffic exactly like the direct path's base NIC
    /// does, byte for byte. No-op for direct traffic or a lane already
    /// retired.
    fn credit_lane(&self, host: HostId, query: QueryId, rx: usize, tx: Option<usize>) {
        if query == QueryId::DIRECT {
            return;
        }
        if let Some(lane) = self.lanes[host.0].borrow().get(&query.0) {
            lane.count_rx(rx);
            if let Some(tx) = tx {
                lane.count_tx(tx);
            }
        }
    }
}

/// A delivered message's poster-side completions: the send completion
/// fires with success and the flow-control window gets its permit back.
fn complete_delivery(ctx: &SimCtx, completion: Option<Wc>, window: Option<Arc<SimSemaphore>>) {
    if let Some(send) = completion {
        send.complete(ctx, WcStatus::Success);
    }
    if let Some(w) = window {
        w.release(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NicCosts;

    #[test]
    fn the_precomputed_wire_time_is_the_configured_one_at_every_size() {
        for cfg in [
            FabricConfig::qdr(),
            FabricConfig::fdr(),
            FabricConfig::ipoib(),
        ] {
            for hosts in [1, 2, 4, 10] {
                let fabric = Fabric::new(cfg, NicCosts::default(), hosts);
                let floor = fabric.wire.floor_bytes;
                let sizes = (0..4096).chain([floor, floor + 1, 65_536, 1 << 20, 1 << 30]);
                for bytes in sizes {
                    let want = SimDuration::from_secs_f64(cfg.wire_seconds(bytes, hosts));
                    assert_eq!(fabric.wire_time(bytes), want, "{bytes} B on {hosts} hosts");
                }
                assert!(
                    cfg.wire_seconds(floor + 1, hosts) > cfg.wire_seconds(floor, hosts),
                    "the floor ends at {floor} B"
                );
            }
        }
    }
}
