//! The switch and the links: how a posted [`Message`] crosses the rack.
//!
//! Topology matches the paper's clusters (§6.3): every machine connects to
//! a single switch. Each host's NIC is driven by two simulated engine
//! threads:
//!
//! * the **egress engine** serializes outgoing messages onto the host's
//!   uplink (`max(bytes/bandwidth, 1/msg_rate)` per message), then forwards
//!   them to the destination with the propagation latency added;
//! * the **ingress engine** serializes arriving messages off the downlink
//!   (creating incast contention when many hosts target one receiver),
//!   performs the memory placement (SRQ buffer for two-sided, direct MR
//!   write for one-sided), and fires completion events.
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
//! With a [`FaultPlan`] installed (DESIGN.md §8) the egress engine
//! consults the plan per transmission and models IB RC retransmission — a
//! dropped attempt is retried after exponential RNR-style backoff, paid in
//! virtual time at the head of the egress queue (go-back-N, so per-source
//! FIFO order is preserved). A message that exhausts the retry counter
//! completes with [`WcStatus::RetryExceeded`] and moves its queue pair to
//! the error state; later posts on that pair flush immediately. Crashed
//! hosts flush everything they touch. With no plan installed none of these
//! branches are taken and the event schedule is identical to the
//! pre-fault-plane fabric.

use std::collections::HashMap;
use std::sync::Arc;

use rsj_sim::{SimCtx, SimDuration, SimSemaphore, SimTime};

use crate::config::{HostId, QueryId};
use crate::fabric::{Fabric, Spawner};
use crate::fault::{capped_backoff, FaultPlan, WcStatus};
use crate::nic::{Completion, Nic, WorkCompletion};

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
        reply: Arc<WorkCompletion>,
    },
    /// The data leg of an RDMA READ, travelling back to the initiator.
    ReadResponse {
        reply: Arc<WorkCompletion>,
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
    pub(crate) completion: Option<Arc<WorkCompletion>>,
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

impl Fabric {
    /// Spawn the egress and ingress engine threads for every host (plus
    /// the fault-plan timers when a plan is installed). Accepts either a
    /// [`rsj_sim::Simulation`] (before `run`) or a [`SimCtx`] (from inside
    /// the simulation) via [`Spawner`].
    pub fn launch(self: &Arc<Self>, spawner: &impl Spawner) {
        assert!(!self.launched.replace(true), "fabric launched twice");
        for h in 0..self.hosts() {
            let fabric = Arc::clone(self);
            spawner.spawn_task(format!("nic-tx-{h}"), move |ctx| {
                fabric.egress_engine(ctx, HostId(h));
            });
            let fabric = Arc::clone(self);
            spawner.spawn_task(format!("nic-rx-{h}"), move |ctx| {
                fabric.ingress_engine(ctx, HostId(h));
            });
        }
        // Crash timers: fail-stop the scheduled hosts at their instants.
        if let Some(plan) = self.faults.plan() {
            for crash in plan.crashes.clone() {
                let fabric = Arc::clone(self);
                spawner.spawn_task(format!("fault-crash-{}", crash.host.0), move |ctx| {
                    ctx.sleep_until(crash.at);
                    fabric.crash_host(ctx, crash.host);
                });
            }
        }
    }

    /// Stop accepting traffic: closes every egress queue, letting the
    /// engine threads drain in-flight messages and terminate. On a view
    /// this is a no-op — one query retiring never tears down the shared
    /// fabric (that is [`Fabric::close_view`]'s job).
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
        SimDuration::from_secs_f64(self.cfg.wire_seconds(bytes, self.hosts()))
    }

    fn egress_engine(&self, ctx: &SimCtx, src: HostId) {
        let nic = &self.nics[src.0];
        // Per-query message sequence counters (the root lane is query 0).
        // Each query advances its own stream, so its fault schedule is a
        // pure function of `(seed, QueryId)` and admitting another query
        // never perturbs it.
        let mut next_seq: HashMap<u32, u64> = HashMap::new();
        while let Some(mut msg) = nic.tx.recv(ctx) {
            let seq = next_seq.entry(msg.query.0).or_insert(0);
            *seq += 1;
            let seq = *seq;
            self.faults.note_progress();
            if self.faults.must_flush(msg.query, src) {
                self.flush_message(ctx, msg, WcStatus::Flushed);
                continue;
            }
            // A live host carrying traffic renews its failure-detector
            // lease (flushed messages above do not: a dead host's engine
            // draining its queue is not liveness).
            self.faults.note_activity(src, ctx.now());
            if let Some(plan) = self.faults.plan() {
                if let Some(end) = plan.stall_end(src, ctx.now()) {
                    ctx.sleep_until(end);
                }
                if let Some(status) = self.retransmit(ctx, plan, &msg, seq) {
                    if status == WcStatus::RetryExceeded {
                        self.faults.set_qp_error(src, msg.dst);
                    }
                    self.flush_message(ctx, msg, status);
                    continue;
                }
            }
            let wire = self.wire_time(msg.payload.len());
            nic.stats.borrow_mut().tx_busy_ns += wire.as_nanos();
            ctx.advance(wire);
            msg.arrival = ctx.now() + SimDuration::from_secs_f64(self.cfg.latency);
            if let Some(plan) = self.faults.plan() {
                let seed = plan.stream_seed(msg.query);
                msg.arrival += plan.extra_delay_seeded(seed, src, msg.dst, seq);
            }
            let dst = msg.dst.0;
            assert!(dst < self.hosts(), "send to unknown host {dst}");
            self.rx_queues[dst].send(ctx, msg);
        }
        // Last egress engine standing closes all ingress queues.
        self.live_tx.set(self.live_tx.get() - 1);
        if self.live_tx.get() == 0 {
            for q in &self.rx_queues {
                q.close(ctx);
            }
        }
    }

    /// IB RC retransmission at the head of the egress queue: each dropped
    /// attempt charges exponential backoff in virtual time, then retries,
    /// up to [`MAX_RETRIES`] times. Returns the terminal error status if
    /// the message cannot be sent.
    fn retransmit(
        &self,
        ctx: &SimCtx,
        plan: &FaultPlan,
        msg: &Message,
        seq: u64,
    ) -> Option<WcStatus> {
        let (src, dst) = (msg.src, msg.dst);
        let seed = plan.stream_seed(msg.query);
        let mut attempt: u32 = 0;
        loop {
            let dropped = self.faults.is_crashed(dst)
                || plan.attempt_drops_seeded(seed, src, dst, seq, attempt, ctx.now());
            if !dropped {
                return None;
            }
            attempt += 1;
            self.faults.note_progress();
            self.nics[src.0].stats.borrow_mut().retransmits += 1;
            if attempt > MAX_RETRIES {
                return Some(WcStatus::RetryExceeded);
            }
            ctx.advance(capped_backoff(
                RETRY_BACKOFF_BASE,
                RETRY_BACKOFF_MAX,
                attempt,
            ));
            if self.faults.must_flush(msg.query, src) {
                return Some(WcStatus::Flushed);
            }
        }
    }

    fn ingress_engine(&self, ctx: &SimCtx, host: HostId) {
        let nic = &self.nics[host.0];
        let rx = &self.rx_queues[host.0];
        while let Some(msg) = rx.recv(ctx) {
            self.faults.note_progress();
            if self.faults.must_flush(msg.query, host) {
                self.flush_message(ctx, msg, WcStatus::Flushed);
                continue;
            }
            self.faults.note_activity(host, ctx.now());
            ctx.sleep_until(msg.arrival);
            let bytes = msg.payload.len();
            let wire = self.wire_time(bytes);
            nic.stats.borrow_mut().rx_busy_ns += wire.as_nanos();
            ctx.advance(wire);
            // The wire charge is a yield point: a crash or abort may have
            // landed meanwhile, and the receive queue may be closed.
            if self.faults.must_flush(msg.query, host) {
                self.flush_message(ctx, msg, WcStatus::Flushed);
                continue;
            }
            nic.count_rx(bytes);
            match msg.kind {
                MsgKind::TwoSided { tag } => {
                    // Resolve the receive lane: the base NIC for direct
                    // traffic, the query's registered lane otherwise. An
                    // unresolvable lane means the query already retired
                    // or aborted — flush cleanly.
                    let lane = if msg.query == QueryId::DIRECT {
                        Some(Arc::clone(nic))
                    } else {
                        self.lane(host, msg.query)
                    };
                    let Some(lane) = lane else {
                        self.flush_message(ctx, msg, WcStatus::Flushed);
                        continue;
                    };
                    // Consume a posted receive buffer; blocks (RNR) if the
                    // application is not reposting. If every slot is
                    // application-held, that's a contract violation
                    // (§4.2.2), not backpressure.
                    if lane.srq.available() == 0 {
                        self.validator
                            .srq_blocked(host, self.cfg.srq_slots, msg.query);
                    }
                    let acquired = lane.srq.acquire_checked(ctx).is_ok();
                    // Another yield point — re-check before touching the
                    // CQ (no further yield between this check and the
                    // send, so the lane channel cannot close in between).
                    if !acquired || self.faults.must_flush(msg.query, host) {
                        self.flush_message(ctx, msg, WcStatus::Flushed);
                        continue;
                    }
                    self.validator.on_rx_delivered(host, msg.query);
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
                }
                MsgKind::OneSided { mr, offset } => {
                    nic.mrs.get(mr).dma_write(offset, &msg.payload);
                    // Query-scoped writes land on the shared region, but
                    // the traffic belongs to the query's lane report.
                    self.credit_lane(host, msg.query, bytes, None);
                }
                MsgKind::ReadRequest {
                    mr,
                    offset,
                    len,
                    reply,
                } => {
                    // The *responder's* NIC streams the data back:
                    // enqueue the response on this host's egress.
                    let data = nic.mrs.get(mr).dma_read(offset, len);
                    nic.count_tx(data.len());
                    // Both sides of the responder's involvement: the
                    // request arrival and the response bytes served.
                    self.credit_lane(host, msg.query, bytes, Some(data.len()));
                    let kind = MsgKind::ReadResponse { reply };
                    nic.tx
                        .send(ctx, Message::new(host, msg.src, msg.query, kind, data));
                }
                MsgKind::ReadResponse { reply } => {
                    // Requester side of a READ: the fetched bytes count
                    // against the query's lane, as two-sided receives do.
                    self.credit_lane(host, msg.query, bytes, None);
                    reply.complete_read(ctx, msg.payload);
                }
            }
            if let Some(send) = msg.completion {
                send.complete(ctx, WcStatus::Success);
            }
            if let Some(w) = msg.window {
                w.release(ctx);
            }
        }
        nic.retire(ctx, false);
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
        if let Some(lane) = self.lane(host, query) {
            lane.count_rx(rx);
            if let Some(tx) = tx {
                lane.count_tx(tx);
            }
        }
    }

    /// `query`'s registered receive lane on `host` (`None` once retired).
    fn lane(&self, host: HostId, query: QueryId) -> Option<Arc<Nic>> {
        self.lanes[host.0].borrow().get(&query.0).cloned()
    }
}
