//! The exchange layer: the wire protocol of a partitioned stream, under the
//! radix join and every §7 operator (DESIGN.md §14). Three byte-level
//! pieces behind one [`Exchange`] endpoint, which attributes every failure
//! to its machine and phase: [`Exchange::all_to_all`], the
//! [`Exchange::recv_stream`] receive loop and the [`Scatter`] sender.
//! Payloads are bytes under a [`WireTag`]; tuple encoding, per-tuple meter
//! charges and *how one full buffer is posted* (the post step) stay with
//! the caller, so transports never reach this crate.

use std::sync::Arc;

use rsj_rdma::{BufferPool, Completion, Fabric, FabricError, HostId, Nic, SendHandle, SendWindow};
use rsj_sim::SimCtx;

use crate::wire::{check_partition_count, TagError, WireTag};
use crate::{JoinError, Meter};

/// One machine's endpoint of the exchanges of one phase.
pub struct Exchange {
    nic: Arc<Nic>,
    mach: usize,
    machines: usize,
    phase: &'static str,
}

impl Exchange {
    /// Machine `mach`'s endpoint on `fabric`; errors will name `phase`.
    pub fn new(fabric: &Fabric, mach: usize, phase: &'static str) -> Exchange {
        Exchange {
            nic: fabric.nic(HostId(mach)),
            mach,
            machines: fabric.hosts(),
            phase,
        }
    }

    /// Every machine but this one, ascending.
    pub fn peers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.machines).filter(move |&d| d != self.mach)
    }

    /// Attribute a fabric completion error to this machine and phase.
    pub fn fabric_err(&self, e: FabricError) -> JoinError {
        JoinError::fabric(self.mach, self.phase, e)
    }

    /// A well-formed tag this exchange does not expect.
    fn stray(&self, raw: u32) -> JoinError {
        JoinError::decode(self.mach, self.phase, TagError::unexpected(raw))
    }

    fn recv_one(&self, ctx: &SimCtx) -> Result<(WireTag, Completion), JoinError> {
        let c = self
            .nic
            .recv(ctx)
            .map_err(|e| self.fabric_err(e))?
            .ok_or(JoinError::aborted(self.phase))?;
        let tag =
            WireTag::decode(c.tag).map_err(|e| JoinError::decode(self.mach, self.phase, e))?;
        Ok((tag, c))
    }

    fn post_all(
        &self,
        ctx: &SimCtx,
        tag: WireTag,
        dsts: impl IntoIterator<Item = usize>,
        payload: &[u8],
    ) -> Vec<SendHandle> {
        let (nic, tag) = (&self.nic, tag.encode());
        dsts.into_iter()
            .map(|d| nic.post_send(ctx, HostId(d), tag, payload.to_vec()))
            .collect()
    }

    fn wait_all(&self, ctx: &SimCtx, sends: Vec<SendHandle>) -> Result<(), JoinError> {
        for ev in sends {
            ev.wait(ctx).map_err(|e| self.fabric_err(e))?;
        }
        Ok(())
    }

    /// Send `payload` under `tag` to every machine in `dsts`, then receive
    /// exactly as many `tag` messages, handing each `(source, payload)` to
    /// `on_msg` once its receive slot is reposted, before the sends are
    /// waited for. The caller settles its meter first.
    pub fn all_to_all(
        &self,
        ctx: &SimCtx,
        tag: WireTag,
        dsts: impl IntoIterator<Item = usize>,
        payload: &[u8],
        mut on_msg: impl FnMut(usize, Vec<u8>),
    ) -> Result<(), JoinError> {
        let sends = self.post_all(ctx, tag, dsts, payload);
        for _ in 0..sends.len() {
            let (got, c) = self.recv_one(ctx)?;
            if got != tag {
                return Err(self.stray(c.tag));
            }
            self.nic.repost_recv(ctx);
            on_msg(c.src.0, c.payload);
        }
        self.wait_all(ctx, sends)
    }

    /// The receive loop of a partitioned stream: returns after `senders`
    /// `Eos` markers from each peer. Every `Data`/`Result` message goes to
    /// `on_msg`, which charges the copy and returns `false` for a tag its
    /// stream does not carry; that, or a `Histogram`, ends the loop with a
    /// typed [`JoinError::Decode`]. The meter is settled before each repost.
    pub fn recv_stream(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        senders: usize,
        mut on_msg: impl FnMut(&mut Meter, WireTag, Vec<u8>) -> bool,
    ) -> Result<(), JoinError> {
        let expected = (self.machines - 1) * senders;
        let mut eos = 0;
        while eos < expected {
            let (tag, c) = self.recv_one(ctx)?;
            let is_eos = tag == WireTag::Eos;
            eos += usize::from(is_eos);
            if !is_eos && (tag == WireTag::Histogram || !on_msg(meter, tag, c.payload)) {
                return Err(self.stray(c.tag));
            }
            meter.flush(ctx);
            self.nic.repost_recv(ctx);
        }
        meter.flush(ctx);
        Ok(())
    }

    /// Tell every machine in `dsts` that one sender's stream has ended.
    pub fn send_eos(
        &self,
        ctx: &SimCtx,
        dsts: impl IntoIterator<Item = usize>,
    ) -> Result<(), JoinError> {
        self.wait_all(ctx, self.post_all(ctx, WireTag::Eos, dsts, &[]))
    }

    /// The standard post step: settle the meter, wait for a free window
    /// slot, post a two-sided SEND and leave it in flight.
    pub fn send(&self, ctx: &SimCtx, meter: &mut Meter, lane: &mut Lane, bytes: Vec<u8>) -> Posted {
        meter.flush(ctx);
        lane.window.admit(ctx).map_err(|e| self.fabric_err(e))?;
        let (dst, tag) = (HostId(lane.dst), lane.tag.encode());
        Ok(Some(self.nic.post_send(ctx, dst, tag, bytes)))
    }
}

/// What a post step returns: the send handle to leave the buffer in flight
/// under its lane's window, or `None` when the buffer is already reusable
/// (waited for, or copied by the kernel).
pub type Posted = Result<Option<SendHandle>, JoinError>;

/// The post step of [`Exchange::send`], as a nameable type.
pub type SendStep = fn(&Exchange, &SimCtx, &mut Meter, &mut Lane, Vec<u8>) -> Posted;

/// In-flight sends per `(thread, partition)` lane, over as many pool
/// buffers: the paper's double buffering (§4.2.1) — partitioning continues
/// into the second buffer while the first is on the wire.
pub const SEND_DEPTH: usize = 2;

/// One `(relation, partition)` stream of a [`Scatter`], as its post step
/// sees it.
pub struct Lane {
    /// Destination machine.
    pub dst: usize,
    /// The tag this lane's buffers travel under.
    pub tag: WireTag,
    /// The lane's send window: `admit` before a post that stays in flight
    /// (§4.2.1); the scatter records the handle the step returns.
    pub window: SendWindow,
    buf: Vec<u8>,
    /// Pool buffers this lane holds (at most the window depth).
    taken: usize,
}

/// The sending side of a partitioned stream: one lazily created [`Lane`]
/// per `(relation, partition)` (a `Result` stream has one), filled by
/// [`Scatter::push`] and handed to the post step `P` when full. `P` settles
/// the meter itself, so it can charge transport work first.
pub struct Scatter<'a, P> {
    ex: &'a Exchange,
    pool: &'a BufferPool,
    /// Relation-major: lane `rel * parts + part`.
    lanes: Vec<Option<Lane>>,
    step: P,
}

impl<'a, P> Scatter<'a, P>
where
    P: FnMut(&Exchange, &SimCtx, &mut Meter, &mut Lane, Vec<u8>) -> Posted,
{
    /// A sender into `parts` partitions per relation, each lane with up to
    /// [`SEND_DEPTH`] sends in flight over as many pool buffers. Fails with
    /// a typed error if a partition id could overflow the tag's 24-bit
    /// field.
    pub fn new(
        ex: &'a Exchange,
        pool: &'a BufferPool,
        parts: usize,
        step: P,
    ) -> Result<Scatter<'a, P>, JoinError> {
        check_partition_count(parts).map_err(|e| JoinError::decode(ex.mach, ex.phase, e))?;
        Ok(Scatter {
            ex,
            pool,
            lanes: (0..2 * parts).map(|_| None).collect(),
            step,
        })
    }

    /// Append one record (written by `write`) to the stream `tag` bound for
    /// `dst`, posting the buffer if another such record would not fit.
    #[inline]
    pub fn push(
        &mut self,
        ctx: &SimCtx,
        meter: &mut Meter,
        dst: usize,
        tag: WireTag,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), JoinError> {
        let i = match tag {
            WireTag::Data { rel, part } => rel * (self.lanes.len() / 2) + part,
            _ => 0,
        };
        let (ex, pool) = (self.ex, self.pool);
        let lane = self.lanes[i].get_or_insert_with(|| Lane {
            dst,
            tag,
            window: SendWindow::new(SEND_DEPTH, Arc::clone(ex.nic.validator())),
            buf: pool.take(ctx),
            taken: 1,
        });
        let before = lane.buf.len();
        if before == 0 {
            // The first record since the last post: allocate the whole
            // buffer now, once, so filling it never reallocates.
            lane.buf.reserve_exact(pool.buf_size());
        }
        write(&mut lane.buf);
        if 2 * lane.buf.len() - before > pool.buf_size() {
            self.post(ctx, meter, i, false)?;
        }
        Ok(())
    }

    /// Hand lane `i`'s buffer, if it holds anything, to the post step.
    fn post(
        &mut self,
        ctx: &SimCtx,
        meter: &mut Meter,
        i: usize,
        last: bool,
    ) -> Result<(), JoinError> {
        let Some(lane) = self.lanes[i].as_mut().filter(|l| !l.buf.is_empty()) else {
            return Ok(());
        };
        let bytes = std::mem::take(&mut lane.buf);
        if let Some(sent) = (self.step)(self.ex, ctx, meter, lane, bytes)? {
            lane.window.record(sent);
            // Still on the wire: the next records need another buffer, up
            // to the window depth (§4.2.1). Past that, `admit` has freed a
            // drawn one, and a refill is its logical reuse.
            if !last && lane.taken < SEND_DEPTH {
                lane.taken += 1;
                lane.buf = self.pool.take(ctx);
            }
        }
        Ok(())
    }

    /// Post every non-empty partial buffer now, leaving the windows open.
    pub fn flush(&mut self, ctx: &SimCtx, meter: &mut Meter) -> Result<(), JoinError> {
        (0..self.lanes.len()).try_for_each(|i| self.post(ctx, meter, i, true))
    }

    /// End the stream: per lane, post the final partial buffer, drain the
    /// window and return the buffers to the pool; then settle the meter
    /// and, if `eos`, tell every peer. Returns the seconds the lanes'
    /// windows stalled on the network.
    pub fn finish(mut self, ctx: &SimCtx, meter: &mut Meter, eos: bool) -> Result<f64, JoinError> {
        let mut stall = 0.0;
        for i in 0..self.lanes.len() {
            self.post(ctx, meter, i, true)?;
            if let Some(lane) = self.lanes[i].as_mut() {
                lane.window.drain(ctx).map_err(|e| self.ex.fabric_err(e))?;
                stall += lane.window.stall_seconds();
                for _ in 0..std::mem::take(&mut lane.taken) {
                    self.pool.put(Vec::new());
                }
            }
        }
        meter.flush(ctx);
        if eos {
            self.ex.send_eos(ctx, self.ex.peers())?;
        }
        Ok(stall)
    }
}

/// An abandoned stream (an error unwound the sender) still returns its
/// buffers, so an aborted run leaves the pool whole.
impl<P> Drop for Scatter<'_, P> {
    fn drop(&mut self) {
        for lane in self.lanes.iter().flatten() {
            for _ in 0..lane.taken {
                self.pool.put(Vec::new());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{MAX_PARTITIONS, REL_S};
    use crate::{phase, Runtime};
    use rsj_rdma::{FabricConfig, FaultPlan, HostCrash, NicCosts};
    use rsj_sim::SimTime;
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    const PHASE: &str = phase::NETWORK_PARTITION;
    const PARTS: usize = 8;
    /// 32 eight-byte records per buffer.
    const BUF: usize = 256;

    /// `(destination machine, rel, part)` → records, sorted before comparing.
    type Staged = BTreeMap<(usize, usize, usize), Vec<u64>>;

    /// What one partitioned stream over a small cluster left behind.
    struct Streamed {
        run: Result<(), JoinError>,
        /// Every worker's own result, before the closing barrier.
        workers: Vec<Result<(), JoinError>>,
        sent: Staged,
        got: Staged,
        /// Records each receiver held when its loop returned.
        at_return: Vec<usize>,
        outstanding: Vec<usize>,
        violations: u64,
    }

    /// Run one stream on `m` machines: core 0 of each receives, `senders`
    /// more cores each scatter `n` records round-robin over `(rel, part)`,
    /// partition `p` owned by machine `p % m`. `trip` runs in a sender
    /// after every record, to inject failures.
    fn stream(
        m: usize,
        senders: usize,
        n: usize,
        plan: Option<FaultPlan>,
        trip: impl Fn(&SimCtx, &Runtime, usize, usize) + 'static,
    ) -> Streamed {
        let cfg = FabricConfig::fdr();
        let rt = Runtime::new_with_plan(m, senders + 1, cfg, NicCosts::default(), plan);
        let pools: Arc<Vec<_>> = Arc::new(
            (0..m)
                .map(|i| rt.make_pool(i, 2 * 2 * PARTS * senders, BUF))
                .collect(),
        );
        let shared = Arc::new(RefCell::new((
            Staged::new(),
            Staged::new(),
            vec![0; m],
            Vec::new(),
        )));
        let (pools2, shared2) = (Arc::clone(&pools), Arc::clone(&shared));
        let run = rt.try_run(move |ctx, rt, mach, core| {
            let ex = Exchange::new(&rt.fabric, mach, PHASE);
            let mut meter = Meter::new();
            let streamed = if core == 0 {
                let mut held = 0;
                let done = ex.recv_stream(ctx, &mut meter, senders, |_, tag, bytes| match tag {
                    WireTag::Data { rel, part } if part % m == mach => {
                        let recs = bytes
                            .chunks(8)
                            .map(|c| u64::from_le_bytes(c.try_into().unwrap()));
                        let mut sh = shared2.borrow_mut();
                        let staged = sh.1.entry((mach, rel, part)).or_default();
                        staged.extend(recs);
                        held += bytes.len() / 8;
                        true
                    }
                    _ => false,
                });
                shared2.borrow_mut().2[mach] = held;
                done
            } else {
                (|| {
                    let pool = &pools2[mach];
                    let mut scatter = Scatter::new(&ex, pool, PARTS, Exchange::send)?;
                    for i in 0..n {
                        let (rel, part) = ((i / PARTS) % 2, i % PARTS);
                        let dst = part % m;
                        if dst != mach {
                            let rec = ((mach * 16 + core) as u64) << 32 | i as u64;
                            shared2
                                .borrow_mut()
                                .0
                                .entry((dst, rel, part))
                                .or_default()
                                .push(rec);
                            let tag = WireTag::Data { rel, part };
                            meter.charge_seconds(ctx, 1e-7);
                            scatter.push(ctx, &mut meter, dst, tag, |buf| {
                                buf.extend_from_slice(&rec.to_le_bytes())
                            })?;
                        }
                        trip(ctx, rt, mach * 16 + core, i);
                    }
                    scatter.finish(ctx, &mut meter, true).map(|_| ())
                })()
            };
            shared2.borrow_mut().3.push(streamed.clone());
            streamed?;
            rt.try_sync_named(ctx, PHASE, mach).map(|_| ())
        });
        let (mut sent, mut got, at_return, workers) = shared.take();
        sent.values_mut()
            .chain(got.values_mut())
            .for_each(|v| v.sort_unstable());
        Streamed {
            run: run.map(|_| ()),
            workers,
            sent,
            got,
            at_return,
            outstanding: pools.iter().map(|p| p.outstanding()).collect(),
            violations: rt.fabric.validator().violation_count(),
        }
    }

    #[test]
    fn every_pushed_byte_arrives_exactly_once_under_its_tag() {
        let s = stream(3, 2, 1000, None, |_, _, _, _| {});
        s.run.expect("fault-free stream");
        assert!(!s.sent.is_empty());
        assert_eq!(s.got, s.sent);
        assert_eq!(s.outstanding, [0, 0, 0]);
        assert_eq!(s.violations, 0);
    }

    #[test]
    fn receiver_returns_after_exactly_the_last_eos() {
        // Each sender's Eos follows its data, so a loop that returns after
        // all (m−1)·senders of them — and not one earlier — holds every
        // record; one that waited for more would never return.
        for (m, senders) in [(2, 1), (2, 3), (4, 2)] {
            let s = stream(m, senders, 500, None, |_, _, _, _| {});
            s.run.expect("fault-free stream");
            for mach in 0..m {
                let due: usize = s
                    .sent
                    .iter()
                    .filter(|(k, _)| k.0 == mach)
                    .map(|(_, v)| v.len())
                    .sum();
                assert_eq!(
                    s.at_return[mach], due,
                    "m={m} senders={senders} machine {mach}"
                );
            }
        }
    }

    /// Both sides of an aborted stream: every worker ends with a typed
    /// error, the pools are whole, the validator saw no contract breach.
    fn assert_clean_abort(s: &Streamed) {
        assert!(s.run.is_err());
        assert!(!s.workers.is_empty());
        for w in &s.workers {
            let e = w.as_ref().expect_err("no worker outlives the abort");
            assert!(
                matches!(e, JoinError::Fabric { .. } | JoinError::Aborted { .. }),
                "{e}"
            );
            assert_eq!(e.phase(), PHASE);
        }
        assert!(s.outstanding.iter().all(|&o| o == 0), "{:?}", s.outstanding);
        assert_eq!(s.violations, 0);
    }

    #[test]
    fn mid_stream_fail_surfaces_typed_errors_and_leaves_the_pool_whole() {
        let s = stream(3, 2, 4000, None, |ctx, rt, who, i| {
            if who == 16 + 1 && i == 1000 {
                rt.fail(ctx, JoinError::aborted(PHASE));
            }
        });
        assert_eq!(s.run, Err(JoinError::aborted(PHASE)));
        assert_clean_abort(&s);
    }

    #[test]
    fn mid_stream_host_crash_surfaces_typed_errors_and_leaves_the_pool_whole() {
        let mut plan = FaultPlan::fault_free();
        plan.crashes.push(HostCrash {
            host: HostId(1),
            at: SimTime::from_nanos(100_000),
        });
        let s = stream(3, 2, 4000, Some(plan), |_, _, _, _| {});
        assert_clean_abort(&s);
    }

    /// Machine 0 runs `victim` while machine 1 sends it one `stray` tag.
    fn with_stray(
        stray: WireTag,
        victim: impl Fn(&SimCtx, &Exchange) -> Result<(), JoinError> + 'static,
    ) -> JoinError {
        let rt = Runtime::new(2, 1, FabricConfig::fdr(), NicCosts::default());
        rt.try_run(move |ctx, rt, mach, _| {
            let ex = Exchange::new(&rt.fabric, mach, PHASE);
            if mach == 0 {
                victim(ctx, &ex)?;
            } else {
                let sends = ex.post_all(ctx, stray, [0], &[7; 8]);
                ex.wait_all(ctx, sends)?;
            }
            rt.try_sync_named(ctx, PHASE, mach).map(|_| ())
        })
        .map(|_| ())
        .expect_err("a stray tag aborts the run")
    }

    #[test]
    fn stray_tags_are_typed_decode_errors_not_panics() {
        let names_the_tag = |e: JoinError, stray: WireTag| match e {
            JoinError::Decode {
                machine: 0,
                phase: PHASE,
                source,
                ..
            } => {
                assert_eq!(source.raw, stray.encode())
            }
            other => panic!("expected a decode error on machine 0, got {other}"),
        };
        // A histogram in the middle of a partitioned stream.
        let e = with_stray(WireTag::Histogram, |ctx, ex| {
            ex.recv_stream(ctx, &mut Meter::new(), 1, |_, _, _| true)
        });
        names_the_tag(e, WireTag::Histogram);
        // A payload tag the stream does not carry (data on a result sink).
        let data = WireTag::Data {
            rel: REL_S,
            part: 3,
        };
        let e = with_stray(data, |ctx, ex| {
            ex.recv_stream(ctx, &mut Meter::new(), 1, |_, tag, _| {
                tag == WireTag::Result
            })
        });
        names_the_tag(e, data);
        // An end-of-stream marker in a histogram exchange.
        let e = with_stray(WireTag::Eos, |ctx, ex| {
            ex.all_to_all(ctx, WireTag::Histogram, [], &[], |_, _| {})?;
            ex.all_to_all(ctx, WireTag::Histogram, [1], &[1], |_, _| {})
        });
        names_the_tag(e, WireTag::Eos);
    }

    #[test]
    fn a_stream_with_too_many_partitions_is_a_typed_error() {
        let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
        let ex = Exchange::new(&fabric, 1, PHASE);
        let pool = BufferPool::new(1, BUF, NicCosts::default());
        let built = Scatter::new(&ex, &pool, MAX_PARTITIONS + 1, Exchange::send);
        match built.map(|_| ()) {
            Err(JoinError::Decode {
                machine: 1,
                phase: PHASE,
                ..
            }) => {}
            other => panic!("expected a decode error naming machine 1, got {other:?}"),
        }
    }
}
