//! The exchange layer: the wire protocol of a partitioned stream, under the
//! radix join and every §7 operator (DESIGN.md §14). Three byte-level
//! pieces behind one [`Exchange`] endpoint, which attributes every failure
//! to its machine and phase: [`Exchange::all_to_all`], the
//! [`Exchange::recv_stream`] receive loop and the [`Scatter`] sender, which
//! write-combines every lane into one slab and copies a lane's bytes into
//! a pool buffer only to post them. Payloads are bytes under a
//! [`WireTag`]; tuple encoding, per-tuple meter charges and *how one full
//! buffer is posted* (the post step) stay with the caller, so transports
//! never reach this crate.

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

    /// A receive's outcome, its tag decoded; closed is aborted.
    fn received(
        &self,
        got: Result<Option<Completion>, FabricError>,
    ) -> Result<(WireTag, Completion), JoinError> {
        let c = got
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
            let (got, c) = self.received(self.nic.recv(ctx))?;
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
    /// `on_msg`, which copies it out, charges the copy and returns `false`
    /// for a tag its stream does not carry; that, or a `Histogram`, ends
    /// the loop with a typed [`JoinError::Decode`]. Copied out, a payload
    /// goes back to its sender's pool in `pools` (indexed by machine), so
    /// the sender's next buffer is this one (§4.2.2). The copy charge
    /// settles where the slot is reposted: before the next receive that
    /// is one wait ([`Nic::repost_and_recv`]), decided at the receiver's
    /// floor, and after the last message a flush. The loop ends with the
    /// meter flushed.
    pub fn recv_stream(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        senders: usize,
        pools: &[Arc<BufferPool>],
        mut on_msg: impl FnMut(&mut Meter, WireTag, &[u8]) -> bool,
    ) -> Result<(), JoinError> {
        let expected = (self.machines - 1) * senders;
        if expected == 0 {
            meter.flush(ctx);
            return Ok(());
        }
        let repost = self.nic.repost_action(ctx);
        let mut got = self.nic.recv(ctx);
        let mut eos = 0;
        loop {
            let (tag, c) = self.received(got)?;
            let is_eos = tag == WireTag::Eos;
            eos += usize::from(is_eos);
            if !is_eos && (tag == WireTag::Histogram || !on_msg(meter, tag, &c.payload)) {
                return Err(self.stray(c.tag));
            }
            pools[c.src.0].recycle(c.payload);
            if eos == expected {
                meter.flush(ctx);
                self.nic.repost_recv(ctx);
                return Ok(());
            }
            meter.batch(ctx);
            got = self.nic.repost_and_recv(ctx, &repost);
        }
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
    pub fn send(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        lane: &mut Lane<'_>,
        bytes: Vec<u8>,
    ) -> Posted {
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
pub type SendStep = fn(&Exchange, &SimCtx, &mut Meter, &mut Lane<'_>, Vec<u8>) -> Posted;

/// In-flight sends per `(thread, partition)` lane, over as many pool
/// buffers: the paper's double buffering (§4.2.1) — partitioning continues
/// into the second buffer while the first is on the wire.
pub const SEND_DEPTH: usize = 2;

/// One `(relation, partition)` stream of a [`Scatter`], as its post step
/// sees it. This is the lane's cold state, touched only when it opens, at
/// a post and at the end of the stream; the bytes it is filling live in
/// the scatter's slab.
pub struct Lane<'a> {
    /// Destination machine.
    pub dst: usize,
    /// The tag this lane's buffers travel under.
    pub tag: WireTag,
    /// The lane's send window: `admit` before a post that stays in flight
    /// (§4.2.1); the scatter records the handle the step returns.
    pub window: SendWindow<'a, SEND_DEPTH>,
    /// Pool buffers this lane holds on the pool's count (at most the
    /// window depth).
    taken: usize,
}

impl Lane<'_> {
    /// Give the lane's share of the pool's count back.
    fn release(&mut self, pool: &BufferPool) {
        for _ in 0..std::mem::take(&mut self.taken) {
            pool.put(Vec::new());
        }
    }
}

/// The sending side of a partitioned stream, write-combining as the
/// paper's partitioner does (§3.1): one [`Lane`] per `(relation,
/// partition)` (a `Result` stream has one), opened at its first record,
/// and one slab in which every lane fills its next buffer.
/// [`Scatter::push`] writes a record in place into its lane's share of the
/// slab; when another record would not fit a pool buffer, the lane's bytes
/// are copied once into a buffer drawn from the pool's free list and
/// handed to the post step `P`. `P` settles the meter itself, so it can
/// charge transport work first.
///
/// A lane's share of the slab is one buffer, or less when the stream was
/// laid out from a histogram that announces fewer bytes for it
/// ([`Scatter::laid_out`]). The pool's count moves as if every lane held
/// its buffers: one claimed at the lane's first record and one more at a
/// post that stays in flight, up to [`SEND_DEPTH`].
pub struct Scatter<'a, P> {
    ex: &'a Exchange,
    pool: &'a BufferPool,
    /// Bytes per record.
    rec: usize,
    /// Lane `i` fills `slab[at[i]..at[i + 1]]`.
    slab: Vec<u8>,
    at: Vec<usize>,
    /// Bytes lane `i` has filled since its last post: the only per-record
    /// state.
    fill: Vec<u32>,
    /// Relation-major: lane `rel * parts + part`.
    lanes: Vec<Option<Lane<'a>>>,
    step: P,
}

impl<'a, P> Scatter<'a, P>
where
    P: FnMut(&Exchange, &SimCtx, &mut Meter, &mut Lane<'_>, Vec<u8>) -> Posted,
{
    /// A sender of `rec`-byte records into `parts` partitions per
    /// relation, each lane with up to [`SEND_DEPTH`] sends in flight over
    /// as many pool buffers and a whole buffer of the slab: for a stream
    /// no histogram announces. Fails with a typed error if a partition id
    /// could overflow the tag's 24-bit field.
    pub fn new(
        ex: &'a Exchange,
        pool: &'a BufferPool,
        parts: usize,
        rec: usize,
        step: P,
    ) -> Result<Scatter<'a, P>, JoinError> {
        Scatter::laid_out(ex, pool, parts, rec, |_, _| usize::MAX, step)
    }

    /// As [`Scatter::new`], but lane `(rel, part)` gets
    /// `min(buffer, bytes(rel, part))` bytes of the slab, where `bytes` is
    /// what the lane will carry: the stream's thread histogram. A push past
    /// its lane's share panics naming the lane.
    pub fn laid_out(
        ex: &'a Exchange,
        pool: &'a BufferPool,
        parts: usize,
        rec: usize,
        bytes: impl Fn(usize, usize) -> usize,
        step: P,
    ) -> Result<Scatter<'a, P>, JoinError> {
        check_partition_count(parts).map_err(|e| JoinError::decode(ex.mach, ex.phase, e))?;
        // A buffer holds at least one record, however small the pool's.
        let buffer = pool.buf_size().max(rec);
        let mut at = Vec::with_capacity(2 * parts + 1);
        at.push(0);
        for i in 0..2 * parts {
            let end = at[i] + bytes(i / parts, i % parts).min(buffer);
            at.push(end);
        }
        Ok(Scatter {
            ex,
            pool,
            rec,
            slab: vec![0; at[2 * parts]],
            at,
            fill: vec![0; 2 * parts],
            lanes: (0..2 * parts).map(|_| None).collect(),
            step,
        })
    }

    /// Append one record, written in place by `write`, to the stream `tag`
    /// bound for `dst`, posting the lane's buffer if another record would
    /// not fit.
    #[inline]
    pub fn push(
        &mut self,
        ctx: &SimCtx,
        meter: &mut Meter,
        dst: usize,
        tag: WireTag,
        write: impl FnOnce(&mut [u8]),
    ) -> Result<(), JoinError> {
        let i = match tag {
            WireTag::Data { rel, part } => rel * (self.lanes.len() / 2) + part,
            _ => 0,
        };
        let filled = self.fill[i] as usize + self.rec;
        let end = self.at[i] + filled;
        if end > self.at[i + 1] {
            self.overrun(i, tag);
        }
        if filled == self.rec {
            self.open(ctx, i, dst, tag);
        }
        write(&mut self.slab[end - self.rec..end]);
        self.fill[i] = filled as u32;
        if filled + self.rec > self.pool.buf_size() {
            self.post(ctx, meter, i, false)?;
        }
        Ok(())
    }

    /// Open lane `i` at its first record: claim its first buffer on the
    /// pool's count.
    fn open(&mut self, ctx: &SimCtx, i: usize, dst: usize, tag: WireTag) {
        if self.lanes[i].is_none() {
            self.pool.claim(ctx);
            self.lanes[i] = Some(Lane {
                dst,
                tag,
                window: SendWindow::new(self.ex.nic.validator()),
                taken: 1,
            });
        }
    }

    /// A push past lane `i`'s share of the slab: its histogram announced
    /// fewer bytes than the stream sends.
    #[cold]
    #[inline(never)]
    fn overrun(&self, i: usize, tag: WireTag) -> ! {
        let share = self.at[i + 1] - self.at[i];
        panic!("lane {i} ({tag:?}) pushed past the {share} bytes its histogram announced")
    }

    /// Hand lane `i`'s bytes, if it holds any, to the post step: copied
    /// once into a pool buffer, the free list's last one.
    fn post(
        &mut self,
        ctx: &SimCtx,
        meter: &mut Meter,
        i: usize,
        last: bool,
    ) -> Result<(), JoinError> {
        let filled = std::mem::take(&mut self.fill[i]) as usize;
        if filled == 0 {
            return Ok(());
        }
        let lane = self.lanes[i].as_mut().expect("a lane with records is open");
        let mut buf = self.pool.refill();
        buf.extend_from_slice(&self.slab[self.at[i]..self.at[i] + filled]);
        if let Some(sent) = (self.step)(self.ex, ctx, meter, lane, buf)? {
            lane.window.record(sent);
            // Still on the wire: the next records need another buffer on
            // the count, up to the window depth (§4.2.1). Past that,
            // `admit` has freed a claimed one for the next post.
            if !last && lane.taken < SEND_DEPTH {
                lane.taken += 1;
                self.pool.claim(ctx);
            }
        }
        Ok(())
    }

    /// Post every non-empty partial buffer now, leaving the windows open.
    pub fn flush(&mut self, ctx: &SimCtx, meter: &mut Meter) -> Result<(), JoinError> {
        (0..self.lanes.len()).try_for_each(|i| self.post(ctx, meter, i, true))
    }

    /// End the stream: per lane, post the final partial buffer, drain the
    /// window and return its buffers to the pool's count; then settle the
    /// meter and, if `eos`, tell every peer. Returns the seconds the lanes'
    /// windows stalled on the network.
    pub fn finish(mut self, ctx: &SimCtx, meter: &mut Meter, eos: bool) -> Result<f64, JoinError> {
        let mut stall = 0.0;
        for i in 0..self.lanes.len() {
            self.post(ctx, meter, i, true)?;
            if let Some(lane) = self.lanes[i].as_mut() {
                lane.window.drain(ctx).map_err(|e| self.ex.fabric_err(e))?;
                stall += lane.window.stall_seconds();
                lane.release(self.pool);
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
/// lanes' share of the count, so an aborted run leaves the pool whole.
impl<P> Drop for Scatter<'_, P> {
    fn drop(&mut self) {
        for lane in self.lanes.iter_mut().flatten() {
            lane.release(self.pool);
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
        let run =
            rt.try_run(move |ctx, rt, mach, core| {
                let ex = Exchange::new(&rt.fabric, mach, PHASE);
                let mut meter = Meter::new();
                let streamed =
                    if core == 0 {
                        let mut held = 0;
                        let done =
                            ex.recv_stream(ctx, &mut meter, senders, &pools2, |_, tag, bytes| {
                                match tag {
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
                                }
                            });
                        shared2.borrow_mut().2[mach] = held;
                        done
                    } else {
                        (|| {
                            let pool = &pools2[mach];
                            let mut scatter = Scatter::new(&ex, pool, PARTS, 8, Exchange::send)?;
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
                                        buf.copy_from_slice(&rec.to_le_bytes())
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
            ex.recv_stream(ctx, &mut Meter::new(), 1, &[], |_, _, _| true)
        });
        names_the_tag(e, WireTag::Histogram);
        // A payload tag the stream does not carry (data on a result sink).
        let data = WireTag::Data {
            rel: REL_S,
            part: 3,
        };
        let e = with_stray(data, |ctx, ex| {
            ex.recv_stream(ctx, &mut Meter::new(), 1, &[], |_, tag, _| {
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

    /// FNV-1a over the bytes of `values`.
    fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
        values
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn pool_counts_move_exactly_as_before_the_free_list() {
        // Pools too small for their lanes, so the stream also registers
        // on the fly. After every push, and after `finish`, each sender
        // records its pool's `(available, outstanding, fly_registrations)`;
        // the sequence is pinned to what the pool produced before it kept
        // a physical free list.
        let (m, senders, n) = (3, 2, 3000);
        let rt = Runtime::new(m, senders + 1, FabricConfig::fdr(), NicCosts::default());
        let pools: Arc<Vec<_>> =
            Arc::new((0..m).map(|i| rt.make_pool(i, 2 * PARTS, BUF)).collect());
        let seen = Arc::new(RefCell::new(Vec::new()));
        let (pools2, seen2) = (Arc::clone(&pools), Arc::clone(&seen));
        rt.try_run(move |ctx, rt, mach, core| {
            let ex = Exchange::new(&rt.fabric, mach, PHASE);
            let mut meter = Meter::new();
            let pool = &pools2[mach];
            let record = || {
                let counts = (
                    pool.available(),
                    pool.outstanding(),
                    pool.fly_registrations(),
                );
                seen2.borrow_mut().push(counts);
            };
            if core == 0 {
                ex.recv_stream(ctx, &mut meter, senders, &pools2, |_, _, _| true)?;
            } else {
                let mut scatter = Scatter::new(&ex, pool, PARTS, 8, Exchange::send)?;
                for i in 0..n {
                    let (rel, part) = ((i / PARTS) % 2, i % PARTS);
                    if part % m != mach {
                        let tag = WireTag::Data { rel, part };
                        scatter.push(ctx, &mut meter, part % m, tag, |buf| {
                            buf.copy_from_slice(&(i as u64).to_le_bytes())
                        })?;
                        record();
                    }
                }
                scatter.finish(ctx, &mut meter, true)?;
                record();
            }
            rt.try_sync_named(ctx, PHASE, mach).map(|_| ())
        })
        .expect("fault-free stream");
        let seen = seen.take();
        for &(available, outstanding, fly) in &seen {
            assert_eq!(available + outstanding, 2 * PARTS + fly as usize);
        }
        assert!(pools
            .iter()
            .all(|p| p.outstanding() == 0 && p.fly_registrations() > 0));
        let flat = seen.iter().flat_map(|&(a, o, f)| [a as u64, o as u64, f]);
        assert_eq!((seen.len(), fnv1a(flat)), (12006, 0x6902_f0ec_9c65_35a9));
    }

    #[test]
    fn a_refill_reuses_the_very_buffer_the_receiver_returned() {
        // Machine 1 streams three buffers to machine 0 through one lane,
        // pausing after the second, and its post step notes each buffer's
        // address. The third buffer is not drawn from the pool's count
        // (the window holds two) but refilled from the free list, where
        // the receiver returned the second after copying it out.
        let rt = Runtime::new(2, 2, FabricConfig::fdr(), NicCosts::default());
        let pools: Arc<Vec<_>> =
            Arc::new((0..2).map(|i| rt.make_pool(i, SEND_DEPTH, BUF)).collect());
        let posted = Arc::new(RefCell::new(Vec::new()));
        let (pools2, posted2) = (Arc::clone(&pools), Arc::clone(&posted));
        rt.try_run(move |ctx, rt, mach, core| {
            let ex = Exchange::new(&rt.fabric, mach, PHASE);
            let mut meter = Meter::new();
            if core == 0 {
                ex.recv_stream(ctx, &mut meter, 1, &pools2, |_, _, _| true)?;
            } else {
                let step = |ex: &Exchange,
                            ctx: &SimCtx,
                            meter: &mut Meter,
                            lane: &mut Lane<'_>,
                            bytes: Vec<u8>| {
                    posted2.borrow_mut().push(bytes.as_ptr() as usize);
                    Exchange::send(ex, ctx, meter, lane, bytes)
                };
                let mut scatter = Scatter::new(&ex, &pools2[mach], 1, 8, step)?;
                let records = if mach == 1 { 3 * BUF / 8 } else { 0 };
                for i in 0..records {
                    if i == 2 * BUF / 8 {
                        ctx.advance(rsj_sim::SimDuration::from_millis(1));
                    }
                    let tag = WireTag::Data { rel: 0, part: 0 };
                    scatter.push(ctx, &mut meter, 0, tag, |buf| {
                        buf.copy_from_slice(&(i as u64).to_le_bytes())
                    })?;
                }
                scatter.finish(ctx, &mut meter, true)?;
            }
            rt.try_sync_named(ctx, PHASE, mach).map(|_| ())
        })
        .expect("fault-free stream");
        let posted = posted.take();
        assert_eq!(posted.len(), 3);
        assert_ne!(posted[0], posted[1], "two buffers in flight at once");
        assert_eq!(
            posted[2], posted[1],
            "the refill is the last buffer returned"
        );
        assert_eq!(
            (pools[1].outstanding(), pools[1].fly_registrations()),
            (0, 0)
        );
    }

    #[test]
    fn the_slab_gives_each_lane_a_buffer_or_the_bytes_it_will_carry() {
        let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
        let ex = Exchange::new(&fabric, 1, PHASE);
        let pool = BufferPool::new(1, BUF, NicCosts::default());
        let announced = |rel: usize, part: usize| (rel * PARTS + part) * 40;
        let scatter =
            Scatter::laid_out(&ex, &pool, PARTS, 8, announced, Exchange::send as SendStep)
                .expect("a valid partition count");
        let shares: Vec<usize> = scatter.at.windows(2).map(|w| w[1] - w[0]).collect();
        let want: Vec<usize> = (0..2 * PARTS)
            .map(|i| announced(i / PARTS, i % PARTS).min(BUF))
            .collect();
        assert_eq!(shares, want);
        assert_eq!(scatter.slab.len(), want.iter().sum::<usize>());
        // Without a histogram, every lane gets a whole buffer.
        let scatter = Scatter::new(&ex, &pool, PARTS, 8, Exchange::send as SendStep)
            .expect("a valid partition count");
        assert_eq!(scatter.slab.len(), 2 * PARTS * BUF);
    }

    /// Lanes `(0, 0)` and `(1, 0)` of a one-partition stream.
    const DATA_0: WireTag = WireTag::Data { rel: 0, part: 0 };
    const DATA_1: WireTag = WireTag::Data { rel: 1, part: 0 };

    /// Machine 1 pushes `n` eight-byte records under each `tag` of
    /// `pushes`, bound for machine 0, through a one-partition scatter laid
    /// out by `announced`. Returns the payload sizes its post step saw
    /// during the pushes and during `finish`.
    fn laid_out_posts(
        announced: fn(usize, usize) -> usize,
        pushes: &'static [(WireTag, usize)],
    ) -> (Vec<usize>, Vec<usize>) {
        let rt = Runtime::new(2, 2, FabricConfig::fdr(), NicCosts::default());
        let pools: Arc<Vec<_>> = Arc::new(
            (0..2)
                .map(|i| rt.make_pool(i, 2 * SEND_DEPTH, BUF))
                .collect(),
        );
        let posted = Arc::new(RefCell::new((Vec::new(), Vec::new())));
        let (pools2, posted2) = (Arc::clone(&pools), Arc::clone(&posted));
        rt.try_run(move |ctx, rt, mach, core| {
            let ex = Exchange::new(&rt.fabric, mach, PHASE);
            let mut meter = Meter::new();
            if core == 0 {
                ex.recv_stream(ctx, &mut meter, 1, &pools2, |_, _, _| true)?;
            } else {
                let finishing = std::cell::Cell::new(false);
                let step = |ex: &Exchange,
                            ctx: &SimCtx,
                            meter: &mut Meter,
                            lane: &mut Lane<'_>,
                            bytes: Vec<u8>| {
                    let mut posted = posted2.borrow_mut();
                    let seen = if finishing.get() {
                        &mut posted.1
                    } else {
                        &mut posted.0
                    };
                    seen.push(bytes.len());
                    Exchange::send(ex, ctx, meter, lane, bytes)
                };
                let mut scatter = Scatter::laid_out(&ex, &pools2[mach], 1, 8, announced, step)?;
                for &(tag, n) in pushes.iter().filter(|_| mach == 1) {
                    for i in 0..n {
                        scatter.push(ctx, &mut meter, 0, tag, |buf| {
                            buf.copy_from_slice(&(i as u64).to_le_bytes())
                        })?;
                    }
                }
                finishing.set(true);
                scatter.finish(ctx, &mut meter, true)?;
            }
            rt.try_sync_named(ctx, PHASE, mach).map(|_| ())
        })
        .expect("fault-free stream");
        posted.take()
    }

    #[test]
    fn a_lane_smaller_than_a_buffer_posts_only_at_finish() {
        // Relation 0 announces three records, fewer than a buffer's 32;
        // relation 1 announces 40, so its share is one whole buffer and it
        // posts at the full-buffer rule, not at its share.
        let announced = |rel: usize, _| [3, 40][rel] * 8;
        let (pushing, finishing) = laid_out_posts(announced, &[(DATA_0, 3), (DATA_1, 40)]);
        assert_eq!(pushing, [BUF]);
        assert_eq!(finishing, [3 * 8, 8 * 8]);
    }

    #[test]
    fn a_one_lane_result_stream_has_a_one_buffer_slab_and_posts_every_record() {
        // The coordinator result stream: one partition, nothing announced
        // for relation 1, so only lane 0 has a share of the slab.
        let announced = |rel: usize, _| if rel == 0 { usize::MAX } else { 0 };
        let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
        let ex = Exchange::new(&fabric, 1, PHASE);
        let pool = BufferPool::new(1, BUF, NicCosts::default());
        let scatter = Scatter::laid_out(&ex, &pool, 1, 8, announced, Exchange::send as SendStep)
            .expect("a valid partition count");
        assert_eq!(scatter.slab.len(), BUF, "one buffer, not two");
        // 70 records: two full buffers of 32 while pushing, six at finish.
        let (pushing, finishing) = laid_out_posts(announced, &[(WireTag::Result, 70)]);
        assert_eq!(pushing, [BUF, BUF]);
        assert_eq!(finishing, [6 * 8]);
    }

    #[test]
    #[should_panic(expected = "lane 0 (Data { rel: 0, part: 0 }) pushed past the 16 bytes")]
    fn a_push_past_its_lanes_announced_bytes_panics_naming_the_lane() {
        laid_out_posts(|_, _| 16, &[(DATA_0, 3)]);
    }

    #[test]
    fn a_stream_with_too_many_partitions_is_a_typed_error() {
        let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
        let ex = Exchange::new(&fabric, 1, PHASE);
        let pool = BufferPool::new(1, BUF, NicCosts::default());
        let built = Scatter::new(&ex, &pool, MAX_PARTITIONS + 1, 8, Exchange::send);
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
