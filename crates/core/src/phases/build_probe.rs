//! Phase 4 — build-probe (§4.3).
//!
//! Chained hash tables per fragment; skewed outer fragments are split
//! into probe chunks shared among threads, oversized inner fragments into
//! multiple cache-sized tables. Matches are counted or materialized
//! ([`ResultEmitter`]), and the inter-machine work-sharing extension lets
//! idle machines pull fragments from remote queues ([`steal_task`]).

use std::sync::Arc;

use rsj_cluster::{phase, Exchange, JoinError, Meter, Scatter, SendStep, WireTag};
use rsj_joins::BucketTable;
use rsj_rdma::HostId;
use rsj_sim::SimCtx;
use rsj_workload::{JoinResult, Tuple};

use crate::config::MaterializeMode;
use crate::phases::{task_bytes, BpTask, ClusterShared};

/// §4.3 result materialization: matches are serialized as
/// `<r.rid, s.rid>` pairs (16 bytes) into output buffers. In coordinator
/// mode the pairs are a [`Scatter`] stream to machine 0 — the same pooled
/// double-buffering discipline as the partitioning pass.
struct ResultEmitter<'a> {
    mode: MaterializeMode,
    ex: &'a Exchange,
    /// The `Result` stream, on machines that ship to the coordinator.
    scatter: Option<Scatter<'a, SendStep>>,
    bytes: u64,
    /// First fabric error seen while shipping result buffers. [`emit`] is
    /// driven from the probe callback, which cannot propagate `?`; the
    /// error is stashed here and surfaced by the phase loop after the
    /// current task ([`take_err`]). Once set, no further sends are posted.
    err: Option<JoinError>,
}

/// Size of one serialized `<r.rid, s.rid>` pair.
const PAIR: usize = 16;

/// Cache budget for one hash table; inner partitions whose table would
/// exceed twice this are split into multiple smaller tables (§4.3).
const CACHE_BUDGET_BYTES: usize = 32 * 1024;

impl ResultEmitter<'_> {
    /// Surface (and clear) a stashed send failure.
    fn take_err(&mut self) -> Result<(), JoinError> {
        self.err.take().map_or(Ok(()), Err)
    }

    #[inline]
    fn emit<T: Tuple>(
        &mut self,
        ctx: &SimCtx,
        meter: &mut Meter,
        cost: &rsj_cluster::CostModel,
        r: &T,
        s: &T,
    ) {
        self.bytes += PAIR as u64;
        meter.charge_bytes(ctx, PAIR, cost.memcpy_rate);
        // Local output buffers go to the downstream consumer; the write
        // cost was charged per pair. Only a coordinator stream is posted.
        if let (Some(scatter), None) = (&mut self.scatter, &self.err) {
            let pair = |buf: &mut [u8]| {
                buf[..8].copy_from_slice(&r.rid().to_le_bytes());
                buf[8..].copy_from_slice(&s.rid().to_le_bytes());
            };
            self.err = scatter.push(ctx, meter, 0, WireTag::Result, pair).err();
        }
    }

    /// Final flush + EOS + drain; returns the bytes that stayed local.
    fn finish(mut self, ctx: &SimCtx, meter: &mut Meter) -> Result<u64, JoinError> {
        let Some(mut scatter) = self.scatter.take() else {
            return Ok(self.bytes);
        };
        // The EOS follows the last buffer straight onto the wire; only
        // then is the window drained.
        scatter.flush(ctx, meter)?;
        meter.flush(ctx);
        self.ex.send_eos(ctx, [0])?;
        scatter.finish(ctx, meter, false)?;
        Ok(0)
    }
}

pub(crate) fn phase_build_probe<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let s_split_threshold = st.s_split_threshold.get();
    let cost = &cfg.cluster.cost;
    let mut local = JoinResult::default();
    let ex = Exchange::new(&sh.fabric, mach, phase::BUILD_PROBE);
    let ships = cfg.materialize == MaterializeMode::ToCoordinator;

    // Coordinator sink: machine 0's first core absorbs shipped results
    // instead of probing (its other cores keep working).
    if ships && mach == 0 && core == 0 && cfg.cluster.machines > 1 {
        let mut bytes = 0u64;
        let senders = cfg.cluster.cores_per_machine;
        ex.recv_stream(
            ctx,
            meter,
            senders,
            &sh.pools,
            |meter, tag, payload| match tag {
                WireTag::Result => {
                    // Copy out of the receive buffer into result storage.
                    meter.charge_bytes(ctx, payload.len(), cost.memcpy_rate);
                    bytes += payload.len() as u64;
                    true
                }
                _ => false,
            },
        )?;
        sh.coord_result_bytes
            .set(sh.coord_result_bytes.get() + bytes);
        return Ok(());
    }
    let pool = &sh.pools[mach];
    let scatter = if ships && mach != 0 {
        // One lane, relation 0's: the stream carries no relation 1.
        let bytes = |rel: usize, _| if rel == 0 { usize::MAX } else { 0 };
        Some(Scatter::laid_out(
            &ex,
            pool,
            1,
            PAIR,
            bytes,
            Exchange::send as SendStep,
        )?)
    } else {
        None
    };
    let mut emitter = ResultEmitter {
        mode: cfg.materialize,
        ex: &ex,
        scatter,
        bytes: 0,
        err: None,
    };

    loop {
        let task = match st.bp_tasks.pop(0) {
            Some(t) => {
                st.bp_queued_bytes
                    .set(st.bp_queued_bytes.get() - task_bytes(&t));
                t
            }
            None => {
                if !cfg.inter_machine_work_sharing {
                    break;
                }
                match steal_task(ctx, sh, mach, meter)? {
                    Some(t) => t,
                    None => {
                        // Nothing stealable right now. If any worker is
                        // still busy it may yet split an oversized
                        // fragment; poll briefly before giving up.
                        if sh.bp_busy.get() == 0
                            && sh.machines.iter().all(|m| m.bp_tasks.is_empty())
                        {
                            break;
                        }
                        // An aborting run must not keep polling: peers may
                        // never drain their queues.
                        if sh.fabric.aborted() {
                            return Err(JoinError::aborted(phase::BUILD_PROBE));
                        }
                        // Poll at the granularity of the smallest stealable
                        // unit so the phase end is not overshot.
                        let poll = cfg.work_sharing_min_bytes as f64 / cfg.cluster.cost.probe_rate;
                        ctx.advance(rsj_sim::SimDuration::from_secs_f64(poll));
                        continue;
                    }
                }
            }
        };
        sh.bp_busy.set(sh.bp_busy.get() + 1);
        match task {
            BpTask::BuildProbe { r, s, j } => {
                let r_part = r.part(j);
                let s_part = s.part(j);
                // Oversized inner fragment (skew on R): split into several
                // cache-sized tables; every probe then visits all of them
                // (§4.3).
                let est_footprint = r_part.len() * (T::SIZE + 8);
                let n_tables = est_footprint.div_ceil(2 * CACHE_BUDGET_BYTES).max(1);
                let chunk = r_part.len().div_ceil(n_tables).max(1);
                // Every key of the fragment shares the radix bits both
                // passes consumed; buckets are addressed by the bits above.
                let skip = cfg.radix_bits.0 + cfg.radix_bits.1;
                let tables: Vec<BucketTable<T>> = r_part
                    .chunks(chunk.max(1))
                    .map(|c| BucketTable::build(c, skip))
                    .collect();
                meter.charge_bytes(ctx, r_part.len() * T::SIZE, cost.build_rate);
                let tables = Arc::new(tables);
                if s_part.len() > s_split_threshold {
                    // Skewed outer fragment: share the probe among threads
                    // in chunks of the threshold size. The pushes are
                    // externally visible (an idle sibling that polls an
                    // empty queue leaves the phase), so the build cost
                    // must be settled first — otherwise *when* the chunks
                    // appear depends on the settlement dispatch pattern.
                    meter.flush(ctx);
                    let mut lo = 0;
                    while lo < s_part.len() {
                        let hi = (lo + s_split_threshold).min(s_part.len());
                        let t = BpTask::ProbeChunk {
                            tables: Arc::clone(&tables),
                            s: Arc::clone(&s),
                            j,
                            lo,
                            hi,
                        };
                        st.bp_queued_bytes
                            .set(st.bp_queued_bytes.get() + task_bytes(&t));
                        st.bp_tasks.push(0, t);
                        lo = hi;
                    }
                } else {
                    probe_chunk(ctx, meter, cost, &tables, s_part, &mut local, &mut emitter);
                }
            }
            BpTask::ProbeChunk {
                tables,
                s,
                j,
                lo,
                hi,
            } => {
                probe_chunk(
                    ctx,
                    meter,
                    cost,
                    &tables,
                    &s.part(j)[lo..hi],
                    &mut local,
                    &mut emitter,
                );
            }
        }
        // Settle before dropping the busy flag: peers poll `bp_busy` to
        // decide whether the phase can still grow, so the flag must move
        // at this worker's committed time, not at a stale clock.
        meter.flush(ctx);
        sh.bp_busy.set(sh.bp_busy.get() - 1);
        emitter.take_err()?;
    }
    let local_bytes = emitter.finish(ctx, meter)?;
    if local_bytes > 0 {
        st.result_bytes_local
            .set(st.result_bytes_local.get() + local_bytes);
    }
    meter.flush(ctx);
    st.result.borrow_mut().merge(local);
    Ok(())
}

/// Work-sharing extension: pull one build-probe fragment from another
/// machine's queue, paying the wire cost of moving its bytes here via a
/// one-sided RDMA READ from the victim's scratch region.
///
/// A steal only happens when it is expected to *finish sooner* than the
/// victim would get to the task itself: the thief compares the victim's
/// backlog drain time against the transfer time behind all outstanding
/// steals from that victim (their reads serialize on one egress link).
/// Without this estimate, eager thieves move tail work onto a channel
/// slower than a local probe thread and make the phase longer.
fn steal_task<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    meter: &mut Meter,
) -> Result<Option<BpTask<T>>, JoinError> {
    let m = sh.cfg.cluster.machines;
    let cores = sh.cfg.cluster.cores_per_machine as f64;
    let probe_rate = sh.cfg.cluster.cost.probe_rate;
    let net = sh.fabric.config().effective_bandwidth(m);
    let min_bytes = sh.cfg.work_sharing_min_bytes;
    for step in 1..m {
        let victim = (mach + step) % m;
        let vstate = &sh.machines[victim];
        let backlog = vstate.bp_queued_bytes.get();
        let outstanding = vstate.steal_outstanding_bytes.get();
        let worth = |t: &BpTask<T>| -> bool {
            let bytes = task_bytes(t);
            if bytes < min_bytes {
                return false;
            }
            // The victim reaches this task after draining ~its backlog
            // across its cores; the thief gets it after the pending
            // transfers plus its own, plus the probe itself.
            let victim_finish = backlog.saturating_sub(bytes) as f64 / (cores * probe_rate);
            let steal_finish = (outstanding + bytes) as f64 / net + bytes as f64 / probe_rate;
            steal_finish < victim_finish
        };
        let task = vstate.bp_tasks.pop_if(0, worth);
        if let Some(task) = task {
            let bytes = task_bytes(&task);
            vstate
                .bp_queued_bytes
                .set(vstate.bp_queued_bytes.get() - bytes);
            // Table bytes cross the wire only on this machine's first
            // contact with the fragment; the tables stay cached here.
            let wire_bytes = bytes
                + match &task {
                    BpTask::ProbeChunk { tables, .. } => {
                        let frag_id = Arc::as_ptr(tables) as usize;
                        if sh.machines[mach]
                            .fetched_tables
                            .borrow_mut()
                            .insert(frag_id)
                        {
                            tables.iter().map(|t| t.footprint_bytes()).sum::<usize>()
                        } else {
                            0
                        }
                    }
                    BpTask::BuildProbe { .. } => 0,
                };
            let remote = sh.scratch_mrs.borrow_mut()[victim];
            if let Some(remote) = remote {
                let len = wire_bytes.min(remote.len);
                if len > 0 {
                    vstate
                        .steal_outstanding_bytes
                        .set(vstate.steal_outstanding_bytes.get() + len);
                    meter.flush(ctx);
                    // The payload content is immaterial (the fragment is
                    // shared in simulator memory); the READ charges the
                    // honest wire time of moving it.
                    let read = sh
                        .fabric
                        .nic(HostId(mach))
                        .post_read(ctx, remote, 0, len)
                        .wait(ctx);
                    vstate
                        .steal_outstanding_bytes
                        .set(vstate.steal_outstanding_bytes.get() - len);
                    read.map_err(|e| JoinError::fabric(mach, phase::BUILD_PROBE, e))?;
                }
            }
            return Ok(Some(task));
        }
    }
    Ok(None)
}

fn probe_chunk<T: Tuple>(
    ctx: &SimCtx,
    meter: &mut Meter,
    cost: &rsj_cluster::CostModel,
    tables: &[BucketTable<T>],
    s_part: &[T],
    local: &mut JoinResult,
    emitter: &mut ResultEmitter<'_>,
) {
    if emitter.mode == MaterializeMode::CountOnly {
        for table in tables {
            local.merge(table.probe_all(s_part));
        }
    } else {
        for table in tables {
            let mut res = JoinResult::default();
            table.for_each_join(s_part, |r, s| {
                res.add_match(s.key());
                emitter.emit(ctx, meter, cost, r, s);
            });
            local.merge(res);
        }
    }
    // Probing k split tables costs k passes over the probe input (§4.3).
    meter.charge_bytes(ctx, s_part.len() * T::SIZE * tables.len(), cost.probe_rate);
}
