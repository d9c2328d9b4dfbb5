//! Phase 2 — network partitioning pass (§4.2).
//!
//! Threads partition their input on the low b₁ radix bits; tuples of
//! locally-assigned partitions go to private local buffers, others into
//! fixed-size RDMA buffers that are posted to the target machine when
//! full. With interleaving, ≥2 buffers per (thread, partition) let
//! computation overlap the wire; the receiver side is either a dedicated
//! core draining two-sided completions ([`receiver_loop`]) or
//! pre-registered one-sided regions written at histogram-derived offsets.

use std::sync::Arc;

use rsj_cluster::{ranges, Exchange, JoinError, Meter, Scatter, WireTag};
use rsj_joins::partition_of;
use rsj_rdma::HostId;
use rsj_sim::SimCtx;
use rsj_workload::Tuple;

use crate::histogram::{REL_R, REL_S};
use crate::phases::{sender_index, ClusterShared, LocalOut, RELS};
use crate::{ReceiveMode, Transport, TransportMode};

/// Phase name used in error attribution and watchdog reports.
const PHASE: &str = "network_partition";

pub(crate) fn phase_network<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    match sender_index(cfg, core) {
        None => receiver_loop::<T>(ctx, sh, mach, meter),
        Some(w) => sender_loop::<T>(ctx, sh, mach, w, meter),
    }
}

fn sender_loop<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    w: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let info = Arc::clone(st.info.lock().as_ref().expect("histogram phase incomplete"));
    let nic = sh.fabric.nic(HostId(mach));
    let ex = Exchange::new(&sh.fabric, mach, PHASE);
    let b1 = cfg.radix_bits.0;
    let np1 = 1usize << b1;
    let workers = cfg.partitioning_workers();
    let rate = cfg.cluster.cost.partition_rate;
    let nic_cost = &cfg.cluster.cost.nic;
    let tcp = cfg.transport == TransportMode::Tcp;
    let interleaved = cfg.transport == TransportMode::RdmaInterleaved;

    // One-sided write offsets: this worker's base offset within the remote
    // region for (rel, p) is the sum of the preceding workers' counts.
    let one_sided = cfg.receive == ReceiveMode::OneSided;
    let cursors = if one_sided { np1 } else { 0 };
    let mut bases = [vec![0usize; cursors], vec![0usize; cursors]];
    let mut my_hist = None;
    if one_sided {
        for prev in 0..w {
            let g = st.worker_hists[prev].lock();
            let h = g.as_ref().expect("worker histogram missing");
            for rel in RELS {
                for (base, &count) in bases[rel].iter_mut().zip(&h.counts[rel]) {
                    *base += count as usize * T::SIZE;
                }
            }
        }
        my_hist = st.worker_hists[w].lock().clone();
    }
    // Bytes already RDMA-written per (rel, part) by this worker (one-sided
    // offset cursor).
    let mut written = [vec![0usize; cursors], vec![0usize; cursors]];
    // Waits the post step does itself; the lanes' windows time their own.
    let mut stall = 0.0f64;

    // The post step: the three transports and two receive modes differ
    // only in how one full buffer reaches the wire.
    let mut scatter = Scatter::new(&ex, &sh.pools[mach], np1, |ex, ctx, meter, lane, bytes| {
        let len = bytes.len();
        if tcp {
            // Kernel path: syscall + copy across the socket buffer are
            // CPU work on the sending worker (§6.3 reasons (ii), (iii)).
            meter.charge_seconds(ctx, nic_cost.tcp_syscall);
            meter.charge_bytes(ctx, len, nic_cost.tcp_copy_rate);
            meter.flush(ctx);
            let window = Arc::clone(&sh.tcp_windows[mach][lane.dst]);
            let t0 = ctx.now();
            window
                .acquire_checked(ctx)
                .map_err(|_| JoinError::aborted(PHASE))?;
            stall += (ctx.now() - t0).as_secs_f64();
            let tag = lane.tag.encode();
            nic.post_send_windowed(ctx, HostId(lane.dst), tag, bytes, window);
            return Ok(None);
        }
        meter.flush(ctx);
        if interleaved {
            lane.window.admit(ctx).map_err(|e| ex.fabric_err(e))?;
        }
        let sent = match lane.tag {
            WireTag::Data { rel, part } if one_sided => {
                let remote = *sh
                    .mr_registry
                    .lock()
                    .get(&(lane.dst, rel, part, mach))
                    .expect("one-sided region not registered");
                let offset = bases[rel][part] + written[rel][part];
                written[rel][part] += len;
                nic.post_write(ctx, remote, offset, bytes)
            }
            _ => nic.post_send(ctx, HostId(lane.dst), lane.tag.encode(), bytes),
        };
        if interleaved {
            return Ok(Some(sent));
        }
        // Non-interleaved ablation: wait for the wire immediately.
        let t0 = ctx.now();
        sent.wait(ctx).map_err(|e| ex.fabric_err(e))?;
        stall += (ctx.now() - t0).as_secs_f64();
        Ok(None)
    })?;

    let mut local = LocalOut {
        parts: [
            (0..np1).map(|_| Vec::new()).collect(),
            (0..np1).map(|_| Vec::new()).collect(),
        ],
    };
    for (rel, chunk) in [(REL_R, &st.r_chunk), (REL_S, &st.s_chunk)] {
        if rel == REL_S && cfg.probe_transport == Transport::OneSided {
            // One-sided probe dataplane: S never crosses the wire — the
            // probe phase READs the owners' published bucket tables
            // instead (DESIGN.md §11).
            continue;
        }
        let range = ranges(chunk.len(), workers)[w].clone();
        for t in &chunk[range] {
            meter.charge_bytes(ctx, T::SIZE, rate);
            let part = partition_of(t.key(), 0, b1);
            let dst = info.assignment[part];
            if dst == mach {
                local.parts[rel][part].push(*t);
            } else {
                let tag = WireTag::Data { rel, part };
                scatter.push(ctx, meter, dst, tag, |buf| t.write_to(buf))?;
            }
        }
    }

    // Final partial buffers and drains, then end-of-stream markers to the
    // two-sided receivers.
    stall += scatter.finish(ctx, meter, !one_sided)?;
    // One-sided: every byte announced in the histogram must have been
    // written, or remote assembly would read zeros.
    if let Some(h) = &my_hist {
        for rel in RELS {
            for (part, &bytes) in written[rel].iter().enumerate() {
                assert!(
                    bytes == 0 || bytes == h.counts[rel][part] as usize * T::SIZE,
                    "one-sided write count mismatch for rel {rel} part {part}"
                );
            }
        }
    }
    *st.stall_seconds.lock() += stall;

    // Hand the private local buffers to the machine state for assembly.
    *st.local_out[w].lock() = local;
    Ok(())
}

fn receiver_loop<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let info = Arc::clone(st.info.lock().as_ref().expect("histogram phase incomplete"));
    let cost = &cfg.cluster.cost;
    let ex = Exchange::new(&sh.fabric, mach, PHASE);
    let workers = cfg.partitioning_workers();
    ex.recv_stream(ctx, meter, workers, |meter, tag, payload| match tag {
        // A partition routed to another machine is a protocol error.
        WireTag::Data { rel, part } if info.assignment.get(part) == Some(&mach) => {
            if cfg.transport == TransportMode::Tcp {
                meter.charge_seconds(ctx, cost.nic.tcp_syscall);
                meter.charge_bytes(ctx, payload.len(), cost.nic.tcp_copy_rate);
            } else {
                // §4.2.2: copy the small receive buffer into the large
                // per-partition staging buffer, then repost it.
                meter.charge_bytes(ctx, payload.len(), cost.memcpy_rate);
            }
            st.staging[rel].lock()[part].extend_from_slice(&payload);
            true
        }
        _ => false,
    })
}
