//! Phase 2 — network partitioning pass (§4.2).
//!
//! Threads partition their input on the low b₁ radix bits through the
//! [`crate::shuffle`]: tuples of locally-assigned partitions stay in
//! private buffers, others go into fixed-size RDMA buffers that are
//! posted to the target machine when full. With interleaving, ≥2 buffers
//! per (thread, partition) let computation overlap the wire. What is the
//! radix join's own is the post step — interleaved RDMA, the
//! non-interleaved ablation and TCP — and the dedicated receiver core's
//! copy charge.

use std::sync::Arc;

use rsj_cluster::{phase, Exchange, JoinError, Meter};
use rsj_rdma::HostId;
use rsj_sim::SimCtx;
use rsj_workload::Tuple;

use crate::phases::{shipped, ClusterShared};
use crate::TransportMode;

pub(crate) fn phase_network<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    chunks: [&[T]; 2],
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let nic = sh.fabric.nic(HostId(mach));
    let cost = &cfg.cluster.cost;
    let tcp = cfg.transport == TransportMode::Tcp;
    let interleaved = cfg.transport == TransportMode::RdmaInterleaved;
    // Waits the post step does itself; the lanes' windows time their own.
    let mut stall = 0.0f64;

    // The receiver core pays for each copy out of a receive buffer as its
    // transport does.
    let copy = |meter: &mut Meter, len: usize| {
        if tcp {
            meter.charge_seconds(ctx, cost.nic.tcp_syscall);
            meter.charge_bytes(ctx, len, cost.nic.tcp_copy_rate);
        } else {
            // §4.2.2: copy the small receive buffer into the large
            // per-partition staging buffer, then repost it.
            meter.charge_bytes(ctx, len, cost.memcpy_rate);
        }
    };

    let ex = Exchange::new(&sh.fabric, mach, phase::NETWORK_PARTITION);
    let inputs: Vec<(usize, &[T])> = shipped(cfg).iter().map(|&rel| (rel, chunks[rel])).collect();
    let windows = st.landing.shuffle(
        ctx,
        meter,
        &ex,
        &sh.pools,
        core,
        cost.partition_rate,
        &inputs,
        copy,
        // The post step: the three transports differ only in how one full
        // buffer reaches the wire.
        |ex, ctx, meter, lane, bytes| {
            if tcp {
                // Kernel path: syscall + copy across the socket buffer are
                // CPU work on the sending worker (§6.3 reasons (ii), (iii)).
                meter.charge_seconds(ctx, cost.nic.tcp_syscall);
                meter.charge_bytes(ctx, bytes.len(), cost.nic.tcp_copy_rate);
                meter.flush(ctx);
                let window = Arc::clone(&sh.tcp_windows[mach][lane.dst]);
                let t0 = ctx.now();
                window
                    .acquire_checked(ctx)
                    .map_err(|_| JoinError::aborted(phase::NETWORK_PARTITION))?;
                stall += (ctx.now() - t0).as_secs_f64();
                let tag = lane.tag.encode();
                nic.post_send_windowed(ctx, HostId(lane.dst), tag, bytes, window);
                return Ok(None);
            }
            if interleaved {
                return Exchange::send(ex, ctx, meter, lane, bytes);
            }
            // Non-interleaved ablation: wait for the wire immediately.
            meter.flush(ctx);
            let sent = nic.post_send(ctx, HostId(lane.dst), lane.tag.encode(), bytes);
            let t0 = ctx.now();
            sent.wait(ctx).map_err(|e| ex.fabric_err(e))?;
            stall += (ctx.now() - t0).as_secs_f64();
            Ok(None)
        },
    )?;
    let stall = stall + windows;
    st.stall_seconds.set(st.stall_seconds.get() + stall);
    Ok(())
}
