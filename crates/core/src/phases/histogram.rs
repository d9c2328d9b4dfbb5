//! Phase 1 — histogram computation and exchange (§4.1).
//!
//! Every thread scans its section of both inputs; thread histograms
//! combine into machine histograms, which are exchanged over the network
//! and combined into the global histogram from which every machine
//! derives the partition→machine assignment and all receive-buffer sizes
//! ([`crate::shuffle::Landing::exchange`]).

use rsj_cluster::{phase, Exchange, JoinError, Meter};
use rsj_rdma::HostId;
use rsj_sim::SimCtx;
use rsj_workload::Tuple;

use crate::histogram::{assign_partitions, REL_R, REL_S};
use crate::phases::{barrier_wait, ClusterShared};

/// A build-probe task whose outer input exceeds this multiple of the
/// average is split into probe chunks shared among threads (§4.3: "more
/// than a predefined threshold"; §6.5 uses twice the average).
const SKEW_SPLIT_FACTOR: f64 = 2.0;

pub(crate) fn phase_histogram<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    chunks: [&[T]; 2],
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let np1 = 1usize << cfg.radix_bits.0;
    let m = cfg.cluster.machines;

    // Partitioning workers (every core but the receiver, core 0) scan the
    // slices they will partition in the network pass.
    if let Some(w) = core.checked_sub(1) {
        let inputs = [(REL_R, chunks[REL_R]), (REL_S, chunks[REL_S])];
        let rate = cfg.cluster.cost.histogram_rate;
        st.landing.count(ctx, meter, w, rate, &inputs);
    }
    barrier_wait(&st.local_barrier, ctx, phase::HISTOGRAM)?;

    // Core 0 exchanges the machine histogram and computes global state.
    if core == 0 {
        let ex = Exchange::new(&sh.fabric, mach, phase::HISTOGRAM);
        let global = st.landing.exchange(ctx, &ex, |global| {
            assign_partitions(global, m, cfg.assignment)
        })?;
        let s_total: u64 = global.counts[REL_S].iter().sum();
        let final_parts = (np1 as u64) << cfg.radix_bits.1;
        st.s_split_threshold.set(
            ((s_total as f64 / final_parts as f64) * SKEW_SPLIT_FACTOR)
                .ceil()
                .max(64.0) as usize,
        );

        // Work-sharing extension: pre-register a scratch region sized to
        // the largest partition this machine will own, so thieves can pull
        // fragments with one-sided READs during build-probe.
        if cfg.inter_machine_work_sharing {
            let max_part_bytes = st
                .landing
                .owned()
                .iter()
                .map(|&p| global.total(p) as usize * T::SIZE)
                .max()
                .unwrap_or(0);
            if max_part_bytes > 0 {
                let mr = sh
                    .fabric
                    .nic(HostId(mach))
                    .mrs
                    .register(ctx, max_part_bytes);
                st.registered_bytes
                    .set(st.registered_bytes.get() + mr.len() as u64);
                sh.scratch_mrs.borrow_mut()[mach] = Some(mr.remote_handle());
            }
        }
    }
    Ok(())
}
