//! Phase 1 — histogram computation and exchange (§4.1).
//!
//! Every thread scans its section of both inputs; thread histograms
//! combine into machine histograms, which are exchanged over the network
//! and combined into the global histogram from which every machine
//! derives the partition→machine assignment and all receive-buffer sizes.

use std::sync::Arc;

use rsj_cluster::{phase, Exchange, JoinError, Meter, WireTag};
use rsj_rdma::HostId;
use rsj_sim::SimCtx;
use rsj_workload::Tuple;

use crate::histogram::{assign_partitions, Histogram, REL_R, REL_S};
use crate::phases::{barrier_wait, sender_index, ClusterShared, GlobalInfo};

/// A build-probe task whose outer input exceeds this multiple of the
/// average is split into probe chunks shared among threads (§4.3: "more
/// than a predefined threshold"; §6.5 uses twice the average).
const SKEW_SPLIT_FACTOR: f64 = 2.0;

pub(crate) fn phase_histogram<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let b1 = cfg.radix_bits.0;
    let np1 = 1usize << b1;
    let m = cfg.cluster.machines;

    // Partitioning workers scan the slices they will partition in the
    // network pass and add their thread histograms into the machine's;
    // the dedicated receiver core has no slice.
    if let Some(w) = sender_index(core) {
        let inputs = [(REL_R, &st.r_chunk[..]), (REL_S, &st.s_chunk[..])];
        let hist = st.landing.count(w, &inputs);
        for (_, chunk) in inputs {
            let scanned = st.landing.slice_len(w, chunk);
            meter.charge_bytes(ctx, scanned * T::SIZE, cfg.cluster.cost.histogram_rate);
        }
        st.machine_hist.borrow_mut().add(&hist);
        meter.flush(ctx);
    }
    barrier_wait(&st.local_barrier, ctx, phase::HISTOGRAM)?;

    // Core 0 exchanges the machine histogram and computes global state.
    if core == 0 {
        let nic = sh.fabric.nic(HostId(mach));
        let mine = st.machine_hist.borrow().clone();
        let ex = Exchange::new(&sh.fabric, mach, phase::HISTOGRAM);
        let mut machine_hists: Vec<Histogram> = vec![Histogram::zeros(np1); m];
        ex.all_to_all(
            ctx,
            WireTag::Histogram,
            ex.peers(),
            &mine.encode(),
            |src, payload| machine_hists[src] = Histogram::decode(&payload),
        )?;
        machine_hists[mach] = mine;

        let mut global = Histogram::zeros(np1);
        let mut remote = Histogram::zeros(np1);
        for (i, h) in machine_hists.iter().enumerate() {
            global.add(h);
            if i != mach {
                remote.add(h);
            }
        }
        st.landing
            .assign(assign_partitions(&global, m, cfg.assignment));
        st.landing.expect(remote);
        let owned = st.landing.owned();
        let s_total: u64 = global.counts[REL_S].iter().sum();
        let final_parts = (np1 as u64) << cfg.radix_bits.1;
        let s_split_threshold = ((s_total as f64 / final_parts as f64) * SKEW_SPLIT_FACTOR)
            .ceil()
            .max(64.0) as usize;

        // Work-sharing extension: pre-register a scratch region sized to
        // the largest partition this machine will own, so thieves can pull
        // fragments with one-sided READs during build-probe.
        if cfg.inter_machine_work_sharing {
            let max_part_bytes = owned
                .iter()
                .map(|&p| global.total(p) as usize * T::SIZE)
                .max()
                .unwrap_or(0);
            if max_part_bytes > 0 {
                let mr = nic.mrs.register(ctx, max_part_bytes);
                st.registered_bytes
                    .set(st.registered_bytes.get() + mr.len() as u64);
                sh.scratch_mrs.borrow_mut()[mach] = Some(mr.remote_handle());
            }
        }

        *st.info.borrow_mut() = Some(Arc::new(GlobalInfo {
            machine_hists,
            s_split_threshold,
        }));
    }
    Ok(())
}
