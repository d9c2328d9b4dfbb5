//! Phase 3 — local partitioning pass (§4.2.3).
//!
//! Each machine refines its assigned partitions on the next b₂ bits to
//! cache-sized fragments, then enqueues the build-probe tasks. The
//! optional [`phase_local_parallel`] extension additionally shares the
//! second pass of oversized partitions among the machine's cores.

use std::sync::Arc;

use rsj_cluster::{phase, JoinError, Meter};
use rsj_joins::{claim, Partitioner};
use rsj_sim::SimCtx;
use rsj_workload::Tuple;

use crate::histogram::{REL_R, REL_S};
use crate::phases::{barrier_wait, task_bytes, BpTask, ClusterShared, RELS};

pub(crate) fn phase_local<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let (b1, b2) = cfg.radix_bits;
    let rate = cfg.cluster.cost.partition_rate;

    if cfg.parallel_local_pass {
        return phase_local_parallel(ctx, sh, mach, core, meter);
    }

    let owned = st.landing.owned();
    let mut pt = Partitioner::new();
    while let Some(i) = claim(&st.next_local_task, owned.len()) {
        let p = owned[i];
        // Partitioned straight out of the landed pieces; each relation's
        // pieces are freed as soon as its second pass is done.
        let pieces = RELS.map(|rel| st.landing.take(rel, p));
        let tuples: usize = pieces.iter().flatten().map(Vec::len).sum();
        meter.charge_bytes(ctx, tuples * T::SIZE, rate);
        let [sub_r, sub_s] = pieces.map(|landed| Arc::new(pt.partition_pieces(&landed, b1, b2)));
        // The pushes are externally visible (sibling cores pop the queue
        // and poll the queued-bytes gauge), so the partitioning cost must
        // be settled first or the queue order becomes settlement-mode
        // dependent.
        meter.flush(ctx);
        for j in 0..(1usize << b2) {
            if !sub_r.part(j).is_empty() || !sub_s.part(j).is_empty() {
                let t = BpTask::BuildProbe {
                    r: Arc::clone(&sub_r),
                    s: Arc::clone(&sub_s),
                    j,
                };
                st.bp_queued_bytes
                    .set(st.bp_queued_bytes.get() + task_bytes(&t));
                st.bp_tasks.push(0, t);
            }
        }
    }
    meter.flush(ctx);
    Ok(())
}

/// Parallel local pass (extension; see
/// [`crate::DistJoinConfig::parallel_local_pass`]).
///
/// Three machine-local stages separated by local barriers:
/// 1. assemble each owned partition into one `Vec`;
/// 2. second-pass partition the assembled inputs in *slices*, drained by
///    all cores from a shared task list — so a giant skewed partition is
///    processed by every core instead of one;
/// 3. concatenate the slice outputs per final fragment and enqueue the
///    build-probe tasks.
fn phase_local_parallel<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let (b1, b2) = cfg.radix_bits;
    let rate = cfg.cluster.cost.partition_rate;
    let cores = cfg.cluster.cores_per_machine;
    let owned = st.landing.owned();

    // Stage 0: one core sizes the shared slots.
    if core == 0 {
        *st.lp_assembled.borrow_mut() = (0..owned.len()).map(|_| None).collect();
        *st.lp_outputs.borrow_mut() = (0..owned.len()).map(|_| [Vec::new(), Vec::new()]).collect();
    }
    barrier_wait(&st.local_barrier, ctx, phase::LOCAL_PARTITION)?;

    // Stage 1: assemble owned partitions, so slices can index them.
    while let Some(i) = claim(&st.next_local_task, owned.len()) {
        let p = owned[i];
        let rel_parts = RELS.map(|rel| st.landing.take(rel, p).concat());
        st.lp_assembled.borrow_mut()[i] = Some(Arc::new(rel_parts));
    }
    // Leader of this barrier builds the slice task list from the
    // assembled sizes, aiming for several tasks per core so a giant
    // partition spreads across the whole machine.
    if barrier_wait(&st.local_barrier, ctx, phase::LOCAL_PARTITION)? {
        let assembled = st.lp_assembled.borrow_mut();
        let total_tuples: usize = assembled
            .iter()
            .flatten()
            .map(|a| a[REL_R].len() + a[REL_S].len())
            .sum();
        let target = (total_tuples / (cores * 8)).max(256);
        let mut tasks = Vec::new();
        let mut outputs = st.lp_outputs.borrow_mut();
        for (i, slot) in assembled.iter().enumerate() {
            let a = slot.as_ref().expect("assembly incomplete");
            for rel in RELS {
                let len = a[rel].len();
                let slices = len.div_ceil(target).max(1);
                outputs[i][rel] = (0..slices).map(|_| None).collect();
                for k in 0..slices {
                    let lo = k * len / slices;
                    let hi = (k + 1) * len / slices;
                    tasks.push((i, rel, k, lo..hi));
                }
            }
        }
        *st.lp_tasks.borrow_mut() = tasks;
    }
    ctx.yield_now();

    // Stage 2: every core drains slice tasks; a skewed partition's slices
    // are interleaved with everything else.
    let n_tasks = st.lp_tasks.borrow().len();
    let mut pt = Partitioner::new();
    while let Some(t) = claim(&st.next_lp_task, n_tasks) {
        let (i, rel, k, range) = st.lp_tasks.borrow_mut()[t].clone();
        let assembled = Arc::clone(
            st.lp_assembled.borrow_mut()[i]
                .as_ref()
                .expect("fragment assembled by stage 1 before barrier"),
        );
        let slice = &assembled[rel][range];
        let parted = pt.partition(slice, b1, b2);
        meter.charge_bytes(ctx, slice.len() * T::SIZE, rate);
        st.lp_outputs.borrow_mut()[i][rel][k] = Some(parted);
        meter.flush(ctx);
    }
    meter.flush(ctx);
    barrier_wait(&st.local_barrier, ctx, phase::LOCAL_PARTITION)?;

    // Stage 3: concatenate slice outputs per fragment and enqueue
    // build-probe tasks (uncharged assembly, same convention as the
    // sequential path's pointer-level combining).
    while let Some(i) = claim(&st.next_lp_emit, owned.len()) {
        let [sub_r, sub_s] = RELS.map(|rel| {
            let slices: Vec<_> = st.lp_outputs.borrow_mut()[i][rel]
                .iter_mut()
                .map(|s| s.take().expect("slice output missing"))
                .collect();
            Arc::new(rsj_joins::concat_partitioned(&slices, 1usize << b2))
        });
        for j in 0..(1usize << b2) {
            if !sub_r.part(j).is_empty() || !sub_s.part(j).is_empty() {
                let t = BpTask::BuildProbe {
                    r: Arc::clone(&sub_r),
                    s: Arc::clone(&sub_s),
                    j,
                };
                st.bp_queued_bytes
                    .set(st.bp_queued_bytes.get() + task_bytes(&t));
                st.bp_tasks.push(0, t);
            }
        }
    }
    Ok(())
}
