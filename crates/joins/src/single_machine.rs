//! The single-machine parallel radix join baseline (§6.1, Figure 5a).
//!
//! A faithful reconstruction of the extended algorithm of Balkesen et
//! al. [4] the paper compares against: two partitioning passes, per-NUMA-
//! region task queues, and parallel build-probe over cache-sized
//! partitions. It runs on the simulation kernel so that its phase times are
//! directly comparable to the distributed join's: compute is charged at
//! the [`CostModel`] rates (the multi-core server preset reflects the
//! paper's SIMD/AVX-tuned partitioning passes).

use std::cell::RefCell;
use std::sync::Arc;

use rsj_cluster::{range_of, CostModel, Meter, PhaseTimes};
use rsj_sim::{SimBarrier, SimTime, Simulation};
use rsj_workload::{JoinResult, Tuple};

use crate::radix::{histogram_into, Partitioned, Partitioner};
use crate::task_queue::NumaQueues;
use crate::BucketTable;

/// Configuration of a single-machine join run.
#[derive(Clone, Debug)]
pub struct SingleMachineConfig {
    /// Worker threads (the paper's comparison uses 32 of the server's 40).
    pub cores: usize,
    /// NUMA regions (sockets) for the task queues; the server has 4.
    pub sockets: usize,
    /// Radix bits consumed by the first and second partitioning pass.
    pub radix_bits: (u32, u32),
    /// Per-thread processing rates.
    pub cost: CostModel,
}

impl SingleMachineConfig {
    /// The paper's high-end server setup: 32 cores over 4 sockets.
    pub fn server(radix_bits: (u32, u32)) -> SingleMachineConfig {
        SingleMachineConfig {
            cores: 32,
            sockets: 4,
            radix_bits,
            cost: CostModel::single_machine_server(),
        }
    }
}

/// Result and phase breakdown of a join run.
#[derive(Clone, Debug)]
pub struct SingleJoinOutcome {
    /// Verified join summary.
    pub result: JoinResult,
    /// Per-phase virtual times. For a single machine there is no network,
    /// so `network_partition` holds the *first* (still local) pass.
    pub phases: PhaseTimes,
}

struct Shared<T> {
    cfg: SingleMachineConfig,
    r: Vec<T>,
    s: Vec<T>,
    barrier: Arc<SimBarrier>,
    /// Per-thread first-pass output for both relations.
    pass1: Vec<RefCell<Option<PassOneOutput<T>>>>,
    pass2_tasks: NumaQueues<usize>,
    bp_tasks: NumaQueues<BuildProbeTask<T>>,
    result: RefCell<JoinResult>,
    marks: RefCell<Vec<SimTime>>,
}

/// First-pass output of one thread: `(partitioned R, partitioned S)`.
type PassOneOutput<T> = (Partitioned<T>, Partitioned<T>);
/// A build-probe task: the refined R and S fragments plus the index `j`.
type BuildProbeTask<T> = (Arc<Partitioned<T>>, Arc<Partitioned<T>>, usize);

/// Run the single-machine radix join to completion and return the verified
/// result with its phase breakdown.
pub fn run_single_machine_join<T: Tuple>(
    cfg: SingleMachineConfig,
    r: Vec<T>,
    s: Vec<T>,
) -> SingleJoinOutcome {
    assert!(cfg.cores >= 1 && cfg.sockets >= 1);
    let cores = cfg.cores;
    let shared = Arc::new(Shared {
        barrier: SimBarrier::new(cores),
        pass1: (0..cores).map(|_| RefCell::new(None)).collect(),
        pass2_tasks: NumaQueues::new(cfg.sockets),
        bp_tasks: NumaQueues::new(cfg.sockets),
        result: RefCell::new(JoinResult::default()),
        marks: RefCell::new(vec![SimTime::ZERO]),
        cfg,
        r,
        s,
    });

    let sim = Simulation::new();
    for t in 0..cores {
        let sh = Arc::clone(&shared);
        sim.spawn(format!("core-{t}"), move |ctx| worker(ctx, &sh, t));
    }
    sim.run();

    let marks = shared.marks.borrow().clone();
    assert_eq!(marks.len(), 5, "expected 4 phase boundaries");
    let phases = PhaseTimes {
        histogram: marks[1] - marks[0],
        network_partition: marks[2] - marks[1],
        local_partition: marks[3] - marks[2],
        build_probe: marks[4] - marks[3],
    };
    let result = *shared.result.borrow_mut();
    SingleJoinOutcome { result, phases }
}

fn worker<T: Tuple>(ctx: &rsj_sim::SimCtx, sh: &Shared<T>, t: usize) {
    let cfg = &sh.cfg;
    let (b1, b2) = cfg.radix_bits;
    let socket = t * cfg.sockets / cfg.cores;
    let mut meter = Meter::new();
    let my_r = &sh.r[range_of(sh.r.len(), cfg.cores, t)];
    let my_s = &sh.s[range_of(sh.s.len(), cfg.cores, t)];
    let mut pt = Partitioner::new();
    let mut r_hist = Vec::new();
    let mut s_hist = Vec::new();

    // --- Phase 1: histogram computation over both relations. The counts
    // feed the first pass's fused scatter, so the scan is not repeated.
    histogram_into(my_r, 0, b1, &mut r_hist);
    histogram_into(my_s, 0, b1, &mut s_hist);
    meter.charge_bytes(
        ctx,
        (my_r.len() + my_s.len()) * T::SIZE,
        cfg.cost.histogram_rate,
    );
    meter.flush(ctx);
    sync(ctx, sh);

    // --- Phase 2: first partitioning pass (thread-private outputs),
    // reusing the phase-1 histograms (fused histogram+scatter).
    let parted_r = pt.partition_with_hist(my_r, 0, b1, &r_hist);
    let parted_s = pt.partition_with_hist(my_s, 0, b1, &s_hist);
    meter.charge_bytes(
        ctx,
        (my_r.len() + my_s.len()) * T::SIZE,
        cfg.cost.partition_rate,
    );
    *sh.pass1[t].borrow_mut() = Some((parted_r, parted_s));
    meter.flush(ctx);
    if sync(ctx, sh) {
        // Leader enqueues second-pass tasks; a partition's buffers are
        // spread over all threads, so region assignment is round-robin.
        for p in 0..(1usize << b1) {
            sh.pass2_tasks.push(p % cfg.sockets, p);
        }
    }
    ctx.yield_now(); // let the leader's pushes land before popping

    // --- Phase 3: second (local) partitioning pass.
    let mut r_p: Vec<T> = Vec::new();
    let mut s_p: Vec<T> = Vec::new();
    while let Some(p) = sh.pass2_tasks.pop(socket) {
        // Assemble partition p from every thread's first-pass output
        // (pointer-level assembly in the original; the copy here is a
        // simulator artifact and is not charged).
        r_p.clear();
        s_p.clear();
        for slot in &sh.pass1 {
            let guard = slot.borrow();
            let (pr, ps) = guard.as_ref().expect("pass1 output missing");
            r_p.extend_from_slice(pr.part(p));
            s_p.extend_from_slice(ps.part(p));
        }
        meter.charge_bytes(
            ctx,
            (r_p.len() + s_p.len()) * T::SIZE,
            cfg.cost.partition_rate,
        );
        let sub_r = Arc::new(pt.partition(&r_p, b1, b2));
        let sub_s = Arc::new(pt.partition(&s_p, b1, b2));
        for j in 0..(1usize << b2) {
            if !sub_r.part(j).is_empty() || !sub_s.part(j).is_empty() {
                sh.bp_tasks
                    .push(socket, (Arc::clone(&sub_r), Arc::clone(&sub_s), j));
            }
        }
        meter.flush(ctx);
    }
    meter.flush(ctx);
    sync(ctx, sh);

    // --- Phase 4: build-probe over cache-sized partitions. One reusable
    // table per worker: rebuilds recycle the previous build's buffers.
    let mut local = JoinResult::default();
    let mut table = BucketTable::new(b1 + b2);
    while let Some((sub_r, sub_s, j)) = sh.bp_tasks.pop(socket) {
        let r_part = sub_r.part(j);
        let s_part = sub_s.part(j);
        table.rebuild(r_part);
        meter.charge_bytes(ctx, r_part.len() * T::SIZE, cfg.cost.build_rate);
        local.merge(table.probe_all(s_part));
        meter.charge_bytes(ctx, s_part.len() * T::SIZE, cfg.cost.probe_rate);
        meter.flush(ctx);
    }
    meter.flush(ctx);
    sh.result.borrow_mut().merge(local);
    sync(ctx, sh);
}

/// Barrier + phase-boundary mark. Returns `true` for the leader.
fn sync<T>(ctx: &rsj_sim::SimCtx, sh: &Shared<T>) -> bool {
    let leader = sh.barrier.wait(ctx);
    if leader {
        sh.marks.borrow_mut().push(ctx.now());
    }
    leader
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_workload::{generate_inner, generate_outer, naive_hash_join, Skew, Tuple16};

    fn small_cfg(cores: usize) -> SingleMachineConfig {
        SingleMachineConfig {
            cores,
            sockets: 2,
            radix_bits: (4, 3),
            cost: CostModel::single_machine_server(),
        }
    }

    fn flat<T: Tuple>(rel: &rsj_workload::Relation<T>) -> Vec<T> {
        rel.iter_all().copied().collect()
    }

    #[test]
    fn join_result_is_verified_against_oracle() {
        let r = generate_inner::<Tuple16>(10_000, 1, 1);
        let (s, oracle) = generate_outer::<Tuple16>(40_000, 10_000, 1, Skew::None, 2);
        let out = run_single_machine_join(small_cfg(4), flat(&r), flat(&s));
        oracle.verify(&out.result);
    }

    #[test]
    fn matches_naive_join_with_duplicates_and_misses() {
        // Keys outside the inner domain and duplicate inner keys.
        let r: Vec<Tuple16> = (0..500u64).map(|i| Tuple16::new(i % 100, i)).collect();
        let s: Vec<Tuple16> = (0..700u64).map(|i| Tuple16::new(i % 150, i)).collect();
        let expect = naive_hash_join(&r, &s);
        let out = run_single_machine_join(small_cfg(3), r, s);
        assert_eq!(out.result, expect);
    }

    #[test]
    fn phase_times_scale_with_core_count() {
        let r = generate_inner::<Tuple16>(50_000, 1, 3);
        let (s, _) = generate_outer::<Tuple16>(50_000, 50_000, 1, Skew::None, 4);
        let one = run_single_machine_join(small_cfg(1), flat(&r), flat(&s));
        let eight = run_single_machine_join(small_cfg(8), flat(&r), flat(&s));
        let speedup = one.phases.total().as_secs_f64() / eight.phases.total().as_secs_f64();
        assert!(
            (6.0..=8.5).contains(&speedup),
            "8-core speedup was {speedup:.2}"
        );
    }

    #[test]
    fn phase_times_are_linear_in_data_size() {
        let cfg = small_cfg(4);
        let r1 = generate_inner::<Tuple16>(20_000, 1, 5);
        let (s1, _) = generate_outer::<Tuple16>(20_000, 20_000, 1, Skew::None, 6);
        let r2 = generate_inner::<Tuple16>(40_000, 1, 5);
        let (s2, _) = generate_outer::<Tuple16>(40_000, 40_000, 1, Skew::None, 6);
        let small = run_single_machine_join(cfg.clone(), flat(&r1), flat(&s1));
        let large = run_single_machine_join(cfg, flat(&r2), flat(&s2));
        let ratio = large.phases.total().as_secs_f64() / small.phases.total().as_secs_f64();
        assert!(
            (1.9..=2.1).contains(&ratio),
            "doubling data gave ratio {ratio:.3}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let r = generate_inner::<Tuple16>(5_000, 1, 9);
        let (s, _) = generate_outer::<Tuple16>(5_000, 5_000, 1, Skew::Zipf(1.2), 10);
        let a = run_single_machine_join(small_cfg(4), flat(&r), flat(&s));
        let b = run_single_machine_join(small_cfg(4), flat(&r), flat(&s));
        assert_eq!(a.result, b.result);
        assert_eq!(a.phases.total(), b.phases.total());
    }

    #[test]
    fn empty_relations_join_to_zero() {
        let out = run_single_machine_join(small_cfg(2), Vec::<Tuple16>::new(), Vec::new());
        assert_eq!(out.result.matches, 0);
    }
}
