//! A distributed **sort-merge join** built from the same RDMA techniques
//! as the radix hash join — the generalization the paper's §7 claims:
//! *"RDMA buffer pooling, reuse of RDMA buffers, and interleaving
//! computation and communication are general techniques which can be used
//! to create distributed versions of many database operators like
//! sort-merge joins or aggregation."*
//!
//! Structure: the histogram phase and the network partitioning phase are
//! the hash join's own shuffle ([`rsj_core::shuffle`]: histogram exchange
//! and round-robin assignment, partition on low radix bits, pooled
//! double-buffered sends, one receiver core, every partition checked
//! against the histograms); the local phase then *sorts*
//! each assigned partition of both relations and merge-joins them, instead
//! of refining and hashing. Comparing the two operators on the same
//! cluster reproduces the hash-vs-sort discussion of §2.2/[3].

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rsj_cluster::{phase, ClusterRun, ClusterSpec, JoinError, Meter, PhaseTimes, QueryJob};
use rsj_core::shuffle::Landing;
use rsj_joins::{claim, merge_join, sort_by_key};
use rsj_rdma::BufferPool;
use rsj_sim::SimCtx;
use rsj_workload::{JoinResult, Relation, Tuple};

use rsj_cluster::wire::{REL_R, REL_S};
use rsj_cluster::{run_direct, Attempts, Exchange, Runtime, SEND_DEPTH};

/// Configuration of a distributed sort-merge join.
#[derive(Clone, Debug)]
pub struct SortMergeConfig {
    /// Cluster topology and rates.
    pub cluster: ClusterSpec,
    /// Radix bits of the (single) network partitioning pass.
    pub radix_bits: u32,
    /// RDMA send-buffer size.
    pub rdma_buf_size: usize,
    /// Fabric parameter override (used by scaled experiment runs).
    pub fabric_override: Option<rsj_rdma::FabricConfig>,
    /// Deterministic fault schedule (DESIGN.md §8); `None` keeps the run
    /// event-for-event identical to a build without the fault plane.
    pub fault_plan: Option<rsj_rdma::FaultPlan>,
}

impl SortMergeConfig {
    /// Paper-style defaults on the given cluster.
    pub fn new(cluster: ClusterSpec) -> SortMergeConfig {
        SortMergeConfig {
            cluster,
            radix_bits: 10,
            rdma_buf_size: 64 * 1024,
            fabric_override: None,
            fault_plan: None,
        }
    }
}

/// Outcome of a distributed sort-merge join run.
#[derive(Clone, Debug)]
pub struct SortMergeOutcome {
    /// Verified join summary.
    pub result: JoinResult,
    /// Phase breakdown: `local_partition` holds the sort, `build_probe`
    /// the merge-join.
    pub phases: PhaseTimes,
}

struct MachState<T> {
    landing: Landing<T>,
    /// Partition → its sorted `[R, S]`, from the sort to the merge phase.
    sorted: RefCell<Vec<[Vec<T>; 2]>>,
    next_task: Cell<usize>,
    result: RefCell<JoinResult>,
}

/// Run the distributed sort-merge join (two-sided interleaved RDMA).
/// Without a [`SortMergeConfig::fault_plan`] the run cannot abort; with
/// one installed the join completes byte-correct or returns a structured
/// [`JoinError`] — never hangs.
pub fn try_run_sort_merge_join<T: Tuple>(
    cfg: SortMergeConfig,
    r: Relation<T>,
    s: Relation<T>,
) -> Result<SortMergeOutcome, JoinError> {
    let fabric_cfg = cfg.cluster.fabric_config(cfg.fabric_override);
    let nic_costs = cfg.cluster.cost.nic;
    let plan = cfg.fault_plan.clone();

    let job = SortMergeJob::new(cfg, r, s);
    run_direct(&job, fabric_cfg, nic_costs, plan)?;
    Ok(job.take_outcome().expect("finish records the outcome"))
}

/// The sort-merge join packaged as an [`rsj_cluster::QueryJob`], so a
/// [`rsj_cluster::QueryService`] can admit it alongside other operators
/// on a shared fabric. [`try_run_sort_merge_join`] is the direct
/// single-query path over the same attach/run/finish sequence.
pub struct SortMergeJob<T: Tuple> {
    cfg: SortMergeConfig,
    attempts: Attempts<(Relation<T>, Relation<T>), Attempt<T>, SortMergeOutcome>,
}

/// One attempt's state: per-machine state and per-machine send pools.
type Attempt<T> = (Vec<MachState<T>>, Vec<Arc<BufferPool>>);

impl<T: Tuple> SortMergeJob<T> {
    /// Package a configuration and its loaded relations as a job.
    pub fn new(cfg: SortMergeConfig, r: Relation<T>, s: Relation<T>) -> Arc<SortMergeJob<T>> {
        let m = cfg.cluster.machines;
        assert_eq!(r.machines(), m);
        assert_eq!(s.machines(), m);
        assert!(
            cfg.cluster.cores_per_machine >= 2,
            "one core receives, the rest partition"
        );
        Arc::new(SortMergeJob {
            cfg,
            attempts: Attempts::new((r, s)),
        })
    }

    /// The recorded outcome of a finished run.
    pub fn take_outcome(&self) -> Option<SortMergeOutcome> {
        self.attempts.take_outcome()
    }
}

impl<T: Tuple> QueryJob for SortMergeJob<T> {
    fn machines(&self) -> usize {
        self.cfg.cluster.machines
    }

    fn cores(&self) -> usize {
        self.cfg.cluster.cores_per_machine
    }

    fn attach(&self, rt: &Arc<Runtime>) {
        let m = self.cfg.cluster.machines;
        let np = 1usize << self.cfg.radix_bits;
        let workers = self.cfg.cluster.cores_per_machine - 1;
        self.attempts.attach(|| {
            let states = (0..m)
                .map(|i| MachState {
                    landing: Landing::new(i, self.cfg.radix_bits, workers),
                    sorted: RefCell::new(vec![[Vec::new(), Vec::new()]; np]),
                    next_task: Cell::new(0),
                    result: RefCell::new(JoinResult::default()),
                })
                .collect();
            let pools = (0..m)
                .map(|i| rt.make_pool(i, workers * SEND_DEPTH * np * 2, self.cfg.rdma_buf_size))
                .collect();
            (states, pools)
        });
    }

    fn run_worker(
        &self,
        ctx: &SimCtx,
        rt: &Runtime,
        machine: usize,
        core: usize,
    ) -> Result<(), JoinError> {
        let ((r, s), state) = self.attempts.state();
        let inputs = [(REL_R, r.chunk(machine)), (REL_S, s.chunk(machine))];
        worker(ctx, rt, &self.cfg, &state, inputs, machine, core)
    }

    fn finish(&self, _rt: &Runtime, run: &ClusterRun) {
        assert_eq!(run.marks.len(), 5, "expected 4 phase boundaries");
        self.attempts.finish(|(states, _pools)| {
            let mut result = JoinResult::default();
            for st in states {
                result.merge(*st.result.borrow());
            }
            SortMergeOutcome {
                result,
                phases: PhaseTimes::from_events(&run.events),
            }
        });
    }
}

fn worker<T: Tuple>(
    ctx: &SimCtx,
    rt: &Runtime,
    cfg: &SortMergeConfig,
    (states, pools): &Attempt<T>,
    inputs: [(usize, &[T]); 2],
    mach: usize,
    core: usize,
) -> Result<(), JoinError> {
    let st = &states[mach];
    let m = rt.machines();
    let np = 1usize << cfg.radix_bits;
    let cost = &cfg.cluster.cost;
    let mut meter = Meter::for_quantum(cfg.cluster.meter_quantum_ns);

    // ---- Phase 1: histogram + exchange (core 0 coordinates).
    if core > 0 {
        st.landing
            .count(ctx, &mut meter, core - 1, cost.histogram_rate, &inputs);
    }
    rt.try_sync_quiet(ctx)?;
    if core == 0 {
        // Everyone derives the same round-robin assignment, and the
        // others' totals size the staging.
        let ex = Exchange::new(&rt.fabric, mach, phase::HISTOGRAM);
        st.landing
            .exchange(ctx, &ex, |_| (0..np).map(|p| p % m).collect())?;
    }
    rt.try_sync_named(ctx, phase::HISTOGRAM, mach)?;

    // ---- Phase 2: network partitioning pass.
    let ex = Exchange::new(&rt.fabric, mach, phase::NETWORK_PARTITION);
    let copy = |meter: &mut Meter, len| meter.charge_bytes(ctx, len, cost.memcpy_rate);
    let rate = cost.partition_rate;
    st.landing.shuffle(
        ctx,
        &mut meter,
        &ex,
        pools,
        core,
        rate,
        &inputs,
        copy,
        Exchange::send,
    )?;
    rt.try_sync_named(ctx, phase::NETWORK_PARTITION, mach)?;

    // ---- Phase 3: sort every assigned partition of both relations.
    let owned = st.landing.owned();
    while let Some(i) = claim(&st.next_task, owned.len()) {
        let p = owned[i];
        let parts = [REL_R, REL_S].map(|rel| {
            let mut tuples = st.landing.take(rel, p).concat();
            sort_by_key(&mut tuples);
            meter.charge_bytes(ctx, tuples.len() * T::SIZE, cost.sort_rate);
            tuples
        });
        st.sorted.borrow_mut()[p] = parts;
        meter.flush(ctx);
    }
    meter.flush(ctx);
    rt.try_sync_named(ctx, phase::LOCAL_PARTITION, mach)?;

    // ---- Phase 4: merge-join each sorted partition pair.
    st.next_task.set(0);
    rt.try_sync_quiet(ctx)?;
    let mut local = JoinResult::default();
    while let Some(i) = claim(&st.next_task, owned.len()) {
        let [r_p, s_p] = std::mem::take(&mut st.sorted.borrow_mut()[owned[i]]);
        local.merge(merge_join(&r_p, &s_p));
        meter.charge_bytes(ctx, (r_p.len() + s_p.len()) * T::SIZE, cost.merge_rate);
        meter.flush(ctx);
    }
    meter.flush(ctx);
    st.result.borrow_mut().merge(local);
    rt.try_sync_named(ctx, phase::BUILD_PROBE, mach)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_workload::{generate_inner, generate_outer, Skew, Tuple16};

    fn small_cfg(machines: usize, cores: usize) -> SortMergeConfig {
        let mut spec = ClusterSpec::fdr_cluster(machines);
        spec.cores_per_machine = cores;
        let mut cfg = SortMergeConfig::new(spec);
        cfg.radix_bits = 4;
        cfg.rdma_buf_size = 1024;
        cfg
    }

    #[test]
    fn sort_merge_join_is_verified_against_oracle() {
        let machines = 3;
        let r = generate_inner::<Tuple16>(8_000, machines, 31);
        let (s, oracle) = generate_outer::<Tuple16>(24_000, 8_000, machines, Skew::None, 32);
        let out =
            try_run_sort_merge_join(small_cfg(machines, 3), r, s).expect("sort-merge join aborted");
        oracle.verify(&out.result);
        assert!(out.phases.total().as_nanos() > 0);
    }

    #[test]
    fn handles_skewed_keys() {
        let machines = 2;
        let r = generate_inner::<Tuple16>(2_000, machines, 33);
        let (s, oracle) = generate_outer::<Tuple16>(30_000, 2_000, machines, Skew::Zipf(1.2), 34);
        let out =
            try_run_sort_merge_join(small_cfg(machines, 3), r, s).expect("sort-merge join aborted");
        oracle.verify(&out.result);
    }

    #[test]
    fn agrees_with_the_hash_join() {
        use rsj_core::{try_run_distributed_join, DistJoinConfig};
        let machines = 2;
        let mk = || {
            let r = generate_inner::<Tuple16>(5_000, machines, 35);
            let (s, _) = generate_outer::<Tuple16>(10_000, 5_000, machines, Skew::None, 36);
            (r, s)
        };
        let (r1, s1) = mk();
        let sm = try_run_sort_merge_join(small_cfg(machines, 3), r1, s1)
            .expect("sort-merge join aborted");
        let (r2, s2) = mk();
        let mut hj_cfg = DistJoinConfig::new({
            let mut spec = ClusterSpec::fdr_cluster(machines);
            spec.cores_per_machine = 3;
            spec
        });
        hj_cfg.radix_bits = (4, 2);
        hj_cfg.rdma_buf_size = 1024;
        let hj = try_run_distributed_join(hj_cfg, r2, s2).expect("distributed join aborted");
        assert_eq!(sm.result, hj.result);
    }

    #[test]
    fn hash_join_is_faster_than_sort_merge() {
        // §2.2/[3]: "the radix hash join is still superior to sort-merge
        // approaches" at the paper's hardware rates.
        use rsj_core::{try_run_distributed_join, DistJoinConfig};
        let machines = 3;
        let n = 60_000u64;
        let r = generate_inner::<Tuple16>(n, machines, 37);
        let (s, _) = generate_outer::<Tuple16>(n, n, machines, Skew::None, 38);
        let sm =
            try_run_sort_merge_join(small_cfg(machines, 4), r, s).expect("sort-merge join aborted");
        let r = generate_inner::<Tuple16>(n, machines, 37);
        let (s, _) = generate_outer::<Tuple16>(n, n, machines, Skew::None, 38);
        let mut hj_cfg = DistJoinConfig::new({
            let mut spec = ClusterSpec::fdr_cluster(machines);
            spec.cores_per_machine = 4;
            spec
        });
        hj_cfg.radix_bits = (4, 3);
        hj_cfg.rdma_buf_size = 1024;
        let hj = try_run_distributed_join(hj_cfg, r, s).expect("distributed join aborted");
        assert!(
            sm.phases.total() > hj.phases.total(),
            "sort-merge {:?} must exceed hash {:?}",
            sm.phases.total(),
            hj.phases.total()
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let machines = 2;
            let r = generate_inner::<Tuple16>(4_000, machines, 39);
            let (s, _) = generate_outer::<Tuple16>(8_000, 4_000, machines, Skew::None, 40);
            try_run_sort_merge_join(small_cfg(machines, 3), r, s).expect("sort-merge join aborted")
        };
        let a = run();
        let b = run();
        assert_eq!(a.result, b.result);
        assert_eq!(a.phases.total(), b.phases.total());
    }
}
