//! A distributed **group-by aggregation** — the second operator the
//! paper's §7 names as a direct beneficiary of its RDMA techniques.
//!
//! `SELECT key, COUNT(*), SUM(rid) FROM S GROUP BY key`, executed with the
//! join's machinery: histogram on the group key's low radix bits,
//! network partitioning with pooled interleaved RDMA sends, then local
//! per-partition hash aggregation. Each group ends up on exactly one
//! machine, so the partial results concatenate with no merge step.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rsj_cluster::{phase, ClusterRun, ClusterSpec, JoinError, Meter, PhaseTimes, QueryJob};
use rsj_core::shuffle::Landing;
use rsj_joins::claim;
use rsj_rdma::BufferPool;
use rsj_sim::SimCtx;
use rsj_workload::{Relation, Tuple};

use rsj_cluster::wire::REL_S;
use rsj_cluster::{run_direct, Attempts, Exchange, Runtime, SEND_DEPTH};

/// Configuration of a distributed aggregation.
#[derive(Clone, Debug)]
pub struct AggregationConfig {
    /// Cluster topology and rates.
    pub cluster: ClusterSpec,
    /// Radix bits of the network partitioning pass.
    pub radix_bits: u32,
    /// RDMA send-buffer size.
    pub rdma_buf_size: usize,
    /// Fabric parameter override (used by scaled experiment runs).
    pub fabric_override: Option<rsj_rdma::FabricConfig>,
    /// Deterministic fault schedule (DESIGN.md §8); `None` keeps the run
    /// event-for-event identical to a build without the fault plane.
    pub fault_plan: Option<rsj_rdma::FaultPlan>,
}

impl AggregationConfig {
    /// Paper-style defaults.
    pub fn new(cluster: ClusterSpec) -> AggregationConfig {
        AggregationConfig {
            cluster,
            radix_bits: 10,
            rdma_buf_size: 64 * 1024,
            fabric_override: None,
            fault_plan: None,
        }
    }
}

/// Verifiable summary of an aggregation: the group count plus two
/// checksums that the input determines exactly.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct AggregateResult {
    /// Number of distinct groups.
    pub groups: u64,
    /// Wrapping sum over all groups of `key × count` — must equal the
    /// wrapping sum of all input keys.
    pub key_weighted_count: u64,
    /// Wrapping sum over all groups of `SUM(rid)` — must equal the
    /// wrapping sum of all input rids.
    pub rid_sum: u64,
}

/// Outcome of a distributed aggregation run.
#[derive(Clone, Debug)]
pub struct AggregationOutcome {
    /// Verified aggregate summary.
    pub result: AggregateResult,
    /// Phase breakdown: `build_probe` holds the local hash aggregation.
    pub phases: PhaseTimes,
}

struct MachState<T> {
    landing: Landing<T>,
    next_task: Cell<usize>,
    result: RefCell<AggregateResult>,
}

/// Run the distributed aggregation over `s`. Without an
/// [`AggregationConfig::fault_plan`] the run cannot abort; with one
/// installed the aggregation completes byte-correct or returns a
/// structured [`JoinError`] — never hangs.
pub fn try_run_aggregation<T: Tuple>(
    cfg: AggregationConfig,
    s: Relation<T>,
) -> Result<AggregationOutcome, JoinError> {
    let fabric_cfg = cfg.cluster.fabric_config(cfg.fabric_override);
    let nic_costs = cfg.cluster.cost.nic;
    let plan = cfg.fault_plan.clone();

    let job = AggregationJob::new(cfg, s);
    run_direct(&job, fabric_cfg, nic_costs, plan)?;
    Ok(job.take_outcome().expect("finish records the outcome"))
}

/// The aggregation packaged as an [`rsj_cluster::QueryJob`], so a
/// [`rsj_cluster::QueryService`] can admit it alongside other operators
/// on a shared fabric. [`try_run_aggregation`] is the direct single-query
/// path over the same attach/run/finish sequence.
pub struct AggregationJob<T: Tuple> {
    cfg: AggregationConfig,
    attempts: Attempts<Relation<T>, Attempt<T>, AggregationOutcome>,
}

/// One attempt's state: per-machine state and per-machine send pools.
type Attempt<T> = (Vec<MachState<T>>, Vec<Arc<BufferPool>>);

impl<T: Tuple> AggregationJob<T> {
    /// Package a configuration and its loaded relation as a job.
    pub fn new(cfg: AggregationConfig, s: Relation<T>) -> Arc<AggregationJob<T>> {
        assert_eq!(s.machines(), cfg.cluster.machines);
        assert!(cfg.cluster.cores_per_machine >= 2);
        Arc::new(AggregationJob {
            cfg,
            attempts: Attempts::new(s),
        })
    }

    /// The recorded outcome of a finished run.
    pub fn take_outcome(&self) -> Option<AggregationOutcome> {
        self.attempts.take_outcome()
    }
}

impl<T: Tuple> QueryJob for AggregationJob<T> {
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
                    next_task: Cell::new(0),
                    result: RefCell::new(AggregateResult::default()),
                })
                .collect();
            let pools = (0..m)
                .map(|i| rt.make_pool(i, workers * SEND_DEPTH * np, self.cfg.rdma_buf_size))
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
        let (s, state) = self.attempts.state();
        worker(ctx, rt, &self.cfg, &state, s.chunk(machine), machine, core)
    }

    fn finish(&self, _rt: &Runtime, run: &ClusterRun) {
        assert_eq!(run.marks.len(), 4, "expected 3 phase boundaries");
        self.attempts.finish(|(states, _pools)| {
            // No local refinement pass: `local_partition` stays zero in the
            // fold.
            let mut result = AggregateResult::default();
            for st in states {
                let r = st.result.borrow_mut();
                result.groups += r.groups;
                result.key_weighted_count =
                    result.key_weighted_count.wrapping_add(r.key_weighted_count);
                result.rid_sum = result.rid_sum.wrapping_add(r.rid_sum);
            }
            AggregationOutcome {
                result,
                phases: PhaseTimes::from_events(&run.events),
            }
        });
    }
}

fn worker<T: Tuple>(
    ctx: &SimCtx,
    rt: &Runtime,
    cfg: &AggregationConfig,
    (states, pools): &Attempt<T>,
    chunk: &[T],
    mach: usize,
    core: usize,
) -> Result<(), JoinError> {
    let st = &states[mach];
    let m = rt.machines();
    let np = 1usize << cfg.radix_bits;
    let cost = &cfg.cluster.cost;
    let mut meter = Meter::for_quantum(cfg.cluster.meter_quantum_ns);

    // ---- Phase 1: histogram scan + assignment (statically round-robin;
    // the scan charges the same accounting as the join's, and its thread
    // histogram sizes the worker's kept vectors).
    let inputs = [(REL_S, chunk)];
    if core > 0 {
        st.landing
            .count(ctx, &mut meter, core - 1, cost.histogram_rate, &inputs);
    }
    if core == 0 {
        st.landing.assign((0..np).map(|p| p % m).collect());
    }
    rt.try_sync_named(ctx, phase::HISTOGRAM, mach)?;

    // ---- Phase 2: network partitioning pass on the group key.
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

    // ---- Phase 3: local hash aggregation per owned partition.
    let owned = st.landing.owned();
    let mut local = AggregateResult::default();
    while let Some(i) = claim(&st.next_task, owned.len()) {
        let pieces = st.landing.take(REL_S, owned[i]);
        // Group: key → (count, rid sum).
        #[expect(
            clippy::disallowed_types,
            reason = "a per-tuple map, drained below through a sorted key vector"
        )]
        let mut groups: std::collections::HashMap<u64, (u64, u64)> =
            std::collections::HashMap::new();
        for t in pieces.iter().flatten() {
            let e = groups.entry(t.key()).or_insert((0, 0));
            e.0 += 1;
            e.1 = e.1.wrapping_add(t.rid());
        }
        let tuples: usize = pieces.iter().map(Vec::len).sum();
        meter.charge_bytes(ctx, tuples * T::SIZE, cost.build_rate);
        // Drain in sorted key order: HashMap iteration order varies per
        // process, and the fold below must stay byte-identical run-to-run.
        let mut keys: Vec<u64> = groups.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let (count, rid_sum) = groups
                .remove(&key)
                .expect("key was just collected from the group map");
            local.groups += 1;
            local.key_weighted_count = local
                .key_weighted_count
                .wrapping_add(key.wrapping_mul(count));
            local.rid_sum = local.rid_sum.wrapping_add(rid_sum);
        }
        meter.flush(ctx);
    }
    meter.flush(ctx);
    {
        let mut r = st.result.borrow_mut();
        r.groups += local.groups;
        r.key_weighted_count = r.key_weighted_count.wrapping_add(local.key_weighted_count);
        r.rid_sum = r.rid_sum.wrapping_add(local.rid_sum);
    }
    rt.try_sync_named(ctx, phase::BUILD_PROBE, mach)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_workload::{generate_outer, Skew, Tuple16};
    use std::collections::HashSet;

    fn cfg(machines: usize, cores: usize) -> AggregationConfig {
        let mut spec = ClusterSpec::qdr_cluster(machines);
        spec.cores_per_machine = cores;
        let mut c = AggregationConfig::new(spec);
        c.radix_bits = 4;
        c.rdma_buf_size = 1024;
        c
    }

    #[test]
    fn aggregation_checksums_match_the_input() {
        let machines = 3;
        let (s, _) = generate_outer::<Tuple16>(30_000, 2_000, machines, Skew::Zipf(1.1), 50);
        let distinct: HashSet<u64> = s.iter_all().map(|t| t.key()).collect();
        let key_sum = s.iter_all().fold(0u64, |a, t| a.wrapping_add(t.key()));
        let rid_sum = s.iter_all().fold(0u64, |a, t| a.wrapping_add(t.rid()));
        let out = try_run_aggregation(cfg(machines, 3), s).expect("aggregation aborted");
        assert_eq!(out.result.groups, distinct.len() as u64);
        assert_eq!(out.result.key_weighted_count, key_sum);
        assert_eq!(out.result.rid_sum, rid_sum);
    }

    #[test]
    fn every_group_lands_on_exactly_one_machine() {
        // The group count being exact is the proof: double-counted groups
        // would inflate it.
        let machines = 4;
        let (s, _) = generate_outer::<Tuple16>(8_000, 500, machines, Skew::None, 51);
        let out = try_run_aggregation(cfg(machines, 3), s).expect("aggregation aborted");
        assert_eq!(out.result.groups, 500);
    }

    #[test]
    fn deterministic_and_phase_accounted() {
        let machines = 2;
        let run = || {
            let (s, _) = generate_outer::<Tuple16>(10_000, 1_000, machines, Skew::None, 52);
            try_run_aggregation(cfg(machines, 3), s).expect("aggregation aborted")
        };
        let a = run();
        let b = run();
        assert_eq!(a.result, b.result);
        assert_eq!(a.phases.total(), b.phases.total());
        assert!(a.phases.network_partition.as_nanos() > 0);
        assert!(a.phases.build_probe.as_nanos() > 0);
    }

    #[test]
    fn repeated_in_process_runs_are_byte_identical() {
        // Each repetition builds fresh HashMaps whose RandomState draws a
        // new SipHash seed, so any order-dependent fold over them would
        // diverge across these runs. Five repetitions in one process pin
        // the sorted-drain fix in the build/probe phase.
        let machines = 3;
        let run = || {
            let (s, _) = generate_outer::<Tuple16>(12_000, 900, machines, Skew::Zipf(1.05), 53);
            try_run_aggregation(cfg(machines, 2), s).expect("aggregation aborted")
        };
        let first = run();
        for rep in 1..5 {
            let again = run();
            assert_eq!(again.result, first.result, "repetition {rep} diverged");
            assert_eq!(
                again.phases.total(),
                first.phases.total(),
                "repetition {rep} phase times diverged"
            );
        }
    }
}
