//! The **cyclo-join** of Frey et al. (§2.3 of the paper): a ring-topology
//! join in which one relation stays stationary, fragmented across all
//! machines, while the other rotates from machine to machine over RDMA.
//!
//! Implemented as a comparison baseline: after `NM` probe rounds every
//! outer fragment has visited every inner fragment, so no repartitioning
//! is ever needed — at the price of (NM−1)/NM of the outer relation
//! crossing the wire *per round* and every probe hitting a machine-sized
//! (cache-cold) hash table. The experiment comparing it to the radix hash
//! join quantifies why the paper's partitioned approach wins.

use std::cell::RefCell;
use std::sync::Arc;

use rsj_cluster::{phase, ClusterRun, ClusterSpec, JoinError, Meter, PhaseTimes, QueryJob};
use rsj_joins::BucketTable;
use rsj_sim::SimCtx;
use rsj_workload::{decode_all, JoinResult, Relation, Tuple};

use rsj_cluster::wire::REL_S;
use rsj_cluster::{range_of, run_direct, Attempts, Exchange, Runtime, WireTag};

/// Phase name of the rotation rounds, for error attribution.
const PHASE_ROTATE: &str = phase::BUILD_PROBE;

/// Build/probe derating against the machine-sized (cache-cold) table,
/// mirroring the no-partitioning join's ~2x penalty (§2.2, [4]).
const CACHE_MISS_DERATING: f64 = 2.0;

/// Configuration of a cyclo-join run.
#[derive(Clone, Debug)]
pub struct CycloJoinConfig {
    /// Cluster topology and rates.
    pub cluster: ClusterSpec,
    /// Fabric parameter override (used by scaled experiment runs).
    pub fabric_override: Option<rsj_rdma::FabricConfig>,
    /// Deterministic fault schedule (DESIGN.md §8); `None` keeps the run
    /// event-for-event identical to a build without the fault plane.
    pub fault_plan: Option<rsj_rdma::FaultPlan>,
}

impl CycloJoinConfig {
    /// Defaults: no fabric override, no fault plan.
    pub fn new(cluster: ClusterSpec) -> CycloJoinConfig {
        CycloJoinConfig {
            cluster,
            fabric_override: None,
            fault_plan: None,
        }
    }
}

/// Outcome of a cyclo-join run.
#[derive(Clone, Debug)]
pub struct CycloJoinOutcome {
    /// Verified join summary.
    pub result: JoinResult,
    /// Phase breakdown: `build_probe` covers all probe rounds including
    /// the rotation transfers they overlap with.
    pub phases: PhaseTimes,
}

struct MachState<T> {
    table: RefCell<Option<Arc<BucketTable<T>>>>,
    /// The outer fragment received by the last rotation (`None` in the
    /// first round, which probes the home S chunk in place); replaced by
    /// core 0 after every rotation, read by all cores after the barrier.
    fragment: RefCell<Option<Arc<Vec<T>>>>,
    result: RefCell<JoinResult>,
}

/// Run the cyclo-join: `r` stays stationary, `s` rotates around the ring.
/// Without a [`CycloJoinConfig::fault_plan`] the run cannot abort; with
/// one installed the join completes byte-correct or returns a structured
/// [`JoinError`] — never hangs.
pub fn try_run_cyclo_join<T: Tuple>(
    cfg: CycloJoinConfig,
    r: Relation<T>,
    s: Relation<T>,
) -> Result<CycloJoinOutcome, JoinError> {
    let fabric_cfg = cfg.cluster.fabric_config(cfg.fabric_override);
    let nic_costs = cfg.cluster.cost.nic;
    let plan = cfg.fault_plan.clone();

    let job = CycloJoinJob::new(cfg, r, s);
    run_direct(&job, fabric_cfg, nic_costs, plan)?;
    Ok(job.take_outcome().expect("finish records the outcome"))
}

/// The cyclo-join packaged as an [`rsj_cluster::QueryJob`], so a
/// [`rsj_cluster::QueryService`] can admit it alongside other operators
/// on a shared fabric. [`try_run_cyclo_join`] is the direct single-query
/// path over the same attach/run/finish sequence.
pub struct CycloJoinJob<T: Tuple> {
    cfg: CycloJoinConfig,
    attempts: Attempts<(Relation<T>, Relation<T>), Attempt<T>, CycloJoinOutcome>,
}

/// One attempt's state: one entry per machine of the ring.
type Attempt<T> = Vec<MachState<T>>;

impl<T: Tuple> CycloJoinJob<T> {
    /// Package a configuration and its loaded relations as a job.
    pub fn new(cfg: CycloJoinConfig, r: Relation<T>, s: Relation<T>) -> Arc<CycloJoinJob<T>> {
        let m = cfg.cluster.machines;
        assert_eq!(r.machines(), m);
        assert_eq!(s.machines(), m);
        assert!(cfg.cluster.cores_per_machine >= 1);
        Arc::new(CycloJoinJob {
            cfg,
            attempts: Attempts::new((r, s)),
        })
    }

    /// The recorded outcome of a finished run.
    pub fn take_outcome(&self) -> Option<CycloJoinOutcome> {
        self.attempts.take_outcome()
    }
}

impl<T: Tuple> QueryJob for CycloJoinJob<T> {
    fn machines(&self) -> usize {
        self.cfg.cluster.machines
    }

    fn cores(&self) -> usize {
        self.cfg.cluster.cores_per_machine
    }

    fn attach(&self, _rt: &Arc<Runtime>) {
        let m = self.cfg.cluster.machines;
        self.attempts.attach(|| {
            (0..m)
                .map(|_| MachState {
                    table: RefCell::new(None),
                    fragment: RefCell::new(None),
                    result: RefCell::new(JoinResult::default()),
                })
                .collect()
        });
    }

    fn run_worker(
        &self,
        ctx: &SimCtx,
        rt: &Runtime,
        machine: usize,
        core: usize,
    ) -> Result<(), JoinError> {
        let (input, states) = self.attempts.state();
        worker(ctx, rt, &self.cfg, input, &states, machine, core)
    }

    fn finish(&self, _rt: &Runtime, run: &ClusterRun) {
        assert_eq!(
            run.marks.len(),
            3,
            "expected build + rotate/probe boundaries"
        );
        self.attempts.finish(|states| {
            // Only two named phases: the table build folds into
            // `local_partition`, the rotation rounds into `build_probe`;
            // the rest stay zero.
            let mut result = JoinResult::default();
            for st in states {
                result.merge(*st.result.borrow());
            }
            CycloJoinOutcome {
                result,
                phases: PhaseTimes::from_events(&run.events),
            }
        });
    }
}

fn worker<T: Tuple>(
    ctx: &SimCtx,
    rt: &Runtime,
    cfg: &CycloJoinConfig,
    (r, s): &(Relation<T>, Relation<T>),
    states: &[MachState<T>],
    mach: usize,
    core: usize,
) -> Result<(), JoinError> {
    let st = &states[mach];
    let (r_chunk, home) = (r.chunk(mach), s.chunk(mach));
    let m = rt.machines();
    let cores = rt.cores();
    let cost = &cfg.cluster.cost;
    let build_rate = cost.build_rate / CACHE_MISS_DERATING;
    let probe_rate = cost.probe_rate / CACHE_MISS_DERATING;
    let mut meter = Meter::for_quantum(cfg.cluster.meter_quantum_ns);
    let ex = Exchange::new(&rt.fabric, mach, PHASE_ROTATE);

    // ---- Phase 1: build the stationary table over the whole local R
    // chunk (machine-sized: cache-cold rates). Core 0 materializes it;
    // every core is charged its share of the parallel build.
    let share = r_chunk.len().div_ceil(cores).min(r_chunk.len());
    meter.charge_bytes(ctx, share * T::SIZE, build_rate);
    meter.flush(ctx);
    if core == 0 {
        *st.table.borrow_mut() = Some(Arc::new(BucketTable::build(r_chunk, 0)));
    }
    rt.try_sync_named(ctx, phase::LOCAL_PARTITION, mach)?;

    // ---- Phase 2: NM probe rounds; between rounds, core 0 ships the
    // resident fragment to the right neighbour and installs the one
    // arriving from the left.
    let table = Arc::clone(st.table.borrow().as_ref().expect("table built"));
    let mut local = JoinResult::default();
    for round in 0..m {
        let received = st.fragment.borrow().clone();
        let frag = received.as_deref().map_or(home, Vec::as_slice);
        let my = &frag[range_of(frag.len(), cores, core)];
        local.merge(table.probe_all(my));
        meter.charge_bytes(ctx, my.len() * T::SIZE, probe_rate);
        meter.flush(ctx);
        rt.try_sync_quiet(ctx)?;
        if round + 1 == m {
            break;
        }
        if core == 0 {
            let mut payload = vec![0; frag.len() * T::SIZE];
            for (t, out) in frag.iter().zip(payload.chunks_exact_mut(T::SIZE)) {
                t.write_to(out);
            }
            let tag = WireTag::Data {
                rel: REL_S,
                part: round,
            };
            ex.all_to_all(ctx, tag, [(mach + 1) % m], &payload, |_, bytes| {
                // Receive-side copy out of the RDMA buffer. Nobody reads
                // the fragment again before the barrier below.
                meter.charge_bytes(ctx, bytes.len(), cost.memcpy_rate);
                meter.flush(ctx);
                *st.fragment.borrow_mut() = Some(Arc::new(decode_all(&bytes)));
            })?;
        }
        // The barrier publishes the new fragment to every core.
        rt.try_sync_quiet(ctx)?;
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

    fn cfg(machines: usize, cores: usize) -> CycloJoinConfig {
        let mut spec = ClusterSpec::fdr_cluster(machines);
        spec.cores_per_machine = cores;
        CycloJoinConfig::new(spec)
    }

    #[test]
    fn cyclo_join_is_verified_against_oracle() {
        let machines = 3;
        let r = generate_inner::<Tuple16>(4_000, machines, 61);
        let (s, oracle) = generate_outer::<Tuple16>(12_000, 4_000, machines, Skew::None, 62);
        let out = try_run_cyclo_join(cfg(machines, 2), r, s).expect("cyclo-join aborted");
        oracle.verify(&out.result);
    }

    #[test]
    fn works_on_a_two_machine_ring_and_with_skew() {
        let machines = 2;
        let r = generate_inner::<Tuple16>(1_000, machines, 63);
        let (s, oracle) = generate_outer::<Tuple16>(20_000, 1_000, machines, Skew::Zipf(1.2), 64);
        let out = try_run_cyclo_join(cfg(machines, 3), r, s).expect("cyclo-join aborted");
        oracle.verify(&out.result);
    }

    #[test]
    fn radix_hash_join_beats_cyclo_join_at_scale() {
        // The cyclo-join ships the *whole outer relation* around the ring
        // (NM−1 hops) and probes it against every machine's cache-cold
        // table, so with many machines and a large outer relation the
        // rotation wire time dominates; the partitioned join moves every
        // tuple at most once. (On a small FDR ring with |S| = |R| the
        // cyclo-join can actually win — no partitioning passes — which is
        // why the paper's related work calls it an interesting design for
        // storage-oriented rings rather than a join accelerator.)
        use rsj_core::{try_run_distributed_join, DistJoinConfig};
        let machines = 8;
        let n_r = 20_000u64;
        let n_s = 160_000u64;
        let mk = || {
            let r = generate_inner::<Tuple16>(n_r, machines, 65);
            let (s, _) = generate_outer::<Tuple16>(n_s, n_r, machines, Skew::None, 66);
            (r, s)
        };
        let (r, s) = mk();
        let cyclo = try_run_cyclo_join(
            {
                let mut spec = ClusterSpec::qdr_cluster(machines);
                spec.cores_per_machine = 8;
                CycloJoinConfig::new(spec)
            },
            r,
            s,
        )
        .expect("cyclo-join aborted");
        let (r, s) = mk();
        let mut hj_cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(machines));
        hj_cfg.radix_bits = (5, 3);
        hj_cfg.rdma_buf_size = 1024;
        let hj = try_run_distributed_join(hj_cfg, r, s).expect("distributed join aborted");
        assert_eq!(cyclo.result, hj.result);
        assert!(
            cyclo.phases.total() > hj.phases.total(),
            "cyclo {:?} must exceed radix {:?}",
            cyclo.phases.total(),
            hj.phases.total()
        );
    }

    #[test]
    fn single_machine_ring_degenerates_to_local_probe() {
        let r = generate_inner::<Tuple16>(2_000, 1, 67);
        let (s, oracle) = generate_outer::<Tuple16>(4_000, 2_000, 1, Skew::None, 68);
        let out = try_run_cyclo_join(cfg(1, 2), r, s).expect("cyclo-join aborted");
        oracle.verify(&out.result);
    }
}
