//! The distributed radix hash join (§4): the thin orchestrator.
//!
//! The four phases live in [`crate::phases`], one module each; this file
//! only wires them together. One simulated thread per core per machine —
//! provided by the promoted [`rsj_cluster::Runtime`] — executes the
//! phases the paper describes, separated by cluster-wide named barriers
//! so that per-phase times can be reported exactly like the paper's
//! stacked bars:
//!
//! 1. **Histogram computation** (§4.1) — [`crate::phases::histogram`];
//! 2. **Network partitioning pass** (§4.2.1) — [`crate::phases::network`];
//! 3. **Local partitioning pass** (§4.2.3) — [`crate::phases::local`];
//! 4. **Build-probe** (§4.3) — [`crate::phases::build_probe`].
//!
//! Each barrier records one [`rsj_cluster::PhaseEvent`] per machine;
//! [`rsj_cluster::PhaseTimes::from_events`] folds them into the
//! [`DistJoinOutcome`]'s per-phase breakdown.
//!
//! The join is packaged as a [`DistJoinJob`] — an [`rsj_cluster::QueryJob`]
//! — so the same attach/run/finish sequence serves both entry points: the
//! direct [`try_run_distributed_join`] (one join, its own fabric) and the
//! multi-query [`rsj_cluster::QueryService`] (many joins multiplexed over
//! a shared fabric). The direct path is byte-identical to the
//! pre-service code: same construction order, same barriers, same wire
//! schedule.

use std::sync::Arc;

use rsj_cluster::{
    phase, run_direct, Attempts, ClusterRun, JoinError, Meter, PhaseTimes, QueryJob, Runtime,
};
use rsj_rdma::HostId;
use rsj_sim::{SimCtx, SimTime};
use rsj_workload::{JoinResult, Relation, Tuple};

use crate::config::{DistJoinConfig, MaterializeMode, Transport};
use crate::phases::build_probe::phase_build_probe;
use crate::phases::histogram::phase_histogram;
use crate::phases::local::phase_local;
use crate::phases::network::phase_network;
use crate::phases::one_sided::{phase_one_sided_probe, phase_publish_tables};
use crate::phases::ClusterShared;

/// Per-machine statistics of one run.
#[derive(Copy, Clone, Debug, Default)]
pub struct MachineReport {
    /// Payload bytes sent over the fabric.
    pub tx_bytes: u64,
    /// Payload bytes received over the fabric.
    pub rx_bytes: u64,
    /// Virtual seconds partitioning threads spent blocked waiting to reuse
    /// RDMA buffers (the network-bound stall of Eq. 4).
    pub send_stall_seconds: f64,
    /// Bytes of memory registered with the NIC outside the buffer pools
    /// (§4.2.2's pinning concern): the one-sided probe's published tables
    /// and the work-sharing scratch regions. Zero on the paper's dataplane.
    pub registered_bytes: u64,
    /// On-the-fly buffer registrations (0 in a well-sized run).
    pub fly_registrations: u64,
    /// Virtual CPU-seconds charged by this machine's cores over the whole
    /// join (compute only; excludes stalls and idle barrier time). With
    /// `cores × total_time` as the denominator this yields the machine's
    /// CPU utilization — the quantity the paper's interleaving argument
    /// is about.
    pub cpu_busy_seconds: f64,
}

/// Result of a distributed join run.
#[derive(Clone, Debug)]
pub struct DistJoinOutcome {
    /// Verified join summary.
    pub result: JoinResult,
    /// Cluster-wide per-phase times (barrier to barrier).
    pub phases: PhaseTimes,
    /// Per-machine traffic and stall statistics.
    pub machines: Vec<MachineReport>,
    /// Total join-result bytes materialized (§4.3): local buffers plus
    /// bytes landed at the coordinator. Zero in
    /// [`MaterializeMode::CountOnly`] runs; `16 × matches` otherwise.
    pub materialized_bytes: u64,
}

/// The distributed radix join packaged for a query service: inputs in,
/// [`DistJoinOutcome`] out, with the cluster-shared state built lazily at
/// attach time against whatever runtime (direct or query-scoped) the job
/// is admitted onto.
pub struct DistJoinJob<T: Tuple> {
    cfg: DistJoinConfig,
    attempts: Attempts<(Relation<T>, Relation<T>), ClusterShared<T>, DistJoinOutcome>,
}

impl<T: Tuple> DistJoinJob<T> {
    /// Package a validated configuration and its loaded relations as a
    /// job. Panics on an invalid configuration or relations not loaded
    /// for this cluster size.
    pub fn new(cfg: DistJoinConfig, r: Relation<T>, s: Relation<T>) -> Arc<DistJoinJob<T>> {
        cfg.validate();
        let m = cfg.cluster.machines;
        assert_eq!(r.machines(), m, "inner relation not loaded on this cluster");
        assert_eq!(s.machines(), m, "outer relation not loaded on this cluster");
        Arc::new(DistJoinJob {
            cfg,
            attempts: Attempts::new((r, s)),
        })
    }

    /// The recorded outcome of a finished run (`None` before
    /// [`QueryJob::finish`] or if the run aborted).
    pub fn take_outcome(&self) -> Option<DistJoinOutcome> {
        self.attempts.take_outcome()
    }
}

impl<T: Tuple> QueryJob for DistJoinJob<T> {
    fn machines(&self) -> usize {
        self.cfg.cluster.machines
    }

    fn cores(&self) -> usize {
        self.cfg.cluster.cores_per_machine
    }

    fn attach(&self, rt: &Arc<Runtime>) {
        self.attempts.attach(|| {
            let shared = ClusterShared::new(self.cfg.clone(), rt);
            // A failing worker poisons every machine-local barrier and TCP
            // window so no peer stays parked on one during the abort.
            for st in &shared.machines {
                rt.register_barrier(Arc::clone(&st.local_barrier));
            }
            for row in &shared.tcp_windows {
                for window in row {
                    rt.register_semaphore(Arc::clone(window));
                }
            }
            shared
        });
    }

    fn run_worker(
        &self,
        ctx: &SimCtx,
        rt: &Runtime,
        machine: usize,
        core: usize,
    ) -> Result<(), JoinError> {
        let ((r, s), sh) = self.attempts.state();
        let chunks = [r.chunk(machine), s.chunk(machine)];
        worker(ctx, rt, &sh, chunks, machine, core)
    }

    fn finish(&self, rt: &Runtime, run: &ClusterRun) {
        self.attempts.finish(|shared| {
            let m = shared.cfg.cluster.machines;
            let mut result = JoinResult::default();
            let mut reports = Vec::with_capacity(m);
            for (i, mach) in shared.machines.iter().enumerate() {
                result.merge(*mach.result.borrow());
                let nic = rt.fabric.nic(HostId(i));
                let stats = nic.stats();
                reports.push(MachineReport {
                    tx_bytes: stats.tx_bytes,
                    rx_bytes: stats.rx_bytes,
                    send_stall_seconds: mach.stall_seconds.get(),
                    registered_bytes: mach.registered_bytes.get(),
                    fly_registrations: shared.pools[i].fly_registrations(),
                    cpu_busy_seconds: mach.cpu_busy_seconds.get(),
                });
            }
            let materialized_bytes = shared.coord_result_bytes.get()
                + shared
                    .machines
                    .iter()
                    .map(|mach| mach.result_bytes_local.get())
                    .sum::<u64>();
            if shared.cfg.materialize != MaterializeMode::CountOnly {
                assert_eq!(
                    materialized_bytes,
                    result.matches * 16,
                    "materialization lost result pairs"
                );
            }
            DistJoinOutcome {
                result,
                phases: PhaseTimes::from_events(&run.events),
                machines: reports,
                materialized_bytes,
            }
        });
    }
}

/// Execute the distributed join on relations already loaded across the
/// cluster (chunk `m` of each relation resides on machine `m`). Returns
/// the verified result, the per-phase breakdown and per-machine stats.
///
/// Without a [`DistJoinConfig::fault_plan`] the run cannot abort. With
/// one installed, the join either completes byte-correct despite
/// transient faults or returns the structured [`JoinError`] naming the
/// machine and phase that failed — never hangs (the runtime watchdog
/// converts a stuck cluster into [`JoinError::BarrierTimeout`]).
pub fn try_run_distributed_join<T: Tuple>(
    cfg: DistJoinConfig,
    r: Relation<T>,
    s: Relation<T>,
) -> Result<DistJoinOutcome, JoinError> {
    let plan = cfg.fault_plan.clone();
    let fabric_cfg = cfg.fabric_config();
    let nic = cfg.cluster.cost.nic;

    let job = DistJoinJob::new(cfg, r, s);
    let run = run_direct(&job, fabric_cfg, nic, plan)?;

    assert_eq!(
        run.marks.len(),
        5,
        "expected 4 phase boundaries, got {:?}",
        run.marks
    );
    debug_assert!(
        run.marks.windows(2).all(|w| w[0] <= w[1]),
        "phase marks must be monotone: {:?}",
        run.marks
    );

    let outcome = job.take_outcome().expect("finish records the outcome");
    // Back-to-back named phases: the folded durations cover the run end
    // to end, exactly as the former raw-mark differences did. (Direct
    // path only — a service run starts at admission time, not t = 0.)
    debug_assert_eq!(
        outcome.phases.total(),
        *run.marks.last().expect("marks start non-empty") - SimTime::ZERO,
        "per-phase durations must sum to the end-to-end time"
    );
    Ok(outcome)
}

/// One simulated core's journey through the four phases, dispatched on
/// the probe dataplane. `chunks` are the machine's resident chunks of R
/// and S (indexed by relation), read in place. The runtime's named barriers record the
/// per-machine phase events; the trailing barrier and fabric shutdown
/// are handled by the runtime. A phase error aborts the whole run
/// ([`Runtime::fail`]).
fn worker<T: Tuple>(
    ctx: &SimCtx,
    rt: &Runtime,
    sh: &ClusterShared<T>,
    chunks: [&[T]; 2],
    mach: usize,
    core: usize,
) -> Result<(), JoinError> {
    match sh.cfg.probe_transport {
        Transport::TwoSided => worker_two_sided(ctx, rt, sh, chunks, mach, core),
        Transport::OneSided => worker_one_sided(ctx, rt, sh, chunks, mach, core),
    }
}

/// The paper's dataplane: histogram → network partition → local
/// partition → build-probe.
fn worker_two_sided<T: Tuple>(
    ctx: &SimCtx,
    rt: &Runtime,
    sh: &ClusterShared<T>,
    chunks: [&[T]; 2],
    mach: usize,
    core: usize,
) -> Result<(), JoinError> {
    let mut meter = Meter::for_quantum(sh.cfg.cluster.meter_quantum_ns);

    phase_histogram(ctx, sh, chunks, mach, core, &mut meter)?;
    rt.try_sync_named(ctx, phase::HISTOGRAM, mach)?;

    phase_network(ctx, sh, chunks, mach, core, &mut meter)?;
    rt.try_sync_named(ctx, phase::NETWORK_PARTITION, mach)?;

    phase_local(ctx, sh, mach, core, &mut meter)?;
    rt.try_sync_named(ctx, phase::LOCAL_PARTITION, mach)?;

    phase_build_probe(ctx, sh, mach, core, &mut meter)?;
    sh.machines[mach]
        .cpu_busy_seconds
        .set(sh.machines[mach].cpu_busy_seconds.get() + meter.total_seconds());
    rt.try_sync_named(ctx, phase::BUILD_PROBE, mach)?;
    Ok(())
}

/// The one-sided dataplane (DESIGN.md §11): histogram → network
/// partition (R only) → publish bucket tables (under the
/// `local_partition` barrier) → RDMA-READ probe. Published regions stay
/// open until the probe barrier proves every READ has completed; core 0
/// then closes the epoch and deregisters them, so the validator flags
/// any straggler and a retired query leaves no region registered.
fn worker_one_sided<T: Tuple>(
    ctx: &SimCtx,
    rt: &Runtime,
    sh: &ClusterShared<T>,
    chunks: [&[T]; 2],
    mach: usize,
    core: usize,
) -> Result<(), JoinError> {
    let mut meter = Meter::for_quantum(sh.cfg.cluster.meter_quantum_ns);

    phase_histogram(ctx, sh, chunks, mach, core, &mut meter)?;
    rt.try_sync_named(ctx, phase::HISTOGRAM, mach)?;

    phase_network(ctx, sh, chunks, mach, core, &mut meter)?;
    rt.try_sync_named(ctx, phase::NETWORK_PARTITION, mach)?;

    phase_publish_tables(ctx, sh, mach, core, &mut meter)?;
    rt.try_sync_named(ctx, phase::LOCAL_PARTITION, mach)?;

    phase_one_sided_probe(ctx, sh, chunks, mach, core, &mut meter)?;
    sh.machines[mach]
        .cpu_busy_seconds
        .set(sh.machines[mach].cpu_busy_seconds.get() + meter.total_seconds());
    rt.try_sync_named(ctx, phase::ONE_SIDED_PROBE, mach)?;
    if core == 0 {
        let nic = sh.fabric.nic(HostId(mach));
        for mr in sh.machines[mach].published_tables.take().iter().flatten() {
            mr.unpublish();
            nic.mrs.deregister(mr);
        }
    }
    Ok(())
}
