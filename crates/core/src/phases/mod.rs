//! The four phases of the distributed radix hash join, one module each,
//! plus the cluster state they share.
//!
//! [`crate::driver`] is the thin orchestrator: it builds the
//! [`ClusterShared`] state against the promoted
//! [`rsj_cluster::Runtime`]'s fabric and runs each phase between named
//! barriers. Everything algorithmic lives here:
//!
//! * [`histogram`] — §4.1 histogram computation and exchange, and the
//!   skew-split threshold derived from the global histogram;
//! * [`network`] — §4.2 network partitioning pass: the post step in which
//!   the transports differ and the receiver's copy charge, handed to
//!   [`crate::shuffle::Landing::shuffle`];
//! * [`local`] — §4.2.3 local partitioning pass (serial and parallel);
//! * [`build_probe`] — §4.3 build-probe with skew splitting, result
//!   materialization, and the inter-machine work-sharing extension;
//! * [`one_sided`] — the alternative probe dataplane of DESIGN.md §11:
//!   owners publish seqlock-versioned bucket tables, probe hosts fetch
//!   buckets with doorbell-batched RDMA READs.

pub(crate) mod build_probe;
pub(crate) mod histogram;
pub(crate) mod local;
pub(crate) mod network;
pub(crate) mod one_sided;

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rsj_cluster::{JoinError, Runtime, SEND_DEPTH};
use rsj_joins::{BucketTable, NumaQueues, Partitioned};
use rsj_rdma::{BufferPool, Fabric, RemoteMr};
use rsj_sim::{SimBarrier, SimCtx, SimSemaphore};
use rsj_workload::{JoinResult, Tuple};

use crate::config::{DistJoinConfig, Transport};
use crate::histogram::{REL_R, REL_S};
use crate::shuffle::Landing;

/// Which relation's chunk a sender is currently partitioning.
pub(crate) const RELS: [usize; 2] = [REL_R, REL_S];

/// Messages in flight per (source, destination) TCP connection before the
/// sender blocks (socket-buffer window). Only used by
/// [`crate::TransportMode::Tcp`].
const TCP_WINDOW_MSGS: usize = 8;

pub(crate) enum BpTask<T> {
    /// Build over fragment `j` of `r`, probe with fragment `j` of `s`.
    BuildProbe {
        r: Arc<Partitioned<T>>,
        s: Arc<Partitioned<T>>,
        j: usize,
    },
    /// Probe `s.part(j)[lo..hi]` against pre-built tables (skew split).
    ProbeChunk {
        tables: Arc<Vec<BucketTable<T>>>,
        s: Arc<Partitioned<T>>,
        j: usize,
        lo: usize,
        hi: usize,
    },
}

/// Bytes of work a build-probe task represents (used for queue accounting
/// and steal decisions).
pub(crate) fn task_bytes<T: Tuple>(t: &BpTask<T>) -> usize {
    match t {
        BpTask::BuildProbe { r, s, j } => (r.part(*j).len() + s.part(*j).len()) * T::SIZE,
        BpTask::ProbeChunk { lo, hi, .. } => (hi - lo) * T::SIZE,
    }
}

/// One slice of an assembled partition's second pass (parallel local
/// pass): `(owned_idx, rel, slice_idx, lo..hi)` over the assembled input.
pub(crate) type LpSlice = (usize, usize, usize, std::ops::Range<usize>);
/// An assembled partition: both relations' tuples, shared by slice tasks.
pub(crate) type LpAssembled<T> = Arc<[Vec<T>; 2]>;
/// Per-owned-partition second-pass outputs, one slot per slice per
/// relation.
pub(crate) type LpOutputs<T> = Vec<[Vec<Option<Partitioned<T>>>; 2]>;

pub(crate) struct MachineState<T> {
    pub(crate) local_barrier: Arc<SimBarrier>,
    /// Where this machine's partitions land in the network pass, and the
    /// histograms that say how many tuples each must hold.
    pub(crate) landing: Landing<T>,
    /// Outer-relation tuples above which a final fragment is split for
    /// parallel probing, derived from the global histogram.
    pub(crate) s_split_threshold: Cell<usize>,
    pub(crate) next_local_task: Cell<usize>,
    pub(crate) bp_tasks: NumaQueues<BpTask<T>>,
    pub(crate) result: RefCell<JoinResult>,
    pub(crate) stall_seconds: Cell<f64>,
    pub(crate) cpu_busy_seconds: Cell<f64>,
    /// Bytes of join result materialized into this machine's local
    /// buffers (§4.3 local output).
    pub(crate) result_bytes_local: Cell<u64>,
    /// Fragments whose tables this machine already pulled over the wire
    /// (work-sharing extension): table transfer is paid once per fragment
    /// per thief machine, chunks individually.
    pub(crate) fetched_tables: RefCell<HashSet<usize>>,
    /// Parallel local pass (extension): per-owned-partition assembled
    /// inputs, slice task list, and per-slice second-pass outputs.
    pub(crate) lp_assembled: RefCell<Vec<Option<LpAssembled<T>>>>,
    pub(crate) lp_tasks: RefCell<Vec<LpSlice>>,
    pub(crate) lp_outputs: RefCell<LpOutputs<T>>,
    pub(crate) next_lp_task: Cell<usize>,
    pub(crate) next_lp_emit: Cell<usize>,
    /// Bytes of build-probe work currently queued on this machine.
    pub(crate) bp_queued_bytes: Cell<usize>,
    /// Bytes currently being pulled *out* of this machine by thieves
    /// (their reads serialize on our egress link).
    pub(crate) steal_outstanding_bytes: Cell<usize>,
    /// Bytes this query registered on this machine's NIC (work-sharing
    /// scratch, published bucket tables). Lanes of a query service share
    /// their host's region table, so its running total is not this.
    pub(crate) registered_bytes: Cell<u64>,
    /// One-sided dataplane, owner side: partition → the registered region
    /// holding this machine's published bucket table. The owner's own
    /// probes read it in place, with no loopback READ; core 0 unpublishes
    /// and deregisters every one after the probe barrier.
    pub(crate) published_tables: RefCell<Vec<Option<Arc<rsj_rdma::Mr>>>>,
    /// One-sided dataplane: partition → decoded directory, decoded from
    /// the owner's own region at publish or, for a remote partition,
    /// fetched once per machine by core 0 before probing starts.
    pub(crate) dirs: RefCell<Vec<Option<Arc<rsj_joins::RemoteDirectory>>>>,
}

impl<T: Tuple> MachineState<T> {
    fn new(cfg: &DistJoinConfig, mach: usize) -> MachineState<T> {
        let cores = cfg.cluster.cores_per_machine;
        let b1 = cfg.radix_bits.0;
        MachineState {
            local_barrier: SimBarrier::new(cores),
            landing: Landing::new(mach, b1, cfg.partitioning_workers()),
            s_split_threshold: Cell::new(0),
            next_local_task: Cell::new(0),
            bp_tasks: NumaQueues::new(1),
            result: RefCell::new(JoinResult::default()),
            stall_seconds: Cell::new(0.0),
            cpu_busy_seconds: Cell::new(0.0),
            result_bytes_local: Cell::new(0),
            fetched_tables: RefCell::new(HashSet::new()),
            lp_assembled: RefCell::new(Vec::new()),
            lp_tasks: RefCell::new(Vec::new()),
            lp_outputs: RefCell::new(Vec::new()),
            next_lp_task: Cell::new(0),
            next_lp_emit: Cell::new(0),
            bp_queued_bytes: Cell::new(0),
            steal_outstanding_bytes: Cell::new(0),
            registered_bytes: Cell::new(0),
            published_tables: RefCell::new(vec![None; 1 << b1]),
            dirs: RefCell::new(vec![None; 1 << b1]),
        }
    }
}

/// Everything the phases share across the cluster. Barriers and phase
/// marks live in the promoted [`rsj_cluster::Runtime`], not here.
pub(crate) struct ClusterShared<T> {
    pub(crate) cfg: DistJoinConfig,
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) machines: Vec<MachineState<T>>,
    /// Per-(src, dst) TCP flow-control windows.
    pub(crate) tcp_windows: Vec<Vec<Arc<SimSemaphore>>>,
    pub(crate) pools: Vec<Arc<BufferPool>>,
    /// Per-machine scratch regions that work-sharing thieves RDMA-READ
    /// stolen fragments from (extension; `None` when disabled or the
    /// machine owns no partitions).
    pub(crate) scratch_mrs: RefCell<Vec<Option<RemoteMr>>>,
    /// Cluster-wide count of workers currently processing a build-probe
    /// task. While nonzero, idle thieves keep polling: a busy worker may
    /// still split an oversized fragment into stealable chunks.
    pub(crate) bp_busy: Cell<usize>,
    /// Materialized result bytes received by the coordinator (machine 0)
    /// in [`crate::MaterializeMode::ToCoordinator`] runs.
    pub(crate) coord_result_bytes: Cell<u64>,
    /// One-sided dataplane: partition → the owner's published table
    /// handle (the out-of-band handle exchange of DESIGN.md §11; filled
    /// behind the `local_partition` barrier, read-only afterwards).
    pub(crate) table_registry: RefCell<HashMap<usize, RemoteMr>>,
}

impl<T: Tuple> ClusterShared<T> {
    /// Build the shared state for a validated configuration against the
    /// runtime's fabric. Buffer pools go through [`Runtime::make_pool`],
    /// so under a query service they sub-allocate from the host arenas and
    /// register with the validator under the runtime's query.
    pub(crate) fn new(cfg: DistJoinConfig, rt: &Runtime) -> ClusterShared<T> {
        let fabric = Arc::clone(&rt.fabric);
        let m = cfg.cluster.machines;
        let workers = cfg.partitioning_workers();
        let np1 = 1usize << cfg.radix_bits.0;
        let machines = (0..m).map(|i| MachineState::new(&cfg, i)).collect();
        let pools = (0..m)
            .map(|i| {
                // Up to `SEND_DEPTH` buffers per (worker, relation, remote
                // partition); R's buffers stay drawn while S is partitioned.
                rt.make_pool(i, workers * SEND_DEPTH * np1 * 2, cfg.rdma_buf_size)
            })
            .collect::<Vec<_>>();
        let tcp_windows = (0..m)
            .map(|_| (0..m).map(|_| SimSemaphore::new(TCP_WINDOW_MSGS)).collect())
            .collect();
        ClusterShared {
            cfg,
            fabric,
            machines,
            tcp_windows,
            pools,
            scratch_mrs: RefCell::new(vec![None; m]),
            bp_busy: Cell::new(0),
            coord_result_bytes: Cell::new(0),
            table_registry: RefCell::new(HashMap::new()),
        }
    }
}

/// Poison-aware machine-local barrier wait. A peer failure poisons every
/// registered barrier ([`rsj_cluster::Runtime::fail`]); a worker parked
/// here wakes with [`JoinError::Aborted`] instead of hanging the abort.
/// Returns the leader flag on the healthy path, exactly like
/// [`SimBarrier::wait`].
pub(crate) fn barrier_wait(
    barrier: &SimBarrier,
    ctx: &SimCtx,
    phase: &'static str,
) -> Result<bool, JoinError> {
    barrier
        .wait_checked(ctx)
        .map_err(|_| JoinError::aborted(phase))
}

/// The relations the network pass moves: on the one-sided probe
/// dataplane S never crosses the wire — the probe READs the owners'
/// published bucket tables instead (DESIGN.md §11).
pub(crate) fn shipped(cfg: &DistJoinConfig) -> &'static [usize] {
    match cfg.probe_transport {
        Transport::TwoSided => &RELS,
        Transport::OneSided => &[REL_R],
    }
}
