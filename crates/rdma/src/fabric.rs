//! The simulated switched fabric — the network model behind every
//! experiment — as one handle over three roles, each in its own module:
//!
//! * `nic.rs` — the verbs surface a worker programs against (post, poll,
//!   completion handles);
//! * `wire.rs` — the switch and the per-host links (engines, wire time,
//!   retransmission, delivery);
//! * `membership.rs` — who is part of the rack (query lanes, crashes, the
//!   failure detector, fencing, aborts).
//!
//! What is left here is the [`Fabric`] handle itself: its constructors,
//! its accessors and the [`Spawner`] the engines are launched through.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use rsj_sim::{SimChannel, SimCtx, SimSemaphore, Simulation};

use crate::config::{FabricConfig, HostId, NicCosts, QueryId};
use crate::fault::FaultPlan;
use crate::membership::FaultState;
use crate::mr::MrTable;
use crate::nic::{Nic, NicStats};
use crate::validate::Validator;
use crate::wire::Message;

/// The whole fabric: one [`Nic`] per host plus the engine threads driving
/// them. Create with [`Fabric::new`] (or [`Fabric::new_with_plan`] to arm
/// the fault plane), launch engines with [`Fabric::launch`], and call
/// [`Fabric::shutdown`] when traffic ends so the engine threads terminate.
///
/// A long-lived *root* fabric can additionally be multiplexed between
/// concurrent queries: [`Fabric::query_view`] carves a per-query view
/// whose NICs share the root's wire (egress queues, engines, MR tables)
/// but own private receive lanes, so a query service can run many joins
/// over one fabric with per-query completion demux, abort fan-out and
/// teardown audits.
pub struct Fabric {
    pub(crate) cfg: FabricConfig,
    /// The lane this handle serves: [`QueryId::DIRECT`] on the root,
    /// the admitted query's id on a view.
    pub(crate) query: QueryId,
    /// The root fabric behind a view (`None` on the root itself).
    pub(crate) root: Option<Arc<Fabric>>,
    /// Root: the base NIC of each physical host. View: the per-query
    /// lane NIC of each *logical* machine in the query's placement.
    pub(crate) nics: Vec<Arc<Nic>>,
    pub(crate) rx_queues: Vec<Arc<SimChannel<Message>>>,
    pub(crate) live_tx: Arc<Cell<usize>>,
    pub(crate) launched: Cell<bool>,
    /// Root only — per physical host, the live receive lanes keyed by
    /// query id. The ingress engine demuxes two-sided traffic through
    /// this; direct traffic bypasses it entirely. Ordered map: crash and
    /// abort paths iterate it, and the close/poison order decides the
    /// virtual-time wake order of parked receivers.
    pub(crate) lanes: Vec<RefCell<BTreeMap<u32, Arc<Nic>>>>,
    /// A view retires exactly once (graceful close or abort).
    pub(crate) view_closed: Cell<bool>,
    pub(crate) validator: Arc<Validator>,
    pub(crate) faults: Arc<FaultState>,
}

impl Fabric {
    /// Build a fabric of `hosts` machines with no fault plan installed.
    pub fn new(cfg: FabricConfig, costs: NicCosts, hosts: usize) -> Arc<Fabric> {
        Fabric::new_with_plan(cfg, costs, hosts, None)
    }

    /// Build a fabric of `hosts` machines, optionally arming the
    /// deterministic fault plane with `plan`.
    pub fn new_with_plan(
        cfg: FabricConfig,
        costs: NicCosts,
        hosts: usize,
        plan: Option<FaultPlan>,
    ) -> Arc<Fabric> {
        assert!(hosts >= 1, "fabric needs at least one host");
        let validator = Validator::new();
        let faults = FaultState::new(plan, hosts);
        let nics = (0..hosts)
            .map(|h| {
                Arc::new(Nic {
                    host: HostId(h),
                    query: QueryId::DIRECT,
                    placement: None,
                    costs,
                    tx: SimChannel::new(),
                    recv_cq: SimChannel::new(),
                    srq: SimSemaphore::new(cfg.srq_slots),
                    mrs: Arc::new(MrTable::new(HostId(h), costs, Arc::clone(&validator))),
                    stats: RefCell::new(NicStats::default()),
                    lane_progress: Cell::new(0),
                    validator: Arc::clone(&validator),
                    faults: Arc::clone(&faults),
                })
            })
            .collect();
        let rx_queues = (0..hosts).map(|_| SimChannel::new()).collect();
        let lanes = (0..hosts).map(|_| RefCell::new(BTreeMap::new())).collect();
        Arc::new(Fabric {
            cfg,
            query: QueryId::DIRECT,
            root: None,
            nics,
            rx_queues,
            live_tx: Arc::new(Cell::new(hosts)),
            launched: Cell::new(false),
            lanes,
            view_closed: Cell::new(false),
            validator,
            faults,
        })
    }

    /// The fabric-wide verbs-contract validator.
    pub fn validator(&self) -> &Arc<Validator> {
        &self.validator
    }

    /// Whether a fault plan is installed (arms the runtime watchdog).
    pub fn has_fault_plan(&self) -> bool {
        self.faults.plan().is_some()
    }

    /// The query lane this fabric handle serves ([`QueryId::DIRECT`] on
    /// the root).
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Monotone fabric activity counter; the runtime watchdog snapshots it
    /// to distinguish a slow cluster from a wedged one. On a view this is
    /// the *query's own* lane activity (posts + deliveries), so a
    /// per-query watchdog is not fooled by other queries' traffic.
    pub fn progress_ticks(&self) -> u64 {
        if self.root.is_some() {
            self.nics.iter().map(|n| n.lane_progress.get()).sum()
        } else {
            self.faults.progress()
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.nics.len()
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// The NIC of `host`.
    pub fn nic(&self, host: HostId) -> Arc<Nic> {
        Arc::clone(&self.nics[host.0])
    }
}

/// Anything that can spawn a simulated thread ([`Simulation`] before the
/// run starts, or a [`SimCtx`] from inside it).
pub trait Spawner {
    /// Spawn a simulated thread.
    fn spawn_task<F: FnOnce(&SimCtx) + 'static>(&self, name: String, f: F);
}

impl Spawner for Simulation {
    fn spawn_task<F: FnOnce(&SimCtx) + 'static>(&self, name: String, f: F) {
        self.spawn(name, f);
    }
}

impl Spawner for SimCtx {
    fn spawn_task<F: FnOnce(&SimCtx) + 'static>(&self, name: String, f: F) {
        self.spawn(name, f);
    }
}
