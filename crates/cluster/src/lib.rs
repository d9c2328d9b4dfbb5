//! # rsj-cluster — cluster topology, cost calibration, and phase accounting
//!
//! Shared vocabulary between the single-machine baseline, the distributed
//! join, the analytical model and the benchmark harness:
//!
//! * [`ClusterSpec`] — the three hardware configurations of the paper's
//!   Table 2 (QDR cluster, FDR cluster, multi-core server) plus the IPoIB
//!   transport baseline;
//! * [`CostModel`] — per-thread processing rates, anchored on the paper's
//!   measured 955 MB/s partitioning speed (Eq. 15);
//! * [`Meter`] — how simulated workers charge compute time to the virtual
//!   clock;
//! * [`PhaseTimes`] — the per-phase breakdown every experiment reports;
//! * [`runtime`] — the shared phase runtime every distributed operator
//!   runs on: fabric + per-core simulated threads + cluster barrier with
//!   structured phase bookkeeping ([`runtime::PhaseEvent`]);
//! * [`QueryService`] — many queries over one shared fabric: `query.rs`
//!   (what a query is), `service.rs` + `admission.rs` (who runs when and
//!   where), `report.rs` (what a run says about itself);
//! * [`wire`] — the unified 32-bit wire-tag codec shared by the join and
//!   the §7 operators;
//! * [`exchange`] — the one exchange layer under all four operators:
//!   all-to-all, the receive loop and the scatter sender.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::iter_over_hash_type,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        unused_must_use
    )
)]

mod admission;
mod cost;
pub mod error;
pub mod exchange;
mod meter;
pub mod phase;
mod phases;
mod query;
mod report;
pub mod runtime;
mod service;
mod topology;
pub mod wire;

pub use cost::CostModel;
pub use error::JoinError;
pub use exchange::{Exchange, Lane, Posted, Scatter, SendStep, SEND_DEPTH};
pub use meter::{Meter, SettleMode};
pub use phases::PhaseTimes;
pub use query::{run_direct, Attempts, QueryJob};
pub use report::{HostReport, QueryReport, ServiceReport};
pub use runtime::{ClusterRun, PhaseEvent, Runtime};
pub use service::{HealingConfig, JoinRequest, QueryService, RejectReason, ServiceConfig};
pub use topology::{ClusterSpec, Interconnect};
pub use wire::{range_of, TagError, WireTag};
