//! # rsj-rdma — simulated RDMA verbs over a modeled InfiniBand fabric
//!
//! A software stand-in for `libibverbs` + InfiniBand hardware, faithful to
//! the behaviours the paper's join algorithm depends on:
//!
//! * **kernel bypass / zero copy** — posting a work request costs the
//!   worker sub-microsecond; the transfer itself consumes no worker CPU;
//! * **memory registration** — regions must be registered before the HCA
//!   touches them, at a cost linear in the page count ([`MrTable`]);
//! * **one-sided and two-sided semantics** — RDMA WRITE into a remote
//!   [`Mr`] with no remote CPU, or SEND/RECV against a shared receive
//!   queue with completion notifications ([`Nic`]);
//! * **asynchrony** — completions fire on virtual time; whether a worker
//!   overlaps computation with them is the algorithm's choice (and the
//!   subject of Figure 5b);
//! * **a parameterized wire** — bandwidth, propagation latency, message
//!   rate and congestion reproduce the QDR/FDR curves of Figure 3
//!   ([`FabricConfig`]).
//!
//! See `DESIGN.md` §1 for why this substitution preserves the paper's
//! experimental behaviour, and §11 for the one-sided dataplane built on
//! [`Nic::post_read`] / [`Nic::post_read_batch`] and the
//! [`Mr::publish`] / [`Mr::unpublish`] epoch protocol.

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
// Every public item in the verbs layer is API other crates program
// against; the workspace default (`missing_docs = "warn"`) is promoted
// to a hard error here.
#![deny(missing_docs)]

mod config;
mod fabric;
pub mod fault;
mod membership;
mod mr;
mod nic;
mod pool;
pub mod validate;
mod wire;

pub use config::{FabricConfig, HostId, NicCosts, QueryId};
pub use fabric::{Fabric, Spawner};
pub use fault::{
    capped_backoff, splitmix64, FabricError, FaultPlan, HostCrash, LinkFlap, NicStall, WcStatus,
};
pub use mr::{Mr, MrTable, RemoteMr};
pub use nic::{Completion, Nic, NicStats, ReadBuf, ReadHandle, SendHandle};
pub use pool::{BufferPool, PoolArena, SendWindow};
pub use validate::{Validator, Violation};
