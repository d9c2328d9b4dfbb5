//! # rsj-core — the distributed RDMA radix hash join
//!
//! The paper's primary contribution (Barthels et al., SIGMOD'15, §4),
//! implemented end-to-end against the simulated verbs layer of
//! [`rsj_rdma`]: histogram computation and exchange, machine–partition
//! assignment, a network partitioning pass that interleaves radix
//! partitioning with RDMA transfer through pooled double buffers, local
//! refinement passes, and a skew-aware build-probe phase. Partition
//! traffic lands with the channel semantics the paper evaluates (§4.2.2):
//! senders SEND, and core 0 of each machine copies what arrives into
//! staging memory ([`shuffle`]).
//!
//! ## Quick example
//!
//! ```
//! use rsj_cluster::ClusterSpec;
//! use rsj_core::{try_run_distributed_join, DistJoinConfig};
//! use rsj_workload::{generate_inner, generate_outer, Skew, Tuple16};
//!
//! let machines = 2;
//! let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(machines));
//! cfg.cluster.cores_per_machine = 2;
//! cfg.radix_bits = (4, 3);
//!
//! let r = generate_inner::<Tuple16>(10_000, machines, 1);
//! let (s, oracle) = generate_outer::<Tuple16>(20_000, 10_000, machines, Skew::None, 2);
//! let out = try_run_distributed_join(cfg, r, s).expect("no fault plan, no abort");
//! oracle.verify(&out.result);
//! println!("join took {} (virtual)", out.phases.total());
//! ```

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

mod config;
mod driver;
mod histogram;
mod phases;
pub mod shuffle;

pub use config::{AssignmentPolicy, DistJoinConfig, MaterializeMode, Transport, TransportMode};
pub use driver::{try_run_distributed_join, DistJoinJob, DistJoinOutcome, MachineReport};
pub use histogram::{assign_partitions, Histogram, REL_R, REL_S};
pub use rsj_cluster::JoinError;
