//! # rsj-operators — further distributed operators on the same substrate
//!
//! The paper's §7 argues its contributions — RDMA buffer pooling, buffer
//! reuse, and interleaving computation with communication — "are general
//! techniques which can be used to create distributed versions of many
//! database operators like sort-merge joins or aggregation". This crate
//! substantiates that claim:
//!
//! * [`try_run_sort_merge_join`] — a distributed **sort-merge join** sharing
//!   the hash join's histogram and network partitioning structure, with a
//!   sort + merge-join local phase;
//! * [`try_run_aggregation`] — a distributed **group-by aggregation**
//!   (`COUNT(*)`, `SUM(rid)` per key) over the same network pass;
//! * [`try_run_cyclo_join`] — the ring-topology **cyclo-join** of Frey et
//!   al. (§2.3), as a comparison baseline the radix join beats.
//!
//! All operators run on the deterministic simulation kernel, verify their
//! results against generator oracles, and report the same [`PhaseTimes`]
//! breakdown as the main join. They share the join's promoted phase
//! runtime and wire codec ([`rsj_cluster::Runtime`],
//! [`rsj_cluster::WireTag`]), and sort-merge and aggregation its shuffle
//! ([`rsj_core::shuffle`]), rather than carrying private copies.
//!
//! The radix hash join itself lives in [`rsj_core`]; this crate re-exports
//! its entry points and the [`Transport`] dataplane switch so a user
//! composing operators can flip a query between the two-sided
//! partition-and-ship probe and the one-sided RDMA-READ probe over
//! published bucket tables (DESIGN.md §11) without a second import.
//!
//! [`PhaseTimes`]: rsj_cluster::PhaseTimes

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

mod aggregation;
mod cyclo_join;
mod sort_merge;

pub use aggregation::{
    try_run_aggregation, AggregateResult, AggregationConfig, AggregationJob, AggregationOutcome,
};
pub use cyclo_join::{try_run_cyclo_join, CycloJoinConfig, CycloJoinJob, CycloJoinOutcome};
pub use rsj_cluster::{JoinError, Runtime};
pub use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinJob, Transport};
pub use sort_merge::{try_run_sort_merge_join, SortMergeConfig, SortMergeJob, SortMergeOutcome};
