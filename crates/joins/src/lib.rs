//! # rsj-joins — single-node join algorithms
//!
//! The multi-core substrate the distributed join builds on (§3.1) and the
//! single-machine baseline the paper compares against (§6.1):
//!
//! * [`Partitioner`]/[`histogram_into`] — the radix partitioning kernels
//!   shared by every join variant in this workspace;
//! * [`BucketTable`] — the cache-sized bucket hash table of the
//!   build-probe phase, addressed by the key bits above the radix bits;
//! * [`NumaQueues`] — the NUMA-aware task queues of the extended baseline;
//! * [`run_single_machine_join`] — the parallel radix join of Balkesen et
//!   al. \[4\] with the paper's extensions (Figure 5a's "single" bars);
//! * [`remote_table`] — the seqlock-versioned bucket-table byte format a
//!   one-sided join publishes for RDMA-READ probing (DESIGN.md §11).

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

mod hash_table;
mod radix;
pub mod remote_table;
mod single_machine;
mod sort;
mod task_queue;

pub use hash_table::BucketTable;
pub use remote_table::{
    begin_bucket_mutation, bucket_entries, decode_bucket, encode_remote_table, end_bucket_mutation,
    remote_dir_len, remote_nbuckets, RemoteDirectory, TornRead,
};

pub use radix::{concat_partitioned, histogram_into, partition_of, Partitioned, Partitioner};
pub use single_machine::{run_single_machine_join, SingleJoinOutcome, SingleMachineConfig};
pub use sort::{merge_join, sort_by_key};
pub use task_queue::{claim, NumaQueues};
