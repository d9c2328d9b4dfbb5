//! # rsj-joins — single-node join algorithms
//!
//! The multi-core substrate the distributed join builds on (§3.1) and the
//! single-machine baseline the paper compares against (§6.1):
//!
//! * [`partition`]/[`histogram`] — the radix partitioning kernels shared by
//!   every join variant in this workspace;
//! * [`ChainedTable`] — the cache-sized bucket-chained hash table of the
//!   build-probe phase;
//! * [`NumaQueues`] — the NUMA-aware task queues of the extended baseline;
//! * [`run_single_machine_join`] — the parallel radix join of Balkesen et
//!   al. \[4\] with the paper's extensions (Figure 5a's "single" bars);
//! * [`remote_table`] — the seqlock-versioned bucket-table byte format a
//!   one-sided join publishes for RDMA-READ probing (DESIGN.md §11).

mod hash_table;
mod radix;
pub mod remote_table;
mod single_machine;
mod sort;
mod task_queue;

pub use hash_table::{BucketTable, ChainedTable};
pub use remote_table::{
    begin_bucket_mutation, bucket_entries, decode_bucket, encode_remote_table, end_bucket_mutation,
    remote_dir_len, remote_nbuckets, RemoteDirectory, TornRead,
};

pub use radix::{
    choose_radix_bits, concat_partitioned, histogram, histogram_into, partition, partition_of,
    Partitioned, Partitioner,
};
pub use single_machine::{run_single_machine_join, SingleJoinOutcome, SingleMachineConfig};
pub use sort::{merge_join, merge_sorted_runs, sort_by_key};
pub use task_queue::{claim, NumaQueues};
