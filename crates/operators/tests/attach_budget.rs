//! Allocation budget of `QueryJob::attach`: starting an attempt builds
//! per-query state (landings, pools, barriers) but never copies the
//! input. Every attempt reads the job's resident chunks in place, so
//! attaching any of the four operators allocates a small fraction of
//! the input's bytes, however large the input.
//!
//! The binary installs a byte-counting global allocator and holds one
//! test, so nothing else allocates while it counts. `GlobalAlloc` is an
//! unsafe trait, so this test file opts back into `unsafe`; the allocator
//! only counts and forwards to `System`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rsj_cluster::{ClusterSpec, QueryJob, Runtime};
use rsj_core::{DistJoinConfig, DistJoinJob};
use rsj_operators::{
    AggregationConfig, AggregationJob, CycloJoinConfig, CycloJoinJob, SortMergeConfig, SortMergeJob,
};
use rsj_rdma::FabricConfig;
use rsj_workload::{generate_inner, generate_outer, Relation, Skew, Tuple16};

/// Heap bytes requested (allocations plus reallocations' new sizes)
/// since the process started.
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const MACHINES: usize = 2;
const CORES: usize = 3;
/// Tuples of each relation: 1.6 MB of `Tuple16` apiece.
const TUPLES: u64 = 100_000;

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::qdr_cluster(MACHINES);
    spec.cores_per_machine = CORES;
    spec
}

fn inputs() -> (Relation<Tuple16>, Relation<Tuple16>) {
    let r = generate_inner::<Tuple16>(TUPLES, MACHINES, 11);
    let (s, _) = generate_outer::<Tuple16>(TUPLES, TUPLES, MACHINES, Skew::None, 12);
    (r, s)
}

/// Heap bytes `job.attach` requests on a fresh direct runtime.
fn attach_bytes(job: &dyn QueryJob) -> u64 {
    let rt = Runtime::new(MACHINES, CORES, FabricConfig::qdr(), spec().cost.nic);
    let before = BYTES.load(Ordering::Relaxed);
    job.attach(&rt);
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn attach_allocates_a_small_fraction_of_the_input() {
    // `(operator, bytes attach allocated, input bytes)`.
    let mut rows = Vec::new();

    let (r, s) = inputs();
    let both = r.total_bytes() + s.total_bytes();
    let mut cfg = DistJoinConfig::new(spec());
    cfg.radix_bits = (4, 2);
    cfg.rdma_buf_size = 1024;
    rows.push((
        "radix join",
        attach_bytes(&*DistJoinJob::new(cfg, r, s)),
        both,
    ));

    let (r, s) = inputs();
    let mut cfg = SortMergeConfig::new(spec());
    cfg.radix_bits = 4;
    cfg.rdma_buf_size = 1024;
    rows.push((
        "sort-merge join",
        attach_bytes(&*SortMergeJob::new(cfg, r, s)),
        both,
    ));

    let (r, s) = inputs();
    let cfg = CycloJoinConfig::new(spec());
    rows.push((
        "cyclo-join",
        attach_bytes(&*CycloJoinJob::new(cfg, r, s)),
        both,
    ));

    let (_, s) = inputs();
    let one = s.total_bytes();
    let mut cfg = AggregationConfig::new(spec());
    cfg.radix_bits = 4;
    cfg.rdma_buf_size = 1024;
    rows.push((
        "aggregation",
        attach_bytes(&*AggregationJob::new(cfg, s)),
        one,
    ));

    assert!(
        rows.iter().all(|&(_, bytes, input)| bytes * 10 < input),
        "attach must allocate under a tenth of the input; (operator, allocated, input) = {rows:?}"
    );
}
