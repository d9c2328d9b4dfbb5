//! Memory budget of the radix join: the heap the join itself holds at
//! its high-water mark stays under 1.5× its input, and it never
//! assembles a landed partition into a copy. The local pass partitions
//! each landed partition straight out of the workers' kept tuples and
//! frees them partition by partition, so the kept tuples, an assembled
//! copy of them and the partitioned output are never all live at once.
//!
//! The binary installs the counting global allocator of
//! `rsj-alloc-count` and holds one test, so nothing else allocates while
//! it counts.

use rsj_cluster::ClusterSpec;
use rsj_core::{try_run_distributed_join, DistJoinConfig};
use rsj_workload::{generate_inner, generate_outer, Skew, Tuple16};

#[global_allocator]
static COUNTING: rsj_alloc_count::Counting = rsj_alloc_count::Counting;

/// Tuples of each relation: 3.2 MB of `Tuple16` apiece.
const TUPLES: u64 = 200_000;

/// Runs a one-machine radix join and returns, as multiples of its input
/// bytes, the heap high-water over the live bytes before the call and
/// the heap bytes requested during it.
fn join_heap(radix_bits: (u32, u32)) -> (f64, f64) {
    let r = generate_inner::<Tuple16>(TUPLES, 1, 21);
    let (s, oracle) = generate_outer::<Tuple16>(TUPLES, TUPLES, 1, Skew::None, 22);
    let input = (r.total_bytes() + s.total_bytes()) as f64;
    let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(1));
    cfg.radix_bits = radix_bits;

    let before = rsj_alloc_count::live();
    let requested_before = rsj_alloc_count::bytes();
    rsj_alloc_count::reset_peak();
    let out = try_run_distributed_join(cfg, r, s).expect("a fault-free join completes");
    let held = rsj_alloc_count::peak() - before;
    let requested = rsj_alloc_count::bytes() - requested_before;

    oracle.verify(&out.result);
    (held as f64 / input, requested as f64 / input)
}

#[test]
fn a_local_join_holds_under_one_and_a_half_times_its_input() {
    // A partition is 1/1024 of the input: the kept tuples must be
    // returned partition by partition.
    let (held, _) = join_heap((10, 2));
    assert!(
        held <= 1.5,
        "radix bits (10, 2): heap high-water {held:.3}x the input"
    );

    // A partition is half a relation: a copy of one beside its kept
    // pieces pushes the high-water past the budget, and any assembled
    // copy, even one that frees the pieces as it fills, requests a whole
    // input more (about 2.9x without one, 3.9x with).
    let (held, requested) = join_heap((1, 2));
    assert!(
        held <= 1.5,
        "radix bits (1, 2): heap high-water {held:.3}x the input"
    );
    assert!(
        requested <= 3.5,
        "radix bits (1, 2): the join requested {requested:.3}x its input in heap bytes"
    );
}
