//! Memory budget of the network pass: a rack join's heap high-water
//! exceeds that of the same join on one machine by at most half its
//! input. Each partitioning worker write-combines into one slab laid out
//! from its thread histogram, so a lane holds no more than the bytes it
//! will send, and a pool buffer exists only while a send is in flight. A
//! sender that gives every lane a whole buffer up front holds hundreds of
//! times its input at the default 64 KiB buffers and 2^10 partitions.
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

/// Runs a default-config radix join on `machines` machines and returns
/// its heap high-water over the live bytes before the call, as a multiple
/// of its input bytes.
fn join_heap(machines: usize) -> f64 {
    let r = generate_inner::<Tuple16>(TUPLES, machines, 21);
    let (s, oracle) = generate_outer::<Tuple16>(TUPLES, TUPLES, machines, Skew::None, 22);
    let input = (r.total_bytes() + s.total_bytes()) as f64;
    let cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(machines));

    let before = rsj_alloc_count::live();
    rsj_alloc_count::reset_peak();
    let out = try_run_distributed_join(cfg, r, s).expect("a fault-free join completes");
    let held = rsj_alloc_count::peak() - before;

    oracle.verify(&out.result);
    held as f64 / input
}

#[test]
fn a_rack_join_holds_at_most_half_its_input_more_than_a_local_one() {
    let local = join_heap(1);
    let rack = join_heap(4);
    assert!(
        rack - local <= 0.5,
        "heap high-water: {rack:.3}x the input on 4 machines, {local:.3}x on one"
    );
}
