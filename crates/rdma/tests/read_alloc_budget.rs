//! Allocation budget of RDMA READ: once a stream of doorbell-chained
//! READs is warm, a READ costs the host no heap allocation. Each READ
//! lands in a buffer drawn from the requester's NIC, and the buffer goes
//! back when the caller drops the bytes, as completion cells do; only the
//! handle list a chain returns is allocated, once per chain.
//!
//! The binary installs the counting global allocator of
//! `rsj-alloc-count` and holds one test, so nothing else allocates while
//! it counts.

use std::cell::Cell;
use std::rc::Rc;

use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
use rsj_sim::Simulation;

#[global_allocator]
static COUNTING: rsj_alloc_count::Counting = rsj_alloc_count::Counting;

/// READs per doorbell chain, as the one-sided probe posts them.
const CHAIN: usize = 16;
/// Chains the reader posts; the budget is checked over the second half.
const CHAINS: usize = 200;
/// Bytes per READ; each READ of a chain reads its own slice.
const READ: usize = 256;

#[test]
fn a_warm_read_stream_allocates_only_its_handle_lists() {
    let sim = Simulation::new();
    let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
    fabric.launch(&sim);
    // `(allocations, reads)` when half the chains were read, and at the end.
    let half = Rc::new(Cell::new((0u64, 0usize)));
    let end = Rc::new(Cell::new((0u64, 0usize)));
    {
        let (half, end) = (Rc::clone(&half), Rc::clone(&end));
        sim.spawn("reader", move |ctx| {
            let mr = fabric.nic(HostId(1)).mrs.register(ctx, CHAIN * READ);
            let bytes: Vec<u8> = (0..CHAIN * READ).map(|i| (i % 251) as u8).collect();
            mr.fill(0, &bytes);
            let remote = mr.publish();
            let reads: Vec<_> = (0..CHAIN).map(|k| (remote, k * READ, READ)).collect();
            let nic = fabric.nic(HostId(0));
            let mut done = 0;
            for chain in 0..CHAINS {
                if chain == CHAINS / 2 {
                    half.set((rsj_alloc_count::allocations(), done));
                }
                for (h, &(_, offset, len)) in
                    nic.post_read_batch(ctx, &reads).into_iter().zip(&reads)
                {
                    let got = h.wait(ctx).expect("no fault plan is installed");
                    assert_eq!(got.len(), len);
                    assert_eq!(got[0], (offset % 251) as u8);
                    done += 1;
                }
            }
            end.set((rsj_alloc_count::allocations(), done));
            mr.unpublish();
            fabric.shutdown(ctx);
        });
    }
    sim.run();

    let ((a0, r0), (a1, r1)) = (half.get(), end.get());
    let (allocations, reads) = (a1 - a0, r1 - r0);
    let chains = reads / CHAIN;
    assert_eq!(chains, CHAINS / 2, "{reads} reads in the second half");
    assert!(
        allocations <= chains as u64,
        "{allocations} heap allocations over the last {chains} chains of {CHAIN} READs: \
         more than the one handle list per chain"
    );
}
