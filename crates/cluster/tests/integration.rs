//! Integration tests of the cluster vocabulary crate: preset coherence,
//! meter/phase interaction on the simulator.

use rsj_cluster::{ClusterSpec, CostModel, Meter};
use rsj_sim::Simulation;

#[test]
fn meters_on_parallel_threads_are_independent() {
    // Two threads charging at different rates must reach proportional
    // virtual times regardless of interleaving.
    let sim = Simulation::new();
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let fast_t = Arc::new(AtomicU64::new(0));
    let slow_t = Arc::new(AtomicU64::new(0));
    {
        let fast_t = Arc::clone(&fast_t);
        sim.spawn("fast", move |ctx| {
            let mut m = Meter::new();
            for _ in 0..1000 {
                m.charge_bytes(ctx, 4096, 2.0e9);
            }
            m.flush(ctx);
            fast_t.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
    }
    {
        let slow_t = Arc::clone(&slow_t);
        sim.spawn("slow", move |ctx| {
            let mut m = Meter::new();
            for _ in 0..1000 {
                m.charge_bytes(ctx, 4096, 1.0e9);
            }
            m.flush(ctx);
            slow_t.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
    }
    sim.run();
    let fast = fast_t.load(std::sync::atomic::Ordering::SeqCst) as f64;
    let slow = slow_t.load(std::sync::atomic::Ordering::SeqCst) as f64;
    assert!((slow / fast - 2.0).abs() < 0.01, "ratio {}", slow / fast);
}

#[test]
fn all_presets_have_positive_rates() {
    let costs = [
        ClusterSpec::qdr_cluster(10).cost,
        ClusterSpec::fdr_cluster(4).cost,
        ClusterSpec::ipoib_cluster(2).cost,
        CostModel::single_machine_server(),
    ];
    for c in costs {
        for rate in [
            c.partition_rate,
            c.histogram_rate,
            c.build_rate,
            c.probe_rate,
            c.memcpy_rate,
            c.sort_rate,
            c.merge_rate,
        ] {
            assert!(rate > 0.0 && rate.is_finite());
        }
        // Build/probe on cache-resident fragments outpace partitioning.
        assert!(c.build_rate > c.partition_rate);
        // Sorting is slower than radix partitioning (why hash wins, [3]).
        assert!(c.sort_rate < c.partition_rate);
    }
}
