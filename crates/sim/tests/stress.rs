//! Stress and property tests for the discrete-event kernel: randomized
//! workloads must preserve the kernel's core guarantees — exact time
//! accounting, determinism, FIFO channels, and barrier atomicity.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rsj_sim::{SimBarrier, SimChannel, SimDuration, SimSemaphore, Simulation};

/// A thread that never parks ends exactly at the sum of its advances.
#[test]
fn time_accounting_is_exact_under_contention() {
    let sim = Simulation::new();
    let total = Arc::new(AtomicU64::new(0));
    for t in 0..12u64 {
        let total = Arc::clone(&total);
        sim.spawn(format!("w{t}"), move |ctx| {
            let mut sum = 0u64;
            let mut x = t + 1;
            for _ in 0..5_000 {
                // Deterministic pseudo-random step.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let d = 1 + (x >> 33) % 100;
                ctx.advance(SimDuration::from_nanos(d));
                sum += d;
            }
            assert_eq!(ctx.now().as_nanos(), sum);
            total.fetch_add(sum, Ordering::SeqCst);
        });
    }
    let end = sim.run();
    // The simulation ends at the maximum per-thread time, which is at
    // most the largest sum; sanity-check it is in a plausible range.
    assert!(end.as_nanos() > 5_000);
    assert!(total.load(Ordering::SeqCst) > 12 * 5_000);
}

/// Producer/consumer pipelines across channels preserve order and counts.
#[test]
fn channel_pipeline_preserves_order() {
    let sim = Simulation::new();
    let stage1 = SimChannel::new();
    let stage2 = SimChannel::new();
    let sink: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let stage1 = Arc::clone(&stage1);
        sim.spawn("producer", move |ctx| {
            for i in 0..500u64 {
                ctx.advance(SimDuration::from_nanos(7 + i % 13));
                stage1.send(ctx, i);
            }
            stage1.close(ctx);
        });
    }
    {
        let stage1 = Arc::clone(&stage1);
        let stage2 = Arc::clone(&stage2);
        sim.spawn("transform", move |ctx| {
            while let Some(v) = stage1.recv(ctx) {
                ctx.advance(SimDuration::from_nanos(11));
                stage2.send(ctx, v * 2);
            }
            stage2.close(ctx);
        });
    }
    {
        let stage2 = Arc::clone(&stage2);
        let sink = Arc::clone(&sink);
        sim.spawn("consumer", move |ctx| {
            while let Some(v) = stage2.recv(ctx) {
                sink.lock().unwrap().push(v);
            }
        });
    }
    sim.run();
    let got = sink.lock().unwrap();
    assert_eq!(got.len(), 500);
    assert!(got.windows(2).all(|w| w[0] < w[1]), "order preserved");
    assert_eq!(got[499], 998);
}

/// Barriers never tear: between two barrier generations, every thread
/// observes the same shared epoch.
#[test]
fn barrier_epochs_are_atomic() {
    let sim = Simulation::new();
    let n = 6;
    let barrier = SimBarrier::new(n);
    let epoch = Arc::new(AtomicU64::new(0));
    for t in 0..n as u64 {
        let barrier = Arc::clone(&barrier);
        let epoch = Arc::clone(&epoch);
        sim.spawn(format!("w{t}"), move |ctx| {
            for round in 0..50u64 {
                ctx.advance(SimDuration::from_nanos(1 + (t * 31 + round * 17) % 41));
                let seen = epoch.load(Ordering::SeqCst);
                assert_eq!(seen, round, "thread {t} saw stale epoch");
                if barrier.wait(ctx) {
                    epoch.fetch_add(1, Ordering::SeqCst);
                }
                barrier.wait(ctx); // publication barrier
            }
        });
    }
    sim.run();
    assert_eq!(epoch.load(Ordering::SeqCst), 50);
}

/// Semaphore-protected critical sections never overlap in virtual time.
#[test]
fn semaphore_mutual_exclusion_in_virtual_time() {
    let sim = Simulation::new();
    let sem = SimSemaphore::new(1);
    let spans: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    for t in 0..8u64 {
        let sem = Arc::clone(&sem);
        let spans = Arc::clone(&spans);
        sim.spawn(format!("w{t}"), move |ctx| {
            for i in 0..10u64 {
                ctx.advance(SimDuration::from_nanos((t * 7 + i * 3) % 29 + 1));
                sem.acquire(ctx);
                let start = ctx.now().as_nanos();
                ctx.advance(SimDuration::from_nanos(50));
                let end = ctx.now().as_nanos();
                spans.lock().unwrap().push((start, end));
                sem.release(ctx);
            }
        });
    }
    sim.run();
    let mut spans = spans.lock().unwrap().clone();
    spans.sort_unstable();
    assert_eq!(spans.len(), 80);
    for w in spans.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "critical sections overlap: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

/// Build one mixed workload — meter-style advance bursts, barrier rounds,
/// a channel pipeline, and a semaphore — on either the fast-path kernel or
/// the heap-only reference kernel, and return `(end, dispatch trace)`.
///
/// The workload deliberately hits every scheduling shape the fast path
/// touches: long runs of uncontended advances (self-continuation +
/// coalescing), same-instant ties (near-bucket FIFO order), park/unpark
/// (barrier and channel wakes), and zero-length yields.
fn traced_mixed_workload(reference: bool, seed: u64) -> (u64, Vec<rsj_sim::Dispatch>) {
    let sim = if reference {
        Simulation::new_reference()
    } else {
        Simulation::new()
    };
    sim.record_trace();
    let n = 5usize;
    let barrier = SimBarrier::new(n);
    let sem = SimSemaphore::new(2);
    let ch = SimChannel::new();
    for t in 0..n as u64 {
        let barrier = Arc::clone(&barrier);
        let sem = Arc::clone(&sem);
        let ch = Arc::clone(&ch);
        sim.spawn(format!("w{t}"), move |ctx| {
            let mut x = seed ^ (t + 1);
            for round in 0..8u64 {
                // Burst of fine-grained charges (the meter-flush shape that
                // dominates the experiment sweeps).
                for _ in 0..40 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ctx.advance(SimDuration::from_nanos((x >> 33) % 23));
                }
                sem.acquire(ctx);
                ctx.advance(SimDuration::from_nanos(50));
                sem.release(ctx);
                if t == 0 {
                    ch.send(ctx, round);
                }
                barrier.wait(ctx);
            }
            if t == 0 {
                ch.close(ctx);
            }
        });
    }
    {
        let ch = Arc::clone(&ch);
        sim.spawn("drain", move |ctx| while ch.recv(ctx).is_some() {});
    }
    let (end, trace) = sim.run_traced();
    (end.as_nanos(), trace)
}

/// The self-continuation fast path, charge coalescing, and the two-level
/// near/far queue must be pure wall-clock optimisations: the `(time, seq,
/// task)` dispatch trace has to be bit-for-bit identical to the heap-only
/// reference scheduler's.
#[test]
fn fast_path_dispatch_trace_equals_reference() {
    for seed in [1u64, 0xDEAD_BEEF, 0x5EED_CAFE_F00D] {
        let fast = traced_mixed_workload(false, seed);
        let reference = traced_mixed_workload(true, seed);
        assert_eq!(
            fast.0, reference.0,
            "final virtual time diverged (seed {seed})"
        );
        assert_eq!(
            fast.1.len(),
            reference.1.len(),
            "dispatch counts diverged (seed {seed})"
        );
        assert_eq!(
            fast.1, reference.1,
            "dispatch traces diverged (seed {seed})"
        );
        assert!(fast.1.len() > 1_000, "workload too small to be meaningful");
    }
}

/// FNV-1a, 64-bit: a digest whose value is fixed by its definition, not by
/// the standard library's hasher of the day.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over every `(time, seq, task)` of a dispatch trace.
fn trace_digest(trace: &[rsj_sim::Dispatch]) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for d in trace {
        h.write_u64(d.time.as_nanos());
        h.write_u64(d.seq);
        d.task.hash(&mut h);
    }
    h.finish()
}

/// The dispatch order is pinned across commits, not only across the two
/// kernels of one commit: the mixed workload's trace digests for a fixed
/// list of seeds were generated by a release build of the thread-per-task
/// kernel this one replaced, and any kernel must reproduce them exactly.
#[test]
fn dispatch_trace_digests_are_pinned() {
    const PINNED: [(u64, u64); 8] = [
        (1, 0xa480_fdcb_4708_df7c),
        (2, 0xcd23_606e_c54c_ef93),
        (3, 0xd9ee_39d6_be9a_cbb8),
        (7, 0xc47a_311a_c90e_6016),
        (42, 0xfbe5_a3d1_fb03_081e),
        (0xDEAD_BEEF, 0x9cb0_2fdf_4f80_f4db),
        (0x5EED_CAFE_F00D, 0xdcca_8023_ddc5_9be7),
        (u64::MAX, 0x132f_d779_98ef_3d6a),
    ];
    let got: Vec<(u64, u64)> = PINNED
        .iter()
        .map(|&(seed, _)| (seed, trace_digest(&traced_mixed_workload(false, seed).1)))
        .collect();
    assert_eq!(got, PINNED, "dispatch trace digests moved: {got:#x?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random mix of thread counts and advance patterns is
    /// deterministic: two runs produce identical event traces.
    #[test]
    fn prop_runs_are_deterministic(threads in 1usize..8, steps in 1usize..60, seed in any::<u64>()) {
        fn run(threads: usize, steps: usize, seed: u64) -> (u64, Vec<u64>) {
            let trace = Arc::new(Mutex::new(Vec::new()));
            let sim = Simulation::new();
            for t in 0..threads as u64 {
                let trace = Arc::clone(&trace);
                sim.spawn(format!("w{t}"), move |ctx| {
                    let mut x = seed ^ (t + 1);
                    for _ in 0..steps {
                        x = x.wrapping_mul(0x5DEECE66D).wrapping_add(11);
                        ctx.advance(SimDuration::from_nanos(x % 97 + 1));
                        trace.lock().unwrap().push(ctx.now().as_nanos() ^ (t << 48));
                    }
                });
            }
            let end = sim.run();
            let t = trace.lock().unwrap().clone();
            (end.as_nanos(), t)
        }
        let a = run(threads, steps, seed);
        let b = run(threads, steps, seed);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// Channel send/recv counts always balance, whatever the interleaving.
    #[test]
    fn prop_channel_conservation(producers in 1usize..5, items in 0usize..200) {
        let sim = Simulation::new();
        let ch = SimChannel::new();
        let received = Arc::new(AtomicU64::new(0));
        let live_producers = Arc::new(AtomicU64::new(producers as u64));
        for p in 0..producers {
            let ch = Arc::clone(&ch);
            let live = Arc::clone(&live_producers);
            sim.spawn(format!("p{p}"), move |ctx| {
                for i in 0..items {
                    ctx.advance(SimDuration::from_nanos((p * 13 + i * 7) as u64 % 31 + 1));
                    ch.send(ctx, (p, i));
                }
                if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                    ch.close(ctx);
                }
            });
        }
        {
            let ch = Arc::clone(&ch);
            let received = Arc::clone(&received);
            sim.spawn("consumer", move |ctx| {
                while ch.recv(ctx).is_some() {
                    received.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        sim.run();
        prop_assert_eq!(received.load(Ordering::SeqCst), (producers * items) as u64);
    }
}
