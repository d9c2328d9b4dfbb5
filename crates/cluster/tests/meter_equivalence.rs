//! Meter-level settlement equivalence (DESIGN.md §12): the same random
//! charge schedule through [`Meter`]s in `Eager` and `Lazy` mode must
//! produce identical flushed clocks at every interaction, identical
//! charge totals, and an identical dispatch-visible interaction order —
//! the quantization arithmetic is mode-independent, only the dispatch
//! pattern differs.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rsj_cluster::{Meter, SettleMode};
use rsj_sim::{SimChannel, Simulation};

type Log = Arc<Mutex<Vec<(usize, usize, u64)>>>;

/// `threads` workers charging random byte bursts into their own meters,
/// flushing before each token-ring interaction. Returns the final
/// virtual time and the interaction log in dispatch order.
fn run_ring(
    mode: SettleMode,
    threads: usize,
    rounds: usize,
    quantum_ns: f64,
    seed: u64,
) -> (u64, Vec<(usize, usize, u64)>) {
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let sim = Simulation::new();
    let chans: Vec<_> = (0..threads).map(|_| SimChannel::new()).collect();
    for t in 0..threads {
        let inbox = Arc::clone(&chans[t]);
        let outbox = Arc::clone(&chans[(t + 1) % threads]);
        let log = Arc::clone(&log);
        sim.spawn(format!("w{t}"), move |ctx| {
            let mut meter = Meter::with_mode(quantum_ns, mode);
            let mut x = seed ^ (0xD130_2B97_9AF6_1E2Du64.wrapping_mul(t as u64 + 1));
            let mut charged = 0u64;
            for r in 0..rounds {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let burst = 1 + (x >> 33) % 6;
                for _ in 0..burst {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let bytes = 64 + ((x >> 33) % 8192) as usize;
                    meter.charge_bytes(ctx, bytes, 1e9);
                    charged += bytes as u64;
                }
                meter.flush(ctx);
                // The flushed clock is the only cross-task observable.
                log.lock().unwrap().push((t, r, ctx.now().as_nanos()));
                if t == 0 {
                    outbox.send(ctx, r as u64);
                    assert_eq!(inbox.recv(ctx), Some(r as u64));
                } else {
                    assert_eq!(inbox.recv(ctx), Some(r as u64));
                    outbox.send(ctx, r as u64);
                }
            }
            // Totals are exact regardless of quantization (bytes at 1e9
            // B/s are whole nanoseconds).
            assert_eq!((meter.total_seconds() * 1e9).round() as u64, charged);
            if t == 0 {
                for c in [&inbox, &outbox] {
                    c.close(ctx);
                }
            }
        });
    }
    let end = sim.run().as_nanos();
    let entries = log.lock().unwrap().clone();
    (end, entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eager and lazy meters agree on every flushed clock, the dispatch
    /// order of interactions, and the final makespan — across random
    /// schedules and quanta (including a zero quantum, where every
    /// charge settles immediately).
    #[test]
    fn prop_meter_modes_are_equivalent_at_interactions(
        threads in 2usize..5,
        rounds in 1usize..16,
        quantum in 0u64..40_000,
        seed in any::<u64>(),
    ) {
        let q = quantum as f64;
        let eager = run_ring(SettleMode::Eager, threads, rounds, q, seed);
        let lazy = run_ring(SettleMode::Lazy, threads, rounds, q, seed);
        prop_assert_eq!(eager.0, lazy.0, "final virtual times diverge");
        prop_assert_eq!(eager.1, lazy.1, "flushed clocks or orderings diverge");
    }
}
