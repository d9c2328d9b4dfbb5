//! Eager vs batched settlement equivalence (DESIGN.md §12).
//!
//! Lazy settlement claims that accruing a task's self-advances in the
//! kernel batch (`advance_batched` + `settle_point` at interactions) is
//! observationally equivalent to dispatching every chunk eagerly: the
//! committed clock at every interaction point is identical, and so is
//! every dispatch-visible ordering. These property tests drive random
//! multi-task schedules — random charge bursts separated by token-ring
//! interactions — under both settlement styles and require identical
//! interaction logs and final virtual times.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rsj_sim::{SimChannel, SimDuration, Simulation};

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Settle {
    /// Every chunk is its own `ctx.advance` dispatch.
    Eager,
    /// Chunks accrue via `ctx.advance_batched`; one `settle_point` per
    /// interaction.
    Batched,
}

/// Interaction log entry: (task, round, committed nanos at the
/// interaction). Appended in dispatch order, so comparing the whole
/// vector compares the dispatch-visible ordering, not just the clocks.
type Log = Arc<Mutex<Vec<(usize, usize, u64)>>>;

/// Drive `threads` tasks for `rounds` token-ring laps. Between
/// interactions each task performs a pseudo-random burst of self-advances
/// (the charge pattern), then logs its position and passes the token.
fn run_ring(
    mode: Settle,
    threads: usize,
    rounds: usize,
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
            let mut x = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
            for r in 0..rounds {
                // A burst of 1..=8 charges of 1..=5000 ns each.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let burst = 1 + (x >> 33) % 8;
                for _ in 0..burst {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let d = SimDuration::from_nanos(1 + (x >> 33) % 5000);
                    match mode {
                        Settle::Eager => ctx.advance(d),
                        Settle::Batched => ctx.advance_batched(d),
                    }
                }
                if mode == Settle::Batched {
                    ctx.settle_point();
                }
                log.lock().unwrap().push((t, r, ctx.now().as_nanos()));
                // Token ring: task 0 seeds the lap, everyone else relays.
                if t == 0 {
                    outbox.send(ctx, r as u64);
                    assert_eq!(inbox.recv(ctx), Some(r as u64));
                } else {
                    assert_eq!(inbox.recv(ctx), Some(r as u64));
                    outbox.send(ctx, r as u64);
                }
            }
            if t == 0 {
                // Let relays drain their final recv.
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

    /// Random multi-task charge/interaction schedules: identical final
    /// virtual time and identical dispatch-visible interaction order
    /// under eager and batched settlement.
    #[test]
    fn prop_batched_settlement_is_observationally_eager(
        threads in 2usize..6,
        rounds in 1usize..20,
        seed in any::<u64>(),
    ) {
        let eager = run_ring(Settle::Eager, threads, rounds, seed);
        let batched = run_ring(Settle::Batched, threads, rounds, seed);
        prop_assert_eq!(eager.0, batched.0, "final virtual times diverge");
        prop_assert_eq!(eager.1, batched.1, "interaction orderings diverge");
    }

    /// A single task with no peers: the batched path must still commit
    /// exactly the sum of its chunks.
    #[test]
    fn prop_solo_batched_total_is_exact(steps in 1usize..200, seed in any::<u64>()) {
        let sim = Simulation::new();
        sim.spawn("solo", move |ctx| {
            let mut x = seed | 1;
            let mut sum = 0u64;
            for i in 0..steps {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let d = 1 + (x >> 33) % 10_000;
                ctx.advance_batched(SimDuration::from_nanos(d));
                sum += d;
                if i % 7 == 6 {
                    ctx.settle_point();
                }
                assert_eq!(ctx.now().as_nanos(), sum);
            }
        });
        // Task exit settles any remaining batch; the run ends at the sum.
        let end = sim.run();
        prop_assert!(end.as_nanos() > 0);
    }
}
