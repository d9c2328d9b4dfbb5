//! Compute-time charging for simulated worker threads.
//!
//! Workers process real tuples but owe virtual time for every byte at the
//! rates of the [`CostModel`](crate::CostModel). Charging per tuple would
//! mean millions of scheduler events, so the [`Meter`] accrues owed time
//! and quantizes it into committed chunks at quantum crossings — always
//! flushing before any externally visible action (posting a send, hitting
//! a barrier) so the relative order of compute and communication stays
//! exact at those boundaries.
//!
//! ## Settlement
//!
//! Every meter a run builds ([`Meter::new`], [`Meter::for_quantum`])
//! settles **lazily**: each committed chunk accrues into the kernel's
//! per-task batch via [`SimCtx::advance_batched`], and the whole batch is
//! committed in a single advance at the next *interaction* — a
//! [`Meter::flush`] before a fabric post or a barrier. A park needs no
//! flush: the kernel commits a parking task's batch itself, at the park's
//! floor, and decides there whether the task blocks ([`SimCtx::park`]),
//! so before a park [`Meter::batch`] only hands the meter's remainder to
//! the kernel.
//!
//! **Eager** settlement — each chunk its own `ctx.advance`, a stack switch
//! whenever another task's event comes first, which made the repo
//! benchmark's `join_local` about 3× slower (DESIGN.md §7) — survives
//! only as the test oracle ([`Meter::with_mode`]). The chunk boundaries
//! and rounding are bit-identical in both modes, so the committed clock
//! at every interaction (the only points where another task can observe
//! this worker's time) is exactly the same; only the number of scheduler
//! dispatches between interactions differs. DESIGN.md §12 carries the
//! equivalence argument; `tests/meter_equivalence.rs` and rsj-sim's
//! `tests/settlement_equivalence.rs` check it.
//!
//! ## Run charges
//!
//! A loop that charges every item the same ([`Meter::charge_run`]) runs
//! the per-item recurrence of [`Meter::charge_bytes`] — the same f64
//! additions, the same crossings, the same rounded chunks — but adds the
//! chunks up and hands the kernel their sum in one
//! [`SimCtx::advance_batched`], which only adds to the task's pending
//! batch, so one call with the sum is many calls with the parts. A caller
//! charges the run of items up to an interaction just before it (say, the
//! tuple a scatter push may post), so every interaction sees the clock the
//! per-item charges would have given it.

use rsj_sim::{SimCtx, SimDuration};

/// When committed compute-time chunks are dispatched into the kernel.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SettleMode {
    /// Every quantum crossing is its own kernel dispatch — the test
    /// oracle lazy settlement is compared against.
    Eager,
    /// Chunks accrue in the kernel's per-task batch; one dispatch per
    /// interaction ([`Meter::flush`]).
    Lazy,
}

/// Accrues owed virtual compute time and settles it in quanta.
pub struct Meter {
    owed_ns: f64,
    quantum_ns: f64,
    total_ns: f64,
    mode: SettleMode,
}

impl Meter {
    /// Default settlement quantum: 20 µs of virtual time.
    ///
    /// The quantum is the *quantization contract*: owed time is rounded
    /// into committed chunks exactly at quantum crossings, in both
    /// settlement modes, so the committed clock at every interaction is
    /// identical whether chunks were dispatched eagerly or batched. A
    /// coarser quantum is still not a free tunable — between settlements a
    /// worker's *flushed* clock lags by up to one quantum wherever workers
    /// meet shared state mid-charge without an explicit flush (raising it
    /// to 200 µs measurably shifted the network-pass results ~1 % under
    /// eager settlement), so 20 µs remains part of the committed
    /// determinism contract. The lazy mode removes the *dispatch cost* of
    /// the quantum without touching its arithmetic.
    pub const DEFAULT_QUANTUM_NS: f64 = 20_000.0;

    /// A lazily settling meter with the default quantum.
    #[expect(
        clippy::new_without_default,
        reason = "configured runs build with `for_quantum`; `new` is the named default"
    )]
    pub fn new() -> Meter {
        Meter::for_quantum(Self::DEFAULT_QUANTUM_NS)
    }

    /// A lazily settling meter with a custom quantum. This is the
    /// constructor for configured runs: pass the cluster's
    /// `meter_quantum_ns` so scaled experiments shrink the quantization
    /// alongside the data.
    pub fn for_quantum(quantum_ns: f64) -> Meter {
        Meter::with_mode(quantum_ns, SettleMode::Lazy)
    }

    /// A meter with an explicit quantum and settlement mode. Production
    /// code never passes [`SettleMode::Eager`]; tests do, to assert the
    /// clock moves at each crossing and as the equivalence oracle.
    pub fn with_mode(quantum_ns: f64, mode: SettleMode) -> Meter {
        assert!(quantum_ns >= 0.0);
        Meter {
            owed_ns: 0.0,
            quantum_ns,
            total_ns: 0.0,
            mode,
        }
    }

    /// Charge the time to process `bytes` at `rate` bytes/second,
    /// committing a chunk if a full quantum is owed.
    #[inline]
    pub fn charge_bytes(&mut self, ctx: &SimCtx, bytes: usize, rate: f64) {
        debug_assert!(rate > 0.0);
        self.owed_ns += bytes as f64 / rate * 1e9;
        if self.owed_ns >= self.quantum_ns {
            self.batch(ctx);
        }
    }

    /// Charge `n` items of `bytes` each at `rate` bytes/second: exactly
    /// `n` [`Meter::charge_bytes`] calls, the same owed-time recurrence
    /// and the same chunks rounded at the same quantum crossings, with
    /// the chunks handed to the kernel's batch in one sum (see the module
    /// docs on run charges). An eager meter makes the `n` calls.
    #[inline]
    pub fn charge_run(&mut self, ctx: &SimCtx, n: usize, bytes: usize, rate: f64) {
        if self.mode == SettleMode::Eager {
            for _ in 0..n {
                self.charge_bytes(ctx, bytes, rate);
            }
            return;
        }
        debug_assert!(rate > 0.0);
        let item_ns = bytes as f64 / rate * 1e9;
        let mut committed = 0u64;
        for _ in 0..n {
            self.owed_ns += item_ns;
            // `charge_bytes` → `batch`, without the kernel call.
            if self.owed_ns >= self.quantum_ns && self.owed_ns > 0.0 {
                committed += self.quantize();
            }
        }
        if committed > 0 {
            ctx.advance_batched(SimDuration::from_nanos(committed));
        }
    }

    /// Charge a fixed number of seconds.
    #[inline]
    pub fn charge_seconds(&mut self, ctx: &SimCtx, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.owed_ns += seconds * 1e9;
        if self.owed_ns >= self.quantum_ns {
            self.batch(ctx);
        }
    }

    /// Quantize all owed time into a committed chunk. The rounding is
    /// mode-independent; only the dispatch differs (immediate advance vs
    /// kernel batch). In lazy mode this is all a park needs before it:
    /// the kernel commits a parking task's batch itself, at the park's
    /// floor ([`SimCtx::park`]).
    pub fn batch(&mut self, ctx: &SimCtx) {
        if self.owed_ns > 0.0 {
            let ns = self.quantize();
            if ns > 0 {
                let d = SimDuration::from_nanos(ns);
                match self.mode {
                    SettleMode::Eager => ctx.advance(d),
                    SettleMode::Lazy => ctx.advance_batched(d),
                }
            }
        }
    }

    /// Round all owed time into a chunk of whole nanoseconds and count it
    /// as charged.
    #[inline]
    fn quantize(&mut self) -> u64 {
        let ns = round_ns(self.owed_ns);
        self.total_ns += self.owed_ns;
        self.owed_ns = 0.0;
        ns
    }

    /// Settle all owed time with the kernel. Must be called before any
    /// action whose virtual-time position matters (sends, barriers): it
    /// quantizes the remainder and, in lazy mode, commits the whole
    /// accrued batch in one kernel advance.
    pub fn flush(&mut self, ctx: &SimCtx) {
        self.batch(ctx);
        if self.mode == SettleMode::Lazy {
            ctx.settle_point();
        }
    }

    /// Total seconds charged through this meter (including unsettled).
    pub fn total_seconds(&self) -> f64 {
        (self.total_ns + self.owed_ns) / 1e9
    }
}

/// `x.round() as u64` for a non-negative `x` (half away from zero,
/// saturating), in integer arithmetic instead of a libm call: below 2^53
/// the fractional part `x - t` is exact, and above it `x` has none.
#[inline]
fn round_ns(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_sim::Simulation;

    #[test]
    fn integer_rounding_matches_f64_round() {
        let two52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            0.5,
            0.499_999_999_999_999_94,
            1.5,
            2.5,
            2.4,
            two52 - 0.5,
            two52 + 0.5,
            two52 + 1.0,
            2.0 * two52,
            2.0 * two52 + 2.0,
            f64::MAX,
        ];
        xs.extend((0..10_000).map(|i| i as f64 * 0.25 + 1e-3 * (i % 7) as f64));
        for x in xs {
            assert_eq!(round_ns(x), x.round() as u64, "{x}");
        }
    }

    #[test]
    fn charges_accumulate_and_flush() {
        let sim = Simulation::new();
        sim.spawn("worker", |ctx| {
            let mut m = Meter::with_mode(1000.0, SettleMode::Eager);
            // 400 ns owed: below quantum, clock unchanged.
            m.charge_bytes(ctx, 400, 1e9);
            assert_eq!(ctx.now().as_nanos(), 0);
            // 700 more: crosses quantum, clock advances by 1100 ns.
            m.charge_bytes(ctx, 700, 1e9);
            assert_eq!(ctx.now().as_nanos(), 1100);
            m.charge_bytes(ctx, 100, 1e9);
            m.flush(ctx);
            assert_eq!(ctx.now().as_nanos(), 1200);
            assert!((m.total_seconds() - 1.2e-6).abs() < 1e-15);
        });
        sim.run();
    }

    #[test]
    fn total_equals_bytes_over_rate_regardless_of_quantum() {
        for quantum in [0.0, 100.0, 1e6] {
            let sim = Simulation::new();
            sim.spawn("worker", move |ctx| {
                let mut m = Meter::with_mode(quantum, SettleMode::Eager);
                for _ in 0..1000 {
                    m.charge_bytes(ctx, 64, 955.0e6);
                }
                m.flush(ctx);
                let expect = 1000.0 * 64.0 / 955.0e6;
                let now = ctx.now().as_secs_f64();
                assert!(
                    (now - expect).abs() < 1e-6 * expect + 1e-6,
                    "quantum {quantum}: {now} vs {expect}"
                );
            });
            sim.run();
        }
    }

    #[test]
    fn lazy_mode_defers_dispatch_but_matches_eager_clock_at_flush() {
        // The same charge schedule under both modes: identical flushed
        // clock (chunk rounding is mode-independent), identical totals.
        fn run(mode: SettleMode) -> (u64, f64) {
            let out = std::rc::Rc::new(std::cell::Cell::new((0u64, 0.0f64)));
            let out2 = std::rc::Rc::clone(&out);
            let sim = Simulation::new();
            sim.spawn("worker", move |ctx| {
                let mut m = Meter::with_mode(1000.0, mode);
                for i in 0..777usize {
                    m.charge_bytes(ctx, 64 + (i % 13), 1e9);
                }
                m.flush(ctx);
                out2.set((ctx.now().as_nanos(), m.total_seconds()));
            });
            sim.run();
            out.get()
        }
        let eager = run(SettleMode::Eager);
        let lazy = run(SettleMode::Lazy);
        assert_eq!(eager, lazy);
    }

    /// One step of a charge schedule.
    #[derive(Copy, Clone)]
    enum Step {
        /// `n` tuples of 16 bytes at the partitioning rate.
        Run(usize),
        /// One other charge, as a scatter push makes between runs.
        Bytes(usize),
        Flush,
    }

    /// Drive `schedule` through one meter and record, after every step,
    /// the owed time's bits, the total's bits and the task's clock. With
    /// `runs`, a run is one [`Meter::charge_run`]; otherwise `n`
    /// [`Meter::charge_bytes`] calls.
    fn drive(mode: SettleMode, quantum: f64, runs: bool, schedule: &[Step]) -> Vec<[u64; 3]> {
        const RATE: f64 = 955.0e6; // 16.75 ns a 16-byte tuple
        let out = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sim = Simulation::new();
        {
            let (out, schedule) = (std::rc::Rc::clone(&out), schedule.to_vec());
            sim.spawn("worker", move |ctx| {
                let mut m = Meter::with_mode(quantum, mode);
                for step in schedule {
                    match step {
                        Step::Run(n) if runs => m.charge_run(ctx, n, 16, RATE),
                        Step::Run(n) => (0..n).for_each(|_| m.charge_bytes(ctx, 16, RATE)),
                        Step::Bytes(b) => m.charge_bytes(ctx, b, 4.2e9),
                        Step::Flush => m.flush(ctx),
                    }
                    let seen = [m.owed_ns.to_bits(), m.total_seconds().to_bits()];
                    out.borrow_mut()
                        .push([seen[0], seen[1], ctx.now().as_nanos()]);
                }
            });
        }
        sim.run();
        out.take()
    }

    #[test]
    fn a_run_charge_is_its_single_charges_bit_for_bit() {
        use Step::*;
        let schedule = [
            Run(1),
            Run(2),
            Run(0),
            Bytes(64),
            Run(3),
            Run(1000),
            Flush,
            Run(7),
            Bytes(16),
            Run(1),
            Run(1),
            Flush,
            Run(12_345),
            Bytes(4096),
            Run(5),
            Flush,
            Run(3),
        ];
        // The benchmark's two scales (20 µs / 1024 and / 8192), the
        // default quantum, and none.
        let q = Meter::DEFAULT_QUANTUM_NS;
        for quantum in [q / 1024.0, q / 8192.0, q, 0.0] {
            let oracle = drive(SettleMode::Eager, quantum, false, &schedule);
            for (mode, runs) in [
                (SettleMode::Lazy, true),
                (SettleMode::Lazy, false),
                (SettleMode::Eager, true),
            ] {
                let got = drive(mode, quantum, runs, &schedule);
                assert_eq!(got, oracle, "{mode:?}, runs {runs}, quantum {quantum}");
            }
        }
    }

    #[test]
    fn lazy_mode_tracks_time_through_ctx_now_before_flush() {
        let sim = Simulation::new();
        sim.spawn("worker", |ctx| {
            let mut m = Meter::with_mode(100.0, SettleMode::Lazy);
            // 2500 ns charged: many quantum crossings, zero dispatches,
            // but the task's own clock must already see the committed
            // chunks (now() includes the kernel batch).
            for _ in 0..25 {
                m.charge_bytes(ctx, 100, 1e9);
            }
            assert_eq!(ctx.now().as_nanos(), 2500);
            m.flush(ctx);
            assert_eq!(ctx.now().as_nanos(), 2500);
        });
        assert_eq!(sim.run().as_nanos(), 2500);
    }

    #[test]
    fn a_metered_worker_switches_at_most_twice_before_its_flush() {
        // A peer advancing in steps shorter than the quantum keeps the
        // worker's charges from ever being the earliest event, so every
        // chunk an eager meter dispatched would switch stacks; the meter
        // of a configured run accrues them all into one batch.
        let switches = std::rc::Rc::new(std::cell::Cell::new(u64::MAX));
        let sim = Simulation::new();
        {
            let switches = std::rc::Rc::clone(&switches);
            sim.spawn("worker", move |ctx| {
                let mut m = Meter::for_quantum(1000.0);
                for _ in 0..100 {
                    m.charge_seconds(ctx, 1e-6);
                }
                let own = ctx.run_counts().slots.into_iter();
                switches.set(own.filter(|s| s.name == "worker").map(|s| s.switches).sum());
                m.flush(ctx);
            });
        }
        sim.spawn("peer", |ctx| {
            for _ in 0..400 {
                ctx.advance(SimDuration::from_nanos(300));
            }
        });
        sim.run();
        assert!(switches.get() <= 2, "{} switches", switches.get());
    }
}
