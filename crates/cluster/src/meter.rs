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
//! [`Meter::flush`] before a fabric post, barrier, or park.
//!
//! **Eager** settlement — each chunk its own `ctx.advance`, usually a
//! cross-worker OS context switch, which PR 3 measured as the sweep's
//! wall-clock floor — survives only as the test oracle
//! ([`Meter::with_mode`]). The chunk boundaries and rounding are
//! bit-identical in both modes, so the committed clock at every
//! interaction (the only points where another task can observe this
//! worker's time) is exactly the same; only the number of scheduler
//! dispatches between interactions differs. DESIGN.md §12 carries the
//! equivalence argument; `tests/meter_equivalence.rs` and rsj-sim's
//! `tests/settlement_equivalence.rs` check it.

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
    #[allow(clippy::new_without_default)]
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
            self.settle(ctx);
        }
    }

    /// Charge a fixed number of seconds.
    #[inline]
    pub fn charge_seconds(&mut self, ctx: &SimCtx, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.owed_ns += seconds * 1e9;
        if self.owed_ns >= self.quantum_ns {
            self.settle(ctx);
        }
    }

    /// Quantize all owed time into a committed chunk. The rounding is
    /// mode-independent; only the dispatch differs (immediate advance vs
    /// kernel batch).
    fn settle(&mut self, ctx: &SimCtx) {
        if self.owed_ns > 0.0 {
            let ns = self.owed_ns.round() as u64;
            self.total_ns += self.owed_ns;
            self.owed_ns = 0.0;
            if ns > 0 {
                let d = SimDuration::from_nanos(ns);
                match self.mode {
                    SettleMode::Eager => ctx.advance(d),
                    SettleMode::Lazy => ctx.advance_batched(d),
                }
            }
        }
    }

    /// Settle all owed time with the kernel. Must be called before any
    /// action whose virtual-time position matters (sends, barriers,
    /// parks): it quantizes the remainder and, in lazy mode, commits the
    /// whole accrued batch in one kernel advance.
    pub fn flush(&mut self, ctx: &SimCtx) {
        self.settle(ctx);
        if self.mode == SettleMode::Lazy {
            ctx.settle_point();
        }
    }

    /// Total seconds charged through this meter (including unsettled).
    pub fn total_seconds(&self) -> f64 {
        (self.total_ns + self.owed_ns) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_sim::Simulation;

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
}
