//! # rsj-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the rack-scale join reproduction: a virtual clock and a
//! cooperative scheduler that runs *real Rust code* on *simulated time*.
//!
//! A simulated thread is either a stackful coroutine (a *task*, with a
//! stack of its own) or a stackless *step slot* (a closure the scheduler
//! calls on its own stack), and every thread of a simulation runs on the
//! one OS thread that calls [`Simulation::run`], so at most one runs at any
//! instant. A task hands control back to the scheduler at *yield points*
//! ([`SimCtx::advance`], [`SimCtx::park`]) with a stack switch; a step slot
//! returns the same yield point as a [`Step`]. Virtual time jumps from
//! event to event, so a run is deterministic regardless of host
//! speed or core count — which is what lets a 1-core container reproduce the
//! timing behaviour of a 10-node InfiniBand cluster (see `DESIGN.md` §1).
//!
//! ## Example
//!
//! ```
//! use rsj_sim::{Simulation, SimDuration, SimBarrier};
//! use std::sync::Arc;
//!
//! let sim = Simulation::new();
//! let barrier = SimBarrier::new(2);
//! for (name, work_ms) in [("fast", 1u64), ("slow", 9)] {
//!     let barrier = Arc::clone(&barrier);
//!     sim.spawn(name, move |ctx| {
//!         ctx.advance(SimDuration::from_millis(work_ms));
//!         barrier.wait(ctx);
//!         // Both threads leave the barrier at t = 9 ms.
//!         assert_eq!(ctx.now().as_nanos(), 9_000_000);
//!     });
//! }
//! assert_eq!(sim.run().as_nanos(), 9_000_000);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::iter_over_hash_type,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        unused_must_use
    )
)]

mod kernel;
mod stack;
mod sync;
mod time;

pub use kernel::{
    Dispatch, FloorAction, Parked, RunCounts, SimCtx, Simulation, SlotCounts, Step, TaskId,
};
pub use sync::{Poisoned, SimBarrier, SimChannel, SimEvent, SimSemaphore};
pub use time::{SimDuration, SimTime};
