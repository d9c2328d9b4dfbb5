//! Synchronization primitives for simulated threads.
//!
//! These mirror the standard-library primitives but block on **virtual
//! time** via [`SimCtx::park`]/[`SimCtx::unpark`]: a thread waiting on a
//! [`SimBarrier`] consumes no virtual time itself; the clock advances to
//! whenever the last participant arrives.
//!
//! Their state is a `RefCell`: the kernel runs exactly one simulated
//! thread at a time on the simulation's own OS thread, so nothing is ever
//! contended and no lock is needed. No borrow of that state is held across
//! a park — a primitive drops it before it yields — so a waiter never
//! finds it borrowed. The primitives are therefore neither `Send` nor
//! `Sync`, like the simulation they belong to:
//!
//! ```compile_fail,E0277
//! use rsj_sim::SimChannel;
//! use std::sync::Arc;
//!
//! fn needs_send<T: Send>(_: T) {}
//! let ch: Arc<SimChannel<u8>> = SimChannel::new();
//! needs_send(ch); // error: `RefCell<..>` cannot be shared between threads
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::kernel::{SimCtx, TaskId};

/// A reusable barrier for a fixed number of simulated threads, the direct
/// analogue of the inter-machine barriers between join phases.
pub struct SimBarrier {
    inner: RefCell<BarrierState>,
    n: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    waiters: Vec<TaskId>,
    poisoned: bool,
}

/// Error returned by the checked wait/acquire variants once the primitive
/// has been poisoned (the cluster-abort path of the fault plane).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Poisoned;

impl std::fmt::Display for Poisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "synchronization primitive poisoned by abort")
    }
}

impl std::error::Error for Poisoned {}

impl SimBarrier {
    /// A barrier for `n` participants (`n >= 1`).
    pub fn new(n: usize) -> Arc<SimBarrier> {
        assert!(n >= 1, "barrier needs at least one participant");
        Arc::new(SimBarrier {
            inner: RefCell::new(BarrierState {
                arrived: 0,
                generation: 0,
                waiters: Vec::with_capacity(n),
                poisoned: false,
            }),
            n,
        })
    }

    /// Poison the barrier: every current and future waiter wakes and
    /// observes [`Poisoned`] from [`SimBarrier::wait_checked`]. Used by the
    /// cluster-abort path so no worker hangs on a barrier a failed peer
    /// will never reach. Idempotent.
    pub fn poison(&self, ctx: &SimCtx) {
        let mut st = self.inner.borrow_mut();
        st.poisoned = true;
        for w in st.waiters.drain(..) {
            ctx.unpark(w);
        }
    }

    /// Like [`SimBarrier::wait`], but returns `Err(Poisoned)` once the
    /// barrier has been poisoned (before or while waiting). `Ok(true)`
    /// marks the generation leader.
    pub fn wait_checked(&self, ctx: &SimCtx) -> Result<bool, Poisoned> {
        let gen = {
            let mut st = self.inner.borrow_mut();
            if st.poisoned {
                return Err(Poisoned);
            }
            st.arrived += 1;
            if st.arrived == self.n {
                st.arrived = 0;
                st.generation += 1;
                for w in st.waiters.drain(..) {
                    ctx.unpark(w);
                }
                return Ok(true);
            }
            st.waiters.push(ctx.id());
            st.generation
        };
        loop {
            ctx.park();
            let st = self.inner.borrow();
            if st.poisoned {
                return Err(Poisoned);
            }
            if st.generation != gen {
                return Ok(false);
            }
        }
    }

    /// Block until all `n` participants have called `wait` for the current
    /// generation. Returns `true` for exactly one participant per
    /// generation (the *leader* — the last to arrive).
    ///
    /// # Panics
    /// Panics if the barrier is poisoned: a barrier on an abort path is
    /// waited on with [`SimBarrier::wait_checked`].
    pub fn wait(&self, ctx: &SimCtx) -> bool {
        self.wait_checked(ctx).expect("wait on a poisoned barrier")
    }
}

/// An unbounded MPSC/MPMC channel between simulated threads.
///
/// `send` never blocks; `recv` parks the receiver until an item arrives.
/// Closing wakes all receivers, which then drain remaining items and get
/// `None`.
pub struct SimChannel<T> {
    inner: RefCell<ChannelState<T>>,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    receivers: VecDeque<TaskId>,
    senders_done: bool,
}

impl<T> SimChannel<T> {
    /// Create an open, empty channel.
    pub fn new() -> Arc<SimChannel<T>> {
        Arc::new(SimChannel {
            inner: RefCell::new(ChannelState {
                queue: VecDeque::new(),
                receivers: VecDeque::new(),
                senders_done: false,
            }),
        })
    }

    /// Enqueue an item, waking one parked receiver if any.
    ///
    /// # Panics
    /// Panics if the channel has been closed.
    pub fn send(&self, ctx: &SimCtx, value: T) {
        let mut st = self.inner.borrow_mut();
        assert!(!st.senders_done, "send on closed SimChannel");
        st.queue.push_back(value);
        if let Some(rx) = st.receivers.pop_front() {
            ctx.unpark(rx);
        }
    }

    /// Receive the next item, parking until one is available. Returns
    /// `None` once the channel is closed *and* drained.
    pub fn recv(&self, ctx: &SimCtx) -> Option<T> {
        loop {
            {
                let mut st = self.inner.borrow_mut();
                if let Some(v) = st.queue.pop_front() {
                    return Some(v);
                }
                if st.senders_done {
                    return None;
                }
                st.receivers.push_back(ctx.id());
            }
            ctx.park();
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().queue.is_empty()
    }

    /// Close the channel: no further sends are allowed and all parked
    /// receivers wake (they drain the queue, then observe `None`).
    /// Idempotent: closing an already-closed channel is a no-op, so the
    /// abort path and the normal teardown path can race benignly.
    pub fn close(&self, ctx: &SimCtx) {
        let mut st = self.inner.borrow_mut();
        if st.senders_done {
            return;
        }
        st.senders_done = true;
        for rx in st.receivers.drain(..) {
            ctx.unpark(rx);
        }
    }

    /// Whether the channel has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.borrow().senders_done
    }
}

/// A counting semaphore on virtual time. Used e.g. to bound in-flight RDMA
/// work requests per queue pair.
pub struct SimSemaphore {
    inner: RefCell<SemState>,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<TaskId>,
    poisoned: bool,
}

impl SimSemaphore {
    /// A semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Arc<SimSemaphore> {
        Arc::new(SimSemaphore {
            inner: RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
                poisoned: false,
            }),
        })
    }

    /// Acquire one permit, parking until available.
    ///
    /// # Panics
    /// Panics if the semaphore is poisoned: a semaphore on an abort path
    /// is acquired with [`SimSemaphore::acquire_checked`].
    pub fn acquire(&self, ctx: &SimCtx) {
        self.acquire_checked(ctx)
            .expect("acquire on a poisoned semaphore")
    }

    /// Like [`SimSemaphore::acquire`], but wakes with `Err(Poisoned)` once
    /// the semaphore is poisoned instead of waiting for a permit that a
    /// crashed peer will never release.
    pub fn acquire_checked(&self, ctx: &SimCtx) -> Result<(), Poisoned> {
        loop {
            {
                let mut st = self.inner.borrow_mut();
                if st.poisoned {
                    return Err(Poisoned);
                }
                if st.permits > 0 {
                    st.permits -= 1;
                    return Ok(());
                }
                st.waiters.push_back(ctx.id());
            }
            ctx.park();
        }
    }

    /// Poison the semaphore, waking every parked acquirer with
    /// [`Poisoned`] (checked variant only). Idempotent.
    pub fn poison(&self, ctx: &SimCtx) {
        let mut st = self.inner.borrow_mut();
        st.poisoned = true;
        for w in st.waiters.drain(..) {
            ctx.unpark(w);
        }
    }

    /// Release one permit, waking one parked acquirer if any.
    pub fn release(&self, ctx: &SimCtx) {
        let mut st = self.inner.borrow_mut();
        st.permits += 1;
        if let Some(w) = st.waiters.pop_front() {
            ctx.unpark(w);
        }
    }

    /// Current number of available permits.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }
}

/// A one-shot event: waiters park until [`SimEvent::set`] fires; afterwards
/// `wait` returns immediately. The analogue of an RDMA completion
/// notification for a single outstanding work request.
pub struct SimEvent {
    inner: RefCell<EventState>,
}

struct EventState {
    set: bool,
    waiters: Vec<TaskId>,
}

impl SimEvent {
    /// A fresh, un-fired event.
    pub fn new() -> Arc<SimEvent> {
        Arc::new(SimEvent {
            inner: RefCell::new(EventState {
                set: false,
                waiters: Vec::new(),
            }),
        })
    }

    /// Fire the event, waking all waiters. Idempotent.
    pub fn set(&self, ctx: &SimCtx) {
        let mut st = self.inner.borrow_mut();
        st.set = true;
        for w in st.waiters.drain(..) {
            ctx.unpark(w);
        }
    }

    /// Whether the event has fired.
    pub fn is_set(&self) -> bool {
        self.inner.borrow().set
    }

    /// Park until the event fires (returns immediately if already fired).
    pub fn wait(&self, ctx: &SimCtx) {
        loop {
            {
                let mut st = self.inner.borrow_mut();
                if st.set {
                    return;
                }
                st.waiters.push(ctx.id());
            }
            ctx.park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simulation;
    use crate::time::SimDuration;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn barrier_synchronizes_to_slowest() {
        let sim = Simulation::new();
        let barrier = SimBarrier::new(4);
        let release_times = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u64 {
            let barrier = Arc::clone(&barrier);
            let times = Rc::clone(&release_times);
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.advance(SimDuration::from_millis(1 + i * 10));
                barrier.wait(ctx);
                times.borrow_mut().push(ctx.now().as_nanos());
            });
        }
        sim.run();
        let times = release_times.borrow_mut();
        // Everyone released at the time of the slowest arriver (31 ms).
        assert_eq!(times.len(), 4);
        assert!(times.iter().all(|&t| t == 31_000_000));
    }

    #[test]
    fn barrier_has_exactly_one_leader_per_generation() {
        let sim = Simulation::new();
        let barrier = SimBarrier::new(3);
        let leaders = Arc::new(AtomicUsize::new(0));
        for i in 0..3u64 {
            let barrier = Arc::clone(&barrier);
            let leaders = Arc::clone(&leaders);
            sim.spawn(format!("w{i}"), move |ctx| {
                for round in 0..5u64 {
                    ctx.advance(SimDuration::from_micros(i * 7 + round));
                    if barrier.wait(ctx) {
                        leaders.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        sim.run();
        assert_eq!(leaders.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn channel_delivers_in_fifo_order() {
        let sim = Simulation::new();
        let ch = SimChannel::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let ch = Arc::clone(&ch);
            let got = Rc::clone(&got);
            sim.spawn("rx", move |ctx| {
                while let Some(v) = ch.recv(ctx) {
                    got.borrow_mut().push(v);
                }
            });
        }
        {
            let ch = Arc::clone(&ch);
            sim.spawn("tx", move |ctx| {
                for v in 0..10u32 {
                    ctx.advance(SimDuration::from_micros(1));
                    ch.send(ctx, v);
                }
                ch.close(ctx);
            });
        }
        sim.run();
        assert_eq!(*got.borrow_mut(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn channel_close_wakes_receiver_with_none() {
        let sim = Simulation::new();
        let ch: Arc<SimChannel<u32>> = SimChannel::new();
        let saw_none = Arc::new(AtomicUsize::new(0));
        {
            let ch = Arc::clone(&ch);
            let saw_none = Arc::clone(&saw_none);
            sim.spawn("rx", move |ctx| {
                assert!(ch.recv(ctx).is_none());
                saw_none.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let ch = Arc::clone(&ch);
            sim.spawn("closer", move |ctx| {
                ctx.advance(SimDuration::from_millis(2));
                ch.close(ctx);
            });
        }
        sim.run();
        assert_eq!(saw_none.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn semaphore_bounds_concurrency() {
        // Two permits, four workers each holding a permit for 10 ms: total
        // virtual span must be 20 ms (two waves), not 10 (unbounded) or
        // 40 (serialized).
        let sim = Simulation::new();
        let sem = SimSemaphore::new(2);
        let max_end = Arc::new(AtomicU64::new(0));
        for i in 0..4 {
            let sem = Arc::clone(&sem);
            let max_end = Arc::clone(&max_end);
            sim.spawn(format!("w{i}"), move |ctx| {
                sem.acquire(ctx);
                ctx.advance(SimDuration::from_millis(10));
                sem.release(ctx);
                max_end.fetch_max(ctx.now().as_nanos(), Ordering::SeqCst);
            });
        }
        sim.run();
        assert_eq!(max_end.load(Ordering::SeqCst), 20_000_000);
    }

    #[test]
    fn event_wakes_all_waiters_and_is_sticky() {
        let sim = Simulation::new();
        let ev = SimEvent::new();
        let woken = Arc::new(AtomicUsize::new(0));
        for i in 0..3 {
            let ev = Arc::clone(&ev);
            let woken = Arc::clone(&woken);
            sim.spawn(format!("waiter{i}"), move |ctx| {
                ev.wait(ctx);
                woken.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let ev = Arc::clone(&ev);
            sim.spawn("setter", move |ctx| {
                ctx.advance(SimDuration::from_millis(1));
                ev.set(ctx);
            });
        }
        // A late waiter sees the event already set.
        {
            let ev = Arc::clone(&ev);
            let woken = Arc::clone(&woken);
            sim.spawn("late", move |ctx| {
                ctx.advance(SimDuration::from_millis(5));
                ev.wait(ctx);
                woken.fetch_add(1, Ordering::SeqCst);
            });
        }
        sim.run();
        assert_eq!(woken.load(Ordering::SeqCst), 4);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn semaphore_starvation_is_a_deadlock() {
        let sim = Simulation::new();
        let sem = SimSemaphore::new(0);
        sim.spawn("starved", move |ctx| sem.acquire(ctx));
        sim.run();
    }

    #[test]
    fn poisoned_barrier_wakes_and_rejects_waiters() {
        let sim = Simulation::new();
        let barrier = SimBarrier::new(3);
        let rejected = Arc::new(AtomicUsize::new(0));
        for i in 0..2u64 {
            let barrier = Arc::clone(&barrier);
            let rejected = Arc::clone(&rejected);
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.advance(SimDuration::from_millis(i));
                assert_eq!(barrier.wait_checked(ctx), Err(Poisoned));
                rejected.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            // The third participant never arrives; it poisons instead.
            let barrier = Arc::clone(&barrier);
            let rejected = Arc::clone(&rejected);
            sim.spawn("poisoner", move |ctx| {
                ctx.advance(SimDuration::from_millis(5));
                barrier.poison(ctx);
                // Late arrivals are rejected immediately.
                assert_eq!(barrier.wait_checked(ctx), Err(Poisoned));
                rejected.fetch_add(1, Ordering::SeqCst);
            });
        }
        sim.run();
        assert_eq!(rejected.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn unpoisoned_checked_wait_matches_plain_wait() {
        let sim = Simulation::new();
        let barrier = SimBarrier::new(2);
        let leaders = Arc::new(AtomicUsize::new(0));
        for i in 0..2u64 {
            let barrier = Arc::clone(&barrier);
            let leaders = Arc::clone(&leaders);
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.advance(SimDuration::from_millis(i));
                if barrier.wait_checked(ctx).expect("not poisoned") {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        sim.run();
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn poisoned_semaphore_unblocks_checked_acquirers() {
        let sim = Simulation::new();
        let sem = SimSemaphore::new(0);
        let rejected = Arc::new(AtomicUsize::new(0));
        {
            let sem = Arc::clone(&sem);
            let rejected = Arc::clone(&rejected);
            sim.spawn("starved", move |ctx| {
                assert_eq!(sem.acquire_checked(ctx), Err(Poisoned));
                rejected.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let sem = Arc::clone(&sem);
            sim.spawn("poisoner", move |ctx| {
                ctx.advance(SimDuration::from_millis(1));
                sem.poison(ctx);
            });
        }
        sim.run();
        assert_eq!(rejected.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn channel_close_is_idempotent() {
        let sim = Simulation::new();
        let ch: Arc<SimChannel<u32>> = SimChannel::new();
        sim.spawn("closer", move |ctx| {
            ch.close(ctx);
            ch.close(ctx);
            assert!(ch.is_closed());
            assert!(ch.recv(ctx).is_none());
        });
        sim.run();
    }
}
