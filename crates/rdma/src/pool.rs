//! RDMA buffer pooling and in-flight send windows.
//!
//! §4.2.1 of the paper: *"To hide the buffer registration costs, the
//! RDMA-enabled buffers are drawn from a pool containing preallocated and
//! preregistered buffers"* and *"at least two RDMA-enabled buffers are
//! assigned to each thread for a given partition"* so that partitioning can
//! continue while the previous buffer is in flight.
//!
//! [`BufferPool`] models the pre-registered pool (taking from the pool is
//! free; exhausting it falls back to an on-the-fly registration, whose cost
//! is charged — the anti-pattern the paper warns against). [`SendWindow`]
//! models the per-partition double-buffering discipline: `admit` blocks
//! only when the oldest of the last `depth` sends has not completed.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rsj_sim::{SimCtx, SimDuration};

use crate::config::{NicCosts, QueryId};
use crate::fault::FabricError;
use crate::nic::SendHandle;
use crate::validate::{Validator, Violation};

/// A pool of fixed-size, pre-registered RDMA buffers.
pub struct BufferPool {
    buf_size: usize,
    costs: NicCosts,
    inner: Mutex<PoolState>,
}

struct PoolState {
    free: Vec<Vec<u8>>,
    /// Preregistered buffers not yet materialized. Registration happened
    /// at pool-setup time (before the join), so drawing one is free; the
    /// host allocation is deferred so a large logical pool does not pin
    /// host memory it never uses.
    stock: usize,
    fly_registrations: u64,
    /// Buffers taken and not yet returned — audited at teardown by the
    /// validator's pool-leak check.
    outstanding: usize,
}

impl BufferPool {
    /// Create a pool of `count` buffers of `buf_size` bytes each.
    ///
    /// Pool setup happens once at system start, before any join runs, so
    /// (like the paper) its registration cost is not charged to join
    /// execution time.
    pub fn new(count: usize, buf_size: usize, costs: NicCosts) -> Arc<BufferPool> {
        assert!(buf_size > 0, "zero-sized RDMA buffers are useless");
        Arc::new(BufferPool {
            buf_size,
            costs,
            inner: Mutex::new(PoolState {
                free: Vec::new(),
                stock: count,
                fly_registrations: 0,
                outstanding: 0,
            }),
        })
    }

    /// Buffer capacity in bytes.
    pub fn buf_size(&self) -> usize {
        self.buf_size
    }

    /// Take a buffer. If the preregistered stock is exhausted, a new buffer
    /// is registered on the fly and the caller pays the pinning cost.
    pub fn take(&self, ctx: &SimCtx) -> Vec<u8> {
        {
            let mut st = self.inner.lock();
            st.outstanding += 1;
            if let Some(buf) = st.free.pop() {
                return buf;
            }
            if st.stock > 0 {
                st.stock -= 1;
                return Vec::new();
            }
            st.fly_registrations += 1;
        }
        ctx.advance(SimDuration::from_secs_f64(
            self.costs.register_seconds(self.buf_size),
        ));
        Vec::new()
    }

    /// Return a buffer to the pool (cleared, capacity kept).
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut st = self.inner.lock();
        st.outstanding = st.outstanding.saturating_sub(1);
        st.free.push(buf);
    }

    /// Buffers currently available (free list plus unmaterialized stock).
    pub fn available(&self) -> usize {
        let st = self.inner.lock();
        st.free.len() + st.stock
    }

    /// How many times the pool was exhausted and had to register on the
    /// fly — should be zero in a well-configured run.
    pub fn fly_registrations(&self) -> u64 {
        self.inner.lock().fly_registrations
    }

    /// Buffers currently taken and not returned (leaked if nonzero once
    /// the operator that owns the pool has finished).
    pub fn outstanding(&self) -> usize {
        self.inner.lock().outstanding
    }
}

/// A fixed budget of pre-registered RDMA memory on one host, carved into
/// per-query [`BufferPool`]s by a query service.
///
/// The arena models the §3.2.1 reality of a long-lived service: the host
/// pins and registers a bounded slab once at startup, and every admitted
/// query draws its pool from that slab. A query whose request exceeds the
/// bytes currently unclaimed gets a *smaller* pre-registered stock and
/// falls back to on-the-fly registrations for the shortfall — the
/// contention cost signal the paper's registration measurements
/// (Figure 5a) price. Releasing a query returns its bytes to the budget.
pub struct PoolArena {
    costs: NicCosts,
    inner: Mutex<ArenaState>,
}

struct ArenaState {
    /// Bytes of registered memory not currently granted to any query.
    budget_bytes: u64,
    /// Total slab size (constant after construction).
    total_bytes: u64,
    /// Bytes currently granted, per query.
    per_query: HashMap<u32, u64>,
}

impl PoolArena {
    /// An arena of `budget_bytes` of pre-registered memory.
    pub fn new(budget_bytes: u64, costs: NicCosts) -> Arc<PoolArena> {
        Arc::new(PoolArena {
            costs,
            inner: Mutex::new(ArenaState {
                budget_bytes,
                total_bytes: budget_bytes,
                per_query: HashMap::new(),
            }),
        })
    }

    /// Carve a [`BufferPool`] for `query` out of the arena: the pool wants
    /// `count` buffers of `buf_size` bytes, and is granted pre-registered
    /// stock for `min(want, budget)` of those bytes. Any shortfall is not
    /// an error — the pool simply registers on the fly when its stock runs
    /// out, so `fly_registrations()` exposes the contention.
    ///
    /// Call [`PoolArena::release`] with the same query id once the query
    /// retires, or the bytes stay claimed forever.
    pub fn sub_pool(&self, query: QueryId, count: usize, buf_size: usize) -> Arc<BufferPool> {
        assert!(buf_size > 0, "zero-sized RDMA buffers are useless");
        let want = (count as u64).saturating_mul(buf_size as u64);
        let granted = {
            let mut st = self.inner.lock();
            let granted = want.min(st.budget_bytes);
            st.budget_bytes -= granted;
            *st.per_query.entry(query.0).or_insert(0) += granted;
            granted
        };
        let granted_bufs = (granted / buf_size as u64) as usize;
        BufferPool::new(granted_bufs, buf_size, self.costs)
    }

    /// Return every byte `query` holds to the budget.
    pub fn release(&self, query: QueryId) {
        let mut st = self.inner.lock();
        if let Some(bytes) = st.per_query.remove(&query.0) {
            st.budget_bytes += bytes;
        }
    }

    /// Bytes currently unclaimed.
    pub fn available_bytes(&self) -> u64 {
        self.inner.lock().budget_bytes
    }

    /// Bytes currently granted to `query`.
    pub fn query_bytes(&self, query: QueryId) -> u64 {
        self.inner
            .lock()
            .per_query
            .get(&query.0)
            .copied()
            .unwrap_or(0)
    }

    /// Total slab size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().total_bytes
    }
}

/// Tracks the completions of the last `depth` posted sends for one logical
/// stream (one partition, in the join), enforcing the paper's
/// double-buffering discipline.
///
/// With `depth = 2` (the paper's minimum), the caller can fill buffer B
/// while buffer A is on the wire, and blocks only if A is *still* on the
/// wire when B is full — i.e. only when genuinely network-bound.
pub struct SendWindow {
    slots: Vec<Option<SendHandle>>,
    next: usize,
    /// Total virtual seconds spent blocked in `admit` — the "thread had to
    /// wait for the network" time the model's Eq. 4 predicts.
    stall_seconds: f64,
    /// The fabric's verbs-contract validator: re-posting a slot without
    /// `admit` and dropping the window with sends still in flight are
    /// reported [`Violation`]s.
    validator: Arc<Validator>,
}

impl SendWindow {
    /// A window admitting `depth` in-flight sends (`depth >= 1`), wired
    /// to `validator`.
    pub fn new(depth: usize, validator: Arc<Validator>) -> SendWindow {
        assert!(depth >= 1);
        SendWindow {
            slots: (0..depth).map(|_| None).collect(),
            next: 0,
            stall_seconds: 0.0,
            validator,
        }
    }

    /// Block until a slot is free (i.e. the send posted `depth` calls ago
    /// has completed), accumulating stall time. Surfaces the displaced
    /// work request's completion status: a flushed or retry-exhausted send
    /// becomes a typed [`FabricError`] the caller must propagate.
    pub fn admit(&mut self, ctx: &SimCtx) -> Result<(), FabricError> {
        if let Some(handle) = self.slots[self.next].take() {
            if !handle.is_done() {
                let t0 = ctx.now();
                let res = handle.wait(ctx);
                self.stall_seconds += (ctx.now() - t0).as_secs_f64();
                return res;
            }
            return handle.wait(ctx);
        }
        Ok(())
    }

    /// Record a posted send's completion event in the slot reserved by the
    /// preceding [`SendWindow::admit`]. Recording into an occupied slot —
    /// re-posting a buffer whose previous work request was never waited
    /// for — breaks the §4.2.1 double-buffering discipline and is
    /// reported as a [`Violation::RepostBeforeCompletion`].
    pub fn record(&mut self, handle: SendHandle) {
        if let Some(prev) = &self.slots[self.next] {
            let in_flight = !prev.is_done();
            self.validator
                .report(Violation::RepostBeforeCompletion { in_flight });
        }
        self.slots[self.next] = Some(handle);
        self.next = (self.next + 1) % self.slots.len();
    }

    /// Wait for every outstanding send to complete (end of the network
    /// partitioning pass). Always drains the whole window — even when a
    /// send errored — then reports the first error encountered, so the
    /// window never drops work requests still in flight.
    pub fn drain(&mut self, ctx: &SimCtx) -> Result<(), FabricError> {
        let mut first_err = None;
        for slot in &mut self.slots {
            if let Some(handle) = slot.take() {
                let t0 = ctx.now();
                let res = handle.wait(ctx);
                self.stall_seconds += (ctx.now() - t0).as_secs_f64();
                if first_err.is_none() {
                    first_err = res.err();
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Virtual seconds this window spent waiting on the network.
    pub fn stall_seconds(&self) -> f64 {
        self.stall_seconds
    }
}

impl Drop for SendWindow {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let outstanding = self.slots.iter().flatten().filter(|h| !h.is_done()).count();
        // An aborting run drops windows mid-unwind with flushed work
        // requests still recorded — fault-plane fallout, not a bug.
        if outstanding > 0 && !self.validator.fault_residue() {
            self.validator
                .report(Violation::WindowNotDrained { outstanding });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_sim::{SimEvent, Simulation};

    #[test]
    fn pool_reuses_buffers_without_cost() {
        let sim = Simulation::new();
        sim.spawn("user", |ctx| {
            let pool = BufferPool::new(2, 4096, NicCosts::default());
            let t0 = ctx.now();
            let a = pool.take(ctx);
            let b = pool.take(ctx);
            assert_eq!(ctx.now(), t0, "pool hits are free");
            assert_eq!(pool.available(), 0);
            pool.put(a);
            pool.put(b);
            assert_eq!(pool.available(), 2);
            assert_eq!(pool.fly_registrations(), 0);
        });
        sim.run();
    }

    #[test]
    fn pool_exhaustion_charges_registration() {
        let sim = Simulation::new();
        sim.spawn("user", |ctx| {
            let costs = NicCosts::default();
            let pool = BufferPool::new(1, 64 * 1024, costs);
            let _a = pool.take(ctx);
            let t0 = ctx.now();
            let _b = pool.take(ctx); // on-the-fly registration
            let charged = (ctx.now() - t0).as_secs_f64();
            assert!((charged - costs.register_seconds(64 * 1024)).abs() < 1e-12);
            assert_eq!(pool.fly_registrations(), 1);
        });
        sim.run();
    }

    #[test]
    fn arena_partitions_budget_and_shorts_overcommit() {
        let sim = Simulation::new();
        sim.spawn("service", |ctx| {
            let arena = PoolArena::new(8 * 4096, NicCosts::default());
            // First query gets its full ask.
            let p1 = arena.sub_pool(QueryId(1), 6, 4096);
            assert_eq!(p1.available(), 6);
            assert_eq!(arena.query_bytes(QueryId(1)), 6 * 4096);
            // Second query wants 6 buffers but only 2 remain in budget:
            // stock is shorted, the rest registers on the fly.
            let p2 = arena.sub_pool(QueryId(2), 6, 4096);
            assert_eq!(p2.available(), 2);
            assert_eq!(arena.available_bytes(), 0);
            let bufs: Vec<_> = (0..3).map(|_| p2.take(ctx)).collect();
            assert_eq!(p2.fly_registrations(), 1);
            for b in bufs {
                p2.put(b);
            }
            // Releasing the first query refills the budget.
            arena.release(QueryId(1));
            assert_eq!(arena.available_bytes(), 6 * 4096);
            assert_eq!(arena.query_bytes(QueryId(1)), 0);
            arena.release(QueryId(2));
            assert_eq!(arena.available_bytes(), arena.total_bytes());
        });
        sim.run();
    }

    #[test]
    fn send_window_blocks_only_when_oldest_incomplete() {
        let sim = Simulation::new();
        sim.spawn("worker", |ctx| {
            let mut w = SendWindow::new(2, Validator::new());
            // Two already-completed sends: admit must not block.
            for _ in 0..2 {
                w.admit(ctx).unwrap();
                let ev = SimEvent::new();
                ev.set(ctx);
                w.record(SendHandle::for_test(ev));
            }
            assert_eq!(w.stall_seconds(), 0.0);
            // An incomplete send two slots back: admit blocks until set.
            let pending = SimEvent::new();
            w.admit(ctx).unwrap();
            w.record(SendHandle::for_test(Arc::clone(&pending)));
            let setter_target = Arc::clone(&pending);
            ctx.spawn("completer", move |ctx| {
                ctx.advance(SimDuration::from_millis(5));
                setter_target.set(ctx);
            });
            w.admit(ctx).unwrap(); // free slot (second of depth 2): no block
            let done = SimEvent::new();
            done.set(ctx);
            w.record(SendHandle::for_test(done));
            w.admit(ctx).unwrap(); // must wait for `pending`
            let ev = SimEvent::new();
            ev.set(ctx);
            w.record(SendHandle::for_test(ev));
            assert!((w.stall_seconds() - 5e-3).abs() < 1e-9);
            w.drain(ctx).unwrap();
        });
        sim.run();
    }
}
