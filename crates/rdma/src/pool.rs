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
//! is charged — the anti-pattern the paper warns against). A sender that
//! write-combines into memory of its own claims its buffers on the count
//! and draws a physical one only to post it. [`SendWindow`]
//! models the per-partition double-buffering discipline: `admit` blocks
//! only when the oldest of the last `DEPTH` sends has not completed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use rsj_sim::{SimCtx, SimDuration};

use crate::config::{NicCosts, QueryId};
use crate::fault::FabricError;
use crate::nic::SendHandle;
use crate::validate::{Validator, Violation};

/// A pool of fixed-size, pre-registered RDMA buffers.
///
/// Two ledgers: the *count* ([`BufferPool::available`],
/// [`BufferPool::outstanding`], [`BufferPool::fly_registrations`]) is the
/// model — what the join is charged for — and moves only with
/// [`BufferPool::claim`] (or [`BufferPool::take`], a claim and a refill)
/// and [`BufferPool::put`]. The *physical* free list
/// is host memory: every buffer handed back, by `put` or by a receiver
/// through [`BufferPool::recycle`], waits there for the next draw, so a
/// steady stream reuses its buffers instead of allocating them. It never
/// holds more buffers than the pool has registered, and a stream's
/// buffers leave it with the stream: once every taken buffer is back on
/// the count, the list keeps only what `put` hands it.
pub struct BufferPool {
    buf_size: usize,
    costs: NicCosts,
    inner: RefCell<PoolState>,
}

struct PoolState {
    /// Buffers returned by `put` and not taken since.
    idle: usize,
    /// Preregistered buffers never taken. Registration happened at
    /// pool-setup time (before the join), so drawing one is free; the host
    /// allocation is deferred so a large logical pool does not pin host
    /// memory it never uses.
    stock: usize,
    /// The physical free list: emptied buffers of capacity `buf_size`,
    /// at most `registered` of them.
    spare: Vec<Vec<u8>>,
    /// Buffers registered: the initial count plus every on-the-fly
    /// registration.
    registered: usize,
    fly_registrations: u64,
    /// Buffers [`BufferPool::refill`] allocated because the free list was
    /// empty.
    allocated: u64,
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
            inner: RefCell::new(PoolState {
                idle: 0,
                stock: count,
                spare: Vec::new(),
                registered: count,
                fly_registrations: 0,
                allocated: 0,
                outstanding: 0,
            }),
        })
    }

    /// Buffer capacity in bytes.
    pub fn buf_size(&self) -> usize {
        self.buf_size
    }

    /// Take a buffer: [`BufferPool::claim`] one on the count, then
    /// [`BufferPool::refill`] it physically, so filling it never
    /// reallocates.
    pub fn take(&self, ctx: &SimCtx) -> Vec<u8> {
        self.claim(ctx);
        self.refill()
    }

    /// Claim one buffer on the count, without a physical one: a returned
    /// buffer, else one from the preregistered stock, else one registered
    /// on the fly, whose pinning cost the caller pays. A sender that
    /// write-combines elsewhere claims here and draws the physical buffer
    /// with [`BufferPool::refill`] only when it posts.
    pub fn claim(&self, ctx: &SimCtx) {
        let fly = {
            let mut st = self.inner.borrow_mut();
            st.outstanding += 1;
            if st.idle > 0 {
                st.idle -= 1;
                false
            } else if st.stock > 0 {
                st.stock -= 1;
                false
            } else {
                st.fly_registrations += 1;
                st.registered += 1;
                true
            }
        };
        if fly {
            ctx.advance(SimDuration::from_secs_f64(
                self.costs.register_seconds(self.buf_size),
            ));
        }
    }

    /// Return a buffer to the pool: one buffer back on the count and, if
    /// it is a real pool buffer (an empty `Vec` is a count-only return),
    /// on the physical free list, cleared. The last outstanding buffer
    /// back ends the stream that drew them: the buffers its receivers
    /// returned are freed, as the stream's own would have been.
    pub fn put(&self, buf: Vec<u8>) {
        let mut st = self.inner.borrow_mut();
        st.outstanding = st.outstanding.saturating_sub(1);
        st.idle += 1;
        if st.outstanding == 0 {
            st.spare.clear();
        }
        st.keep(buf, self.buf_size);
    }

    /// Hand an emptied buffer back to the physical free list without
    /// touching the count: a receiver returns the payload it has copied
    /// out to the sending machine's pool (§4.2.2), whose next draw reuses
    /// it. Dropped instead if no buffer is outstanding (the stream has
    /// ended), if it is not a buffer of this pool's size, or if the free
    /// list already holds every buffer the pool registered.
    pub fn recycle(&self, buf: Vec<u8>) {
        let mut st = self.inner.borrow_mut();
        if st.outstanding > 0 {
            st.keep(buf, self.buf_size);
        }
    }

    /// The physical side of a draw, and all of it for a sender that
    /// already holds its share of the count: the free list's last buffer,
    /// else a new one of [`BufferPool::buf_size`]. Never counted.
    pub fn refill(&self) -> Vec<u8> {
        let mut st = self.inner.borrow_mut();
        match st.spare.pop() {
            Some(buf) => buf,
            None => {
                st.allocated += 1;
                // lint: allow-hot-alloc(a miss materializes one pool buffer; a steady stream pops the free list)
                Vec::with_capacity(self.buf_size)
            }
        }
    }

    /// Buffers currently available (returned plus never-taken stock).
    pub fn available(&self) -> usize {
        let st = self.inner.borrow();
        st.idle + st.stock
    }

    /// How many times the pool was exhausted and had to register on the
    /// fly — should be zero in a well-configured run.
    pub fn fly_registrations(&self) -> u64 {
        self.inner.borrow().fly_registrations
    }

    /// Host buffers allocated so far: draws that found the physical free
    /// list empty. Unlike the count, this is host memory, not the model.
    pub fn allocated(&self) -> u64 {
        self.inner.borrow().allocated
    }

    /// Buffers currently taken and not returned (leaked if nonzero once
    /// the operator that owns the pool has finished).
    pub fn outstanding(&self) -> usize {
        self.inner.borrow().outstanding
    }
}

impl PoolState {
    /// Keep `buf` on the free list, emptied, if it is a buffer of `size`
    /// bytes and the list holds fewer than every buffer registered.
    fn keep(&mut self, mut buf: Vec<u8>, size: usize) {
        if buf.capacity() == size && self.spare.len() < self.registered {
            buf.clear();
            self.spare.push(buf);
        }
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
    inner: RefCell<ArenaState>,
}

struct ArenaState {
    /// Bytes of registered memory not currently granted to any query.
    budget_bytes: u64,
    /// Total slab size (constant after construction).
    total_bytes: u64,
    /// Bytes currently granted, per query.
    per_query: BTreeMap<u32, u64>,
}

impl PoolArena {
    /// An arena of `budget_bytes` of pre-registered memory.
    pub fn new(budget_bytes: u64, costs: NicCosts) -> Arc<PoolArena> {
        Arc::new(PoolArena {
            costs,
            inner: RefCell::new(ArenaState {
                budget_bytes,
                total_bytes: budget_bytes,
                per_query: BTreeMap::new(),
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
            let mut st = self.inner.borrow_mut();
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
        let mut st = self.inner.borrow_mut();
        if let Some(bytes) = st.per_query.remove(&query.0) {
            st.budget_bytes += bytes;
        }
    }

    /// Bytes currently unclaimed.
    pub fn available_bytes(&self) -> u64 {
        self.inner.borrow().budget_bytes
    }

    /// Bytes currently granted to `query`.
    pub fn query_bytes(&self, query: QueryId) -> u64 {
        self.inner
            .borrow()
            .per_query
            .get(&query.0)
            .copied()
            .unwrap_or(0)
    }

    /// Total slab size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.inner.borrow().total_bytes
    }
}

/// Tracks the completions of the last `DEPTH` posted sends for one logical
/// stream (one partition, in the join), enforcing the paper's
/// double-buffering discipline.
///
/// With `DEPTH = 2` (the paper's minimum), the caller can fill buffer B
/// while buffer A is on the wire, and blocks only if A is *still* on the
/// wire when B is full — i.e. only when genuinely network-bound. The slots
/// live inline and the validator is borrowed, so opening a window costs
/// its stream no allocation and no reference count.
pub struct SendWindow<'v, const DEPTH: usize> {
    slots: [Option<SendHandle>; DEPTH],
    next: usize,
    /// Total virtual seconds spent blocked in `admit` — the "thread had to
    /// wait for the network" time the model's Eq. 4 predicts.
    stall_seconds: f64,
    /// The fabric's verbs-contract validator: re-posting a slot without
    /// `admit` and dropping the window with sends still in flight are
    /// reported [`Violation`]s.
    validator: &'v Validator,
}

impl<'v, const DEPTH: usize> SendWindow<'v, DEPTH> {
    /// A window admitting `DEPTH` in-flight sends (`DEPTH >= 1`), wired
    /// to `validator`.
    pub fn new(validator: &'v Validator) -> SendWindow<'v, DEPTH> {
        const { assert!(DEPTH >= 1, "a window admits at least one send") };
        SendWindow {
            slots: std::array::from_fn(|_| None),
            next: 0,
            stall_seconds: 0.0,
            validator,
        }
    }

    /// Block until a slot is free (i.e. the send posted `DEPTH` calls ago
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
        self.next = (self.next + 1) % DEPTH;
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

impl<const DEPTH: usize> Drop for SendWindow<'_, DEPTH> {
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
    use rsj_sim::Simulation;

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
    fn the_free_list_reuses_returned_buffers_and_never_outgrows_the_count() {
        let sim = Simulation::new();
        sim.spawn("user", |ctx| {
            let pool = BufferPool::new(3, 64, NicCosts::default());
            let spare = |pool: &BufferPool| pool.inner.borrow().spare.len();
            let a = pool.take(ctx);
            let a_ptr = a.as_ptr();
            pool.put(a);
            let again = pool.take(ctx);
            assert_eq!(again.as_ptr(), a_ptr, "a take reuses the returned buffer");
            assert_eq!(pool.allocated(), 1, "only the first take allocated");
            // A receiver hands back more buffers than the pool registered:
            // the free list keeps three.
            let mut held: Vec<_> = (0..2).map(|_| pool.take(ctx)).collect();
            held.push(again);
            for _ in 0..4 {
                pool.recycle(vec![0; 64]);
                assert!(spare(&pool) <= 3);
            }
            assert_eq!((spare(&pool), pool.available()), (3, 0));
            // Counted returns past the cap, and foreign sizes, are dropped;
            // a refill is physical only.
            let last = held.pop().expect("three held");
            for buf in held {
                pool.put(buf);
            }
            pool.recycle(Vec::with_capacity(65));
            assert_eq!((spare(&pool), pool.available()), (3, 2));
            let refill = pool.refill();
            assert_eq!(
                (refill.capacity(), spare(&pool), pool.available()),
                (64, 2, 2)
            );
            assert_eq!(pool.allocated(), 3, "the two takes past the first missed");
            // The last buffer back ends the stream: what receivers returned
            // is freed, the put buffer kept, and late returns dropped.
            pool.put(last);
            pool.recycle(refill);
            assert_eq!(
                (spare(&pool), pool.available(), pool.outstanding()),
                (1, 3, 0)
            );
            // An on-the-fly registration raises the cap by one.
            let taken: Vec<_> = (0..4).map(|_| pool.take(ctx)).collect();
            assert_eq!(pool.fly_registrations(), 1);
            for _ in 0..5 {
                pool.recycle(vec![0; 64]);
            }
            assert_eq!((spare(&pool), pool.outstanding()), (4, 4));
            for buf in taken {
                pool.put(buf);
            }
        });
        sim.run();
    }

    #[test]
    fn send_window_blocks_only_when_oldest_incomplete() {
        let sim = Simulation::new();
        sim.spawn("worker", |ctx| {
            let validator = Validator::new();
            let mut w = SendWindow::<2>::new(&validator);
            let completed = |ctx: &SimCtx| {
                let (handle, complete) = SendHandle::for_test();
                complete(ctx);
                handle
            };
            // Two already-completed sends: admit must not block.
            for _ in 0..2 {
                w.admit(ctx).unwrap();
                w.record(completed(ctx));
            }
            assert_eq!(w.stall_seconds(), 0.0);
            // An incomplete send two slots back: admit blocks until set.
            let (pending, complete) = SendHandle::for_test();
            w.admit(ctx).unwrap();
            w.record(pending);
            ctx.spawn("completer", move |ctx| {
                ctx.advance(SimDuration::from_millis(5));
                complete(ctx);
            });
            w.admit(ctx).unwrap(); // free slot (second of depth 2): no block
            w.record(completed(ctx));
            w.admit(ctx).unwrap(); // must wait for `pending`
            w.record(completed(ctx));
            assert!((w.stall_seconds() - 5e-3).abs() < 1e-9);
            w.drain(ctx).unwrap();
        });
        sim.run();
    }
}
