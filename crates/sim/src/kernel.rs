//! The discrete-event kernel: a cooperative scheduler for simulated threads.
//!
//! Every simulated entity (a worker core, a NIC engine, a coordinator) is a
//! task with a stack of its own, and all tasks of a simulation run on the
//! one OS thread that calls [`Simulation::run`], so **exactly one of them
//! runs at any moment**. A task runs until it reaches a *yield point* —
//! [`SimCtx::advance`] (charge virtual time), [`SimCtx::park`] (block until
//! unparked), or task exit — at which point it switches back to the
//! scheduler loop, which dispatches the runnable task with the
//! smallest `(wake_time, task, sequence_number)` key. Ties on the clock are
//! broken by the *target task id*, not by global insertion order: which
//! task runs first at a shared instant is a pure function of the instant
//! and the task set, never of how many scheduler dispatches happened to
//! precede it. (Seq still orders multiple events of one task, and makes the
//! key total.) That invariance is what lets two dispatch patterns that
//! commit the same per-task clocks — e.g. eager vs batched settlement —
//! produce the identical execution. Virtual time jumps directly from event
//! to event; no wall-clock time is ever consulted, so a simulation is
//! bit-for-bit deterministic across runs and machines.
//!
//! This design lets the join algorithm be written as ordinary blocking Rust
//! code (loops, channels, barriers) while its *timing* comes entirely from
//! the cost model — which is exactly the substitution DESIGN.md calls for:
//! real data, virtual time.
//!
//! ## Thread confinement
//!
//! A simulation's state lives on the OS thread that runs it, and the
//! compiler holds it there: the kernel state and the [`crate::SimChannel`]
//! family are `RefCell`s, task bodies need not be `Send`, and so
//! [`Simulation`], [`SimCtx`] and every primitive are neither `Send` nor
//! `Sync`. Shared state between tasks is a `RefCell`/`Cell` too, never a
//! lock: one task runs at a time, so a borrow is never contended. A borrow
//! held across a yield point is the one mistake left, and it fails loudly —
//! the next task to borrow the same cell panics, and the run fails naming
//! that task (see [`SimCtx`], "Borrowing discipline").
//!
//! ## Wall-clock hot path
//!
//! The `(time, task, seq)` total order is the determinism contract; *how
//! fast the host walks that order* is a pure implementation concern. Three
//! techniques keep the walk cheap (DESIGN.md §"Kernel fast path"):
//!
//! 1. **Self-continuation fast path.** When an `advance()` would push an
//!    event that precedes everything queued, the reference scheduler would
//!    push it, dispatch it straight back to the same task, and pay two
//!    stack switches for a no-op handoff. The fast path detects
//!    this (`(wake, task) < next queued key`), bumps the clock, allocates
//!    the same sequence number, and returns inline — zero queue operations,
//!    zero switches. Consecutive charges between interaction points
//!    therefore coalesce: none of them touches the queue at all.
//! 2. **Two-level event queue.** Events at the *current* instant go into a
//!    small near-heap, only strictly-future events pay the main binary-heap
//!    `O(log n)` over the full horizon. Unpark wakes and same-instant
//!    yields — the bulk of barrier and channel traffic — stay in the small
//!    structure.
//! 3. **Stack switch.** A task is a stackful coroutine (`stack.rs`): a
//!    yield point saves the callee-saved registers on the task's stack and
//!    loads the scheduler loop's stack pointer, and a dispatch does the
//!    reverse — a function call that returns on another stack, with no
//!    system call, futex or second OS thread. Operator code stays ordinary
//!    blocking Rust that yields from deep inside its loops.
//! 4. **Batched self-advance.** [`SimCtx::advance_batched`] accrues virtual
//!    time into a per-task `pending` cell without touching the scheduler at
//!    all — it does not even borrow the kernel state. This is sound because
//!    the kernel is a *cooperative* scheduler: while this task holds the
//!    run token, no other task executes, so the event queue is frozen
//!    except for events this task itself pushes. The accrued time is this task's lookahead —
//!    provably unobservable until the task next performs a kernel-visible
//!    action (advance, park, unpark, spawn, exit), at which point
//!    [`SimCtx::settle_point`] commits the whole batch as one `advance`
//!    carrying the same total duration the unbatched calls would have, so
//!    every committed `(time, seq)` key at an interaction is unchanged. A
//!    seq-derived epoch assertion (debug builds) machine-checks the
//!    frozen-queue invariant on every settle.
//!
//! A heap-only reference scheduler ([`Simulation::new_reference`], always
//! compiled so tests exercise the very kernel release binaries run)
//! retains the original push-everything/pop-min structure; the
//! trace-equivalence tests assert both produce the identical
//! `(time, seq, task)` dispatch trace under the shared comparator.

use std::cell::{Cell, RefCell};
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crate::stack::{self, Fiber, Resumed, Stack, Switchboard};
use crate::time::{SimDuration, SimTime};

/// Identifies a simulated thread within one [`Simulation`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub(crate) usize);

/// One entry of a recorded dispatch trace: the kernel granted `task` the
/// right to run at virtual time `time`; `seq` is the event's insertion
/// number (the last component of the `(time, task, seq)` key). The
/// sequence of these entries *is* the scheduling decision record — two
/// kernel implementations are equivalent iff they produce identical traces.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Dispatch {
    /// Virtual time of the grant.
    pub time: SimTime,
    /// The event's global sequence number (insertion order; final
    /// component of the dispatch key).
    pub seq: u64,
    /// The task that was granted execution.
    pub task: TaskId,
}

/// Scheduler entry: wake `task` at `time`; clock ties are broken by the
/// target task id so the dispatch order at a shared instant never depends
/// on how many events were inserted before (see module docs), with `seq`
/// (insertion order) only ordering multiple events of one task. A plain
/// 24-byte value — queues store it inline, so "allocating" an event is a
/// bump of a preallocated buffer, never a heap allocation per event.
#[derive(Copy, Clone, PartialEq, Eq)]
struct Event {
    time: SimTime,
    seq: u64,
    task: usize,
}

impl Event {
    #[inline]
    fn key(&self) -> (SimTime, usize, u64) {
        (self.time, self.task, self.seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event wins.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TaskState {
    /// Has an event in the queue (or is about to get one).
    Runnable,
    /// Currently executing on the simulation's OS thread.
    Running,
    /// Waiting for an explicit unpark.
    Blocked,
    Finished,
}

/// A spawned task's body, held by its slot until its first dispatch.
type Body = Box<dyn FnOnce(&SimCtx)>;

struct Slot {
    name: String,
    /// The task's closure until its first dispatch moves it onto a stack;
    /// a simulation dropped without `run` drops it here.
    body: Option<Body>,
    state: TaskState,
    /// A pending unpark delivered while the task was not blocked; consumed
    /// by the next `park`.
    permit: bool,
}

struct State {
    now: SimTime,
    seq: u64,
    /// Events scheduled at exactly `now` at push time. A small min-heap:
    /// with task-id tie-breaking, same-instant events do not pop in
    /// insertion order, but the heap stays tiny (it drains before `now`
    /// advances), so pops cost `O(log instant-width)` instead of the main
    /// heap's `O(log horizon)`.
    near: BinaryHeap<Event>,
    /// Events scheduled strictly after `now` at push time. Min-heap by
    /// `(time, task, seq)`.
    far: BinaryHeap<Event>,
    slots: Vec<Slot>,
    /// Number of spawned-but-unfinished tasks.
    live: usize,
    /// First panic message observed; once set, the simulation aborts.
    failure: Option<String>,
    /// When present, every dispatch decision (including inline
    /// self-continuations) is appended here.
    trace: Option<Vec<Dispatch>>,
    /// Reference mode: heap-only queue, no self-continuation fast path —
    /// the original scheduler structure, kept as the equivalence oracle.
    reference: bool,
}

impl State {
    /// Peek the minimum `(time, task, seq)` key across both queue levels.
    #[inline]
    fn peek_key(&self) -> Option<(SimTime, usize, u64)> {
        let near = self.near.peek().map(Event::key);
        let far = self.far.peek().map(Event::key);
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pop the event with the minimum `(time, task, seq)` key.
    #[inline]
    fn pop_min(&mut self) -> Option<Event> {
        match (self.near.peek(), self.far.peek()) {
            (Some(a), Some(b)) => {
                if a.key() <= b.key() {
                    self.near.pop()
                } else {
                    self.far.pop()
                }
            }
            (Some(_), None) => self.near.pop(),
            (None, _) => self.far.pop(),
        }
    }

    #[inline]
    fn record(&mut self, time: SimTime, seq: u64, task: usize) {
        if let Some(tr) = self.trace.as_mut() {
            tr.push(Dispatch {
                time,
                seq,
                task: TaskId(task),
            });
        }
    }
}

pub(crate) struct Kernel {
    state: RefCell<State>,
    /// The scheduler loop's saved context while a task runs, and the
    /// task's while it switches back.
    board: Switchboard,
    /// Set with the first failure: a task resumed from then on unwinds
    /// with [`SimAbort`] instead of continuing.
    aborting: Cell<bool>,
}

/// Sentinel panic payload used to unwind simulated threads when the
/// simulation aborts (after another thread panicked or a deadlock was
/// detected). Not an error in the aborting thread itself.
struct SimAbort;

impl Kernel {
    fn new(reference: bool) -> Arc<Kernel> {
        Arc::new(Kernel {
            board: Switchboard::new(),
            aborting: Cell::new(false),
            state: RefCell::new(State {
                now: SimTime::ZERO,
                seq: 0,
                // Preallocated and retained for the life of the run: event
                // pushes never allocate once these warm up.
                near: BinaryHeap::with_capacity(256),
                far: BinaryHeap::with_capacity(1024),
                slots: Vec::with_capacity(64),
                live: 0,
                failure: None,
                trace: None,
                reference,
            }),
        })
    }

    fn push_event(state: &mut State, time: SimTime, task: usize) {
        let seq = state.seq;
        state.seq += 1;
        if !state.reference && time == state.now {
            state.near.push(Event { time, seq, task });
        } else {
            debug_assert!(state.reference || time > state.now);
            state.far.push(Event { time, seq, task });
        }
    }

    /// Picks the next runnable task and marks it Running. Called by the
    /// scheduler loop with the state borrowed, while no task runs.
    /// `None` once every task has finished.
    #[must_use]
    fn dispatch(&self, state: &mut State) -> Option<usize> {
        loop {
            let Some(ev) = state.pop_min() else {
                if state.live == 0 {
                    return None;
                }
                if state.failure.is_none() {
                    // Live tasks but nothing runnable: deadlock.
                    let blocked: Vec<&str> = state
                        .slots
                        .iter()
                        .filter(|s| s.state == TaskState::Blocked)
                        .map(|s| s.name.as_str())
                        .collect();
                    state.failure = Some(format!(
                        "simulation deadlock at {}: {} task(s) blocked with no pending \
                         events: {blocked:?}",
                        state.now, state.live
                    ));
                }
                assert!(
                    self.abort_all(state) > 0,
                    "live tasks with neither an event nor a block"
                );
                continue;
            };
            let slot = &mut state.slots[ev.task];
            // A stale event (task was already woken by a newer one, or
            // finished): skip it.
            if slot.state == TaskState::Runnable {
                debug_assert!(ev.time >= state.now, "time went backwards");
                state.now = ev.time;
                slot.state = TaskState::Running;
                state.record(ev.time, ev.seq, ev.task);
                return Some(ev.task);
            }
        }
    }

    /// Start aborting after a failure: make every blocked task runnable at
    /// the current instant, so each is resumed, unwinds with [`SimAbort`]
    /// and drops what its stack owns. Returns how many were woken.
    fn abort_all(&self, state: &mut State) -> usize {
        self.aborting.set(true);
        let mut woken = 0;
        for tid in 0..state.slots.len() {
            if state.slots[tid].state == TaskState::Blocked {
                state.slots[tid].state = TaskState::Runnable;
                let now = state.now;
                Self::push_event(state, now, tid);
                woken += 1;
            }
        }
        woken
    }

    /// Charge `d` of virtual time to task `tid`.
    ///
    /// Fast path: if the task's wake event would precede everything queued
    /// — `(wake, tid)` strictly below the minimum `(time, task)` — then
    /// pushing it and dispatching would hand control straight back to this
    /// same task. Skip the queue, the state transition, and the two stack
    /// switches entirely: allocate the seq, bump the clock, keep running.
    /// The recorded trace entry is identical to what the reference
    /// scheduler produces, because the reference would pop this very event
    /// next with the same `(time, seq)`.
    fn advance(&self, tid: usize, d: SimDuration) {
        let wake;
        {
            let mut st = self.state.borrow_mut();
            debug_assert_eq!(st.slots[tid].state, TaskState::Running);
            wake = st.now + d;
            if !st.reference && st.failure.is_none() {
                let wins = match st.peek_key() {
                    // A clock tie is broken by task id; a tie on both (a
                    // stale event of this very task) falls through to the
                    // slow path, whose pop order handles it.
                    Some((t, task, _)) => (wake, tid) < (t, task),
                    None => true,
                };
                if wins {
                    let seq = st.seq;
                    st.seq += 1;
                    st.now = wake;
                    st.record(wake, seq, tid);
                    return;
                }
            }
        }
        self.yield_and_wait(tid, TaskState::Runnable, Some(wake));
    }

    /// Yield point: transition `tid` out of Running, switch to the
    /// scheduler loop, and return when it dispatches `tid` again. Unwinds
    /// with [`SimAbort`] if the simulation is aborting by then.
    ///
    /// # Panics
    /// Panics if the task is already unwinding: a destructor that yields
    /// would run the next task under this task's panic (the panic count is
    /// per OS thread), so that is a double panic, which aborts.
    fn yield_and_wait(&self, tid: usize, new_state: TaskState, wake_at: Option<SimTime>) {
        assert!(
            !std::thread::panicking(),
            "simulated thread yielded while unwinding a panic"
        );
        {
            let mut st = self.state.borrow_mut();
            debug_assert_eq!(st.slots[tid].state, TaskState::Running);
            st.slots[tid].state = new_state;
            if let Some(t) = wake_at {
                Self::push_event(&mut st, t, tid);
            }
        }
        self.board.suspend();
        if self.aborting.get() {
            panic::resume_unwind(Box::new(SimAbort));
        }
    }
}

/// A handle to the kernel held by each simulated thread. All virtual-time
/// operations go through this context.
///
/// # Borrowing discipline
///
/// Tasks share state through `RefCell`/`Cell` (never through a lock: only
/// one task runs at once, so a borrow is never contended), but a `RefCell`
/// borrow must **never** be held across a yield point ([`SimCtx::advance`],
/// [`SimCtx::park`], or anything that calls them, such as a meter flush or
/// a barrier). The kernel would dispatch another task, and when that task
/// borrows the same cell it panics with `already borrowed`: the run fails
/// with a message naming the second task, not the one that held the
/// borrow. (With a lock the same mistake was a silent deadlock of the one
/// OS thread, which waited on a futex its own suspended task held.) Scope
/// borrows tightly.
///
/// A `SimCtx` identifies *this* thread to the scheduler; it is deliberately
/// not `Clone` — pass it by reference into helpers, and use
/// [`SimCtx::spawn`] to create new simulated threads (each gets its own
/// context).
pub struct SimCtx {
    kernel: Arc<Kernel>,
    tid: usize,
    /// Virtual nanoseconds accrued by [`SimCtx::advance_batched`] and not
    /// yet committed to the scheduler. Observable only through this
    /// context: [`SimCtx::now`] adds it, and every kernel-visible action
    /// settles or carries it, so no other task can ever see a clock that
    /// lags the accrual.
    pending: Cell<u64>,
    /// Debug-build epoch check: `(scheduler seq at accrual start, events
    /// this task itself pushed since)`. While `pending` is nonzero the
    /// event queue must be frozen apart from our own pushes — the
    /// invariant that makes batching sound — and `settle_point` asserts it.
    #[cfg(debug_assertions)]
    accrual_epoch: Cell<(u64, u64)>,
}

impl SimCtx {
    fn new(kernel: Arc<Kernel>, tid: usize) -> SimCtx {
        SimCtx {
            kernel,
            tid,
            pending: Cell::new(0),
            #[cfg(debug_assertions)]
            accrual_epoch: Cell::new((0, 0)),
        }
    }

    /// The current virtual time (committed clock plus this task's
    /// uncommitted batched accrual).
    pub fn now(&self) -> SimTime {
        let committed = self.kernel.state.borrow_mut().now;
        committed + SimDuration::from_nanos(self.pending.get())
    }

    /// This thread's id, usable as an unpark target from other threads.
    pub fn id(&self) -> TaskId {
        TaskId(self.tid)
    }

    /// Charge `d` of virtual time to this thread: the thread resumes once
    /// the virtual clock reaches `now + d`, after all earlier events. Any
    /// batched accrual is folded into the same single advance.
    pub fn advance(&self, d: SimDuration) {
        let total = d + SimDuration::from_nanos(self.pending.take());
        self.kernel.advance(self.tid, total);
    }

    /// Accrue `d` of virtual time *without* a scheduler dispatch: the time
    /// is added to this task's pending batch and becomes part of the next
    /// kernel-visible action ([`SimCtx::advance`], [`SimCtx::settle_point`],
    /// [`SimCtx::park`], or task exit). Pure per-task cell arithmetic — no
    /// kernel borrow, no queue operation, no context switch.
    ///
    /// The batch is this task's *lookahead*: because exactly one simulated
    /// thread runs at a time, no other task can be dispatched (or push an
    /// event) while the batch accrues, so deferring the commit cannot
    /// change which events exist when the commit finally happens — the
    /// committed `(time, seq)` of the eventual advance is exactly what an
    /// unbatched advance of the same total would have produced.
    #[inline]
    pub fn advance_batched(&self, d: SimDuration) {
        #[cfg(debug_assertions)]
        if self.pending.get() == 0 && d.as_nanos() > 0 {
            let seq = self.kernel.state.borrow_mut().seq;
            self.accrual_epoch.set((seq, 0));
        }
        self.pending.set(self.pending.get() + d.as_nanos());
    }

    /// Commit any batched accrual to the scheduler as one advance. No-op
    /// when nothing is pending. This is the settle hook interaction sites
    /// call (directly or via `advance`/`park`) before an action whose
    /// virtual-time position other tasks can observe.
    pub fn settle_point(&self) {
        let p = self.pending.take();
        if p > 0 {
            #[cfg(debug_assertions)]
            {
                let (start_seq, self_pushes) = self.accrual_epoch.get();
                let seq = self.kernel.state.borrow_mut().seq;
                debug_assert_eq!(
                    seq,
                    start_seq + self_pushes,
                    "event queue changed under a batched accrual: another task ran while \
                     this one held the run token"
                );
            }
            self.kernel.advance(self.tid, SimDuration::from_nanos(p));
        }
    }

    /// Debug-epoch bookkeeping: this task pushed an event while a batch
    /// was accruing (its own unpark/spawn — the only legal queue mutations
    /// during accrual).
    #[cfg(debug_assertions)]
    fn note_self_push(&self) {
        if self.pending.get() > 0 {
            let (s, p) = self.accrual_epoch.get();
            self.accrual_epoch.set((s, p + 1));
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn note_self_push(&self) {}

    /// Yield without consuming virtual time, letting other threads scheduled
    /// at the current instant run first (in deterministic task order).
    pub fn yield_now(&self) {
        self.advance(SimDuration::ZERO);
    }

    /// Sleep until the virtual clock reaches `t` (no-op if already past).
    pub fn sleep_until(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.advance(t - now);
        } else {
            self.yield_now();
        }
    }

    /// Block until another thread calls [`SimCtx::unpark`] on this thread's
    /// [`TaskId`]. If an unpark was already delivered (a *permit*), returns
    /// immediately. Virtual time may advance arbitrarily while parked.
    ///
    /// Parking settles any batched accrual first: the park's virtual-time
    /// position is observable (it decides which unpark wakes us and at what
    /// clock we resume), so the task's clock must be fully committed.
    pub fn park(&self) {
        self.settle_point();
        {
            let mut st = self.kernel.state.borrow_mut();
            if st.slots[self.tid].permit {
                st.slots[self.tid].permit = false;
                return;
            }
        }
        self.kernel
            .yield_and_wait(self.tid, TaskState::Blocked, None);
    }

    /// Make `target` runnable at the caller's current virtual time (its
    /// committed clock plus any batched accrual). If `target` is not
    /// parked, a permit is stored and its next [`SimCtx::park`] returns
    /// immediately.
    ///
    /// This deliberately does *not* settle the caller: unpark is routinely
    /// called while a channel or barrier holds a borrow of its state, and
    /// settling could dispatch another task that then borrows that state
    /// again. Instead the wake event is
    /// pushed at the caller's effective time — a future event from the
    /// scheduler's point of view — which carries the identical timestamp a
    /// pre-settled caller would have produced.
    pub fn unpark(&self, target: TaskId) {
        let mut st = self.kernel.state.borrow_mut();
        let slot = &mut st.slots[target.0];
        match slot.state {
            TaskState::Blocked => {
                slot.state = TaskState::Runnable;
                let at = st.now + SimDuration::from_nanos(self.pending.get());
                Kernel::push_event(&mut st, at, target.0);
                drop(st);
                self.note_self_push();
            }
            TaskState::Finished => {}
            _ => slot.permit = true,
        }
    }

    /// Spawn a new simulated thread. It becomes runnable at the caller's
    /// current virtual time (committed clock plus batched accrual) and
    /// starts executing once dispatched.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnOnce(&SimCtx) + 'static,
    {
        let id = spawn_task(
            &self.kernel,
            name.into(),
            f,
            SimDuration::from_nanos(self.pending.get()),
        );
        self.note_self_push();
        id
    }
}

fn spawn_task<F>(kernel: &Kernel, name: String, f: F, offset: SimDuration) -> TaskId
where
    F: FnOnce(&SimCtx) + 'static,
{
    let mut st = kernel.state.borrow_mut();
    let tid = st.slots.len();
    st.slots.push(Slot {
        name,
        body: Some(Box::new(f)),
        state: TaskState::Runnable,
        permit: false,
    });
    st.live += 1;
    let at = st.now + offset;
    Kernel::push_event(&mut st, at, tid);
    TaskId(tid)
}

/// The bottom frame of a task's stack, entered at its first dispatch:
/// run the body (unless the simulation failed before it started), commit
/// its batched accrual, and record how it ended. No panic gets past this
/// frame: a task's own panic becomes the simulation's failure, and the
/// induced [`SimAbort`] unwind ends here.
fn run_task(kernel: Arc<Kernel>, tid: usize, body: Body) {
    let ctx = SimCtx::new(Arc::clone(&kernel), tid);
    let start = !kernel.aborting.get();
    // The body moves into the guarded closure, so even dropping it unrun
    // happens under `catch_unwind`.
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        if start {
            body(&ctx);
            // Commit any batched accrual left at exit so the final virtual
            // time matches an unbatched run of the same work.
            ctx.settle_point();
        }
    }));
    let failure = result.err().and_then(|payload| {
        if payload.downcast_ref::<SimAbort>().is_some() {
            return None; // induced unwind, original failure already recorded
        }
        Some(
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        )
    });
    let mut st = kernel.state.borrow_mut();
    st.slots[tid].state = TaskState::Finished;
    st.live -= 1;
    if let Some(msg) = failure {
        if st.failure.is_none() {
            let name = st.slots[tid].name.clone();
            st.failure = Some(format!("simulated thread '{name}' panicked: {msg}"));
        }
        kernel.abort_all(&mut st);
    }
}

/// A complete simulation run: spawn root threads, then [`Simulation::run`]
/// to completion of all simulated threads.
///
/// ```
/// use rsj_sim::{Simulation, SimDuration};
///
/// let sim = Simulation::new();
/// sim.spawn("worker", |ctx| {
///     ctx.advance(SimDuration::from_millis(5));
///     assert_eq!(ctx.now().as_nanos(), 5_000_000);
/// });
/// let end = sim.run();
/// assert_eq!(end.as_nanos(), 5_000_000);
/// ```
///
/// A simulation stays on the OS thread that built it: it is not `Send`, so
/// it cannot be handed to another thread to run.
///
/// ```compile_fail,E0277
/// use rsj_sim::Simulation;
///
/// let sim = Simulation::new();
/// std::thread::spawn(move || sim.run()); // error: `Simulation` is not `Send`
/// ```
pub struct Simulation {
    kernel: Arc<Kernel>,
}

impl Simulation {
    /// Create an empty simulation with the clock at zero.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Simulation {
        Simulation {
            kernel: Kernel::new(false),
        }
    }

    /// Create a simulation that schedules with the heap-only *reference*
    /// kernel: every `advance()` pushes an event and takes the full
    /// dispatch path, exactly like the original implementation. Used by the
    /// trace-equivalence tests as the oracle for the fast-path scheduler;
    /// behaviourally identical, just slower.
    #[doc(hidden)]
    pub fn new_reference() -> Simulation {
        Simulation {
            kernel: Kernel::new(true),
        }
    }

    /// Record every dispatch decision (including inline
    /// self-continuations) from this point on; retrieve the trace from
    /// [`Simulation::run_traced`].
    pub fn record_trace(&self) {
        let mut st = self.kernel.state.borrow_mut();
        if st.trace.is_none() {
            st.trace = Some(Vec::new());
        }
    }

    /// Spawn a root simulated thread (runnable at t = 0).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnOnce(&SimCtx) + 'static,
    {
        spawn_task(&self.kernel, name.into(), f, SimDuration::ZERO)
    }

    /// Run the simulation until every simulated thread has finished.
    /// Returns the final virtual time.
    ///
    /// # Panics
    /// Propagates the first panic raised inside any simulated thread, and
    /// panics on deadlock (live threads with no pending events).
    pub fn run(self) -> SimTime {
        self.run_inner().0
    }

    /// Like [`Simulation::run`], but also returns the dispatch trace
    /// recorded since [`Simulation::record_trace`] (empty if recording was
    /// never enabled).
    pub fn run_traced(self) -> (SimTime, Vec<Dispatch>) {
        let (end, trace) = self.run_inner();
        (end, trace.unwrap_or_default())
    }

    /// The scheduler loop: pop the minimum event, switch into that task,
    /// and loop when it switches back. A task's first dispatch starts its
    /// body on a stack from the free list; a finished task's stack goes
    /// back on that list. Every stack is unmapped when the loop ends, after
    /// the last task has finished (on failure, after every task unwound).
    fn run_inner(self) -> (SimTime, Option<Vec<Dispatch>>) {
        stack::keep_heap_top();
        let kernel = &*self.kernel;
        let mut suspended: Vec<Option<Fiber>> = Vec::new();
        let mut free: Vec<Stack> = Vec::new();
        loop {
            let (tid, body) = {
                let mut st = kernel.state.borrow_mut();
                let Some(tid) = kernel.dispatch(&mut st) else {
                    break;
                };
                (tid, st.slots[tid].body.take())
            };
            let resumed = match body {
                Some(body) => {
                    let stack = free.pop().unwrap_or_else(Stack::new);
                    let k = Arc::clone(&self.kernel);
                    kernel
                        .board
                        .start(stack, Box::new(move || run_task(k, tid, body)))
                }
                None => {
                    let fiber = suspended[tid]
                        .take()
                        .expect("a dispatched task is new or suspended");
                    kernel.board.resume(fiber)
                }
            };
            match resumed {
                Resumed::Suspended(fiber) => {
                    if suspended.len() <= tid {
                        suspended.resize_with(tid + 1, || None);
                    }
                    suspended[tid] = Some(fiber);
                }
                Resumed::Finished(stack) => free.push(stack),
            }
        }
        let mut st = kernel.state.borrow_mut();
        if let Some(msg) = st.failure.take() {
            drop(st);
            panic!("{msg}");
        }
        (st.now, st.trace.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn clock_advances_per_thread() {
        let sim = Simulation::new();
        sim.spawn("a", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimDuration::from_millis(10));
            assert_eq!(ctx.now().as_nanos(), 10_000_000);
        });
        assert_eq!(sim.run().as_nanos(), 10_000_000);
    }

    #[test]
    fn threads_interleave_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let sim = Simulation::new();
        for (name, delay) in [("late", 20u64), ("early", 5), ("mid", 12)] {
            let order = Rc::clone(&order);
            sim.spawn(name, move |ctx| {
                ctx.advance(SimDuration::from_millis(delay));
                order.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*order.borrow_mut(), vec!["early", "mid", "late"]);
    }

    #[test]
    fn equal_times_dispatch_in_spawn_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let sim = Simulation::new();
        for i in 0..5usize {
            let order = Rc::clone(&order);
            sim.spawn(format!("t{i}"), move |ctx| {
                ctx.advance(SimDuration::from_millis(1));
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow_mut(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn park_unpark_handshake() {
        let sim = Simulation::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let waiter = sim.spawn("waiter", move |ctx| {
            ctx.park();
            hits2.fetch_add(1, Ordering::SeqCst);
            assert_eq!(ctx.now(), SimTime::from_nanos(3_000_000));
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDuration::from_millis(3));
            ctx.unpark(waiter);
        });
        sim.run();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unpark_before_park_leaves_permit() {
        let sim = Simulation::new();
        let target = sim.spawn("sleeper", |ctx| {
            // Sleep past the unpark, then park: the permit must be consumed
            // without blocking (otherwise: deadlock).
            ctx.advance(SimDuration::from_millis(10));
            ctx.park();
        });
        sim.spawn("early-waker", move |ctx| {
            ctx.advance(SimDuration::from_millis(1));
            ctx.unpark(target);
        });
        sim.run();
    }

    #[test]
    fn nested_spawn_runs() {
        let sim = Simulation::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        sim.spawn("parent", move |ctx| {
            let hits3 = Arc::clone(&hits2);
            ctx.spawn("child", move |ctx| {
                ctx.advance(SimDuration::from_micros(7));
                hits3.fetch_add(1, Ordering::SeqCst);
            });
            ctx.advance(SimDuration::from_millis(1));
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        let end = sim.run();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(end.as_nanos(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let sim = Simulation::new();
        sim.spawn("stuck", |ctx| ctx.park());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_propagates_to_run() {
        let sim = Simulation::new();
        sim.spawn("bomber", |ctx| {
            ctx.advance(SimDuration::from_millis(1));
            panic!("boom");
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_aborts_blocked_peers() {
        let sim = Simulation::new();
        sim.spawn("forever", |ctx| ctx.park());
        sim.spawn("bomber", |ctx| {
            ctx.advance(SimDuration::from_millis(1));
            panic!("boom");
        });
        sim.run();
    }

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let sim = Simulation::new();
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn determinism_across_runs() {
        fn one_run() -> Vec<(u64, usize)> {
            let trace = Rc::new(RefCell::new(Vec::new()));
            let sim = Simulation::new();
            for i in 0..8usize {
                let trace = Rc::clone(&trace);
                sim.spawn(format!("w{i}"), move |ctx| {
                    for step in 0..20u64 {
                        ctx.advance(SimDuration::from_nanos((i as u64 * 37 + step * 13) % 97));
                        trace.borrow_mut().push((ctx.now().as_nanos(), i));
                    }
                });
            }
            sim.run();
            let t = trace.borrow().clone();
            t
        }
        assert_eq!(one_run(), one_run());
    }

    /// Build a workload mixing fast-path advances, ties, parks/unparks and
    /// nested spawns, and return its dispatch trace. With `meet`, the first
    /// task counts itself in and waits until two runs have (so two runs on
    /// two OS threads are inside a task at once); it gives up, failing the
    /// run, if the other never arrives.
    fn traced_run(reference: bool, meet: Option<Arc<AtomicUsize>>) -> (u64, Vec<Dispatch>) {
        let sim = if reference {
            Simulation::new_reference()
        } else {
            Simulation::new()
        };
        sim.record_trace();
        for i in 0..6usize {
            let meet = meet.clone().filter(|_| i == 0);
            sim.spawn(format!("w{i}"), move |ctx| {
                if let Some(arrived) = meet {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let mut spins = 0u64;
                    while arrived.load(Ordering::SeqCst) < 2 {
                        spins += 1;
                        assert!(spins < 10_000_000, "the other run never started a task");
                        std::thread::yield_now();
                    }
                }
                for step in 0..50u64 {
                    // Mix of unique wake times (fast-path eligible), ties
                    // (seq order must decide), and zero-length yields.
                    ctx.advance(SimDuration::from_nanos((i as u64 * 31 + step * 17) % 11));
                }
                if i == 0 {
                    let peer = ctx.spawn("child", |ctx| {
                        ctx.park();
                        ctx.advance(SimDuration::from_nanos(5));
                    });
                    ctx.advance(SimDuration::from_nanos(3));
                    ctx.unpark(peer);
                }
            });
        }
        let (end, trace) = sim.run_traced();
        (end.as_nanos(), trace)
    }

    #[test]
    fn fast_path_trace_matches_reference_kernel() {
        let fast = traced_run(false, None);
        let reference = traced_run(true, None);
        assert_eq!(fast.0, reference.0, "final virtual time diverged");
        assert_eq!(fast.1, reference.1, "dispatch traces diverged");
        // Sanity: the workload actually exercised scheduling decisions.
        assert!(fast.1.len() > 300);
    }

    #[test]
    fn simulations_on_two_os_threads_stay_independent() {
        // The `--jobs 2` shape: each sweep worker runs its own simulations.
        // The first tasks of the two runs meet, so both schedulers are
        // switched out into a task at the same moment.
        let serial = traced_run(false, None);
        let meet = Arc::new(AtomicUsize::new(0));
        let parallel: Vec<(u64, Vec<Dispatch>)> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let meet = Arc::clone(&meet);
                    s.spawn(move || traced_run(false, Some(meet)))
                })
                .collect();
            runs.into_iter()
                .map(|r| r.join().expect("a simulation thread panicked"))
                .collect()
        });
        assert_eq!(parallel, [serial.clone(), serial]);
    }

    #[test]
    fn a_deadlock_unwinds_every_parked_task() {
        let held = Arc::new(());
        let sim = Simulation::new();
        for i in 0..3 {
            let held = Arc::clone(&held);
            sim.spawn(format!("stuck{i}"), move |ctx| {
                let _mine = held;
                ctx.park();
            });
        }
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
        assert!(outcome.is_err(), "the deadlock must fail the run");
        assert_eq!(Arc::strong_count(&held), 1, "a parked task's stack leaked");
    }

    #[test]
    fn a_borrow_held_across_a_yield_fails_the_run_naming_the_next_borrower() {
        let shared = Rc::new(RefCell::new(0u32));
        let sim = Simulation::new();
        let held = Rc::clone(&shared);
        sim.spawn("holder", move |ctx| {
            let reading = held.borrow();
            ctx.advance(SimDuration::from_micros(5));
            assert_eq!(*reading, 0);
        });
        sim.spawn("borrower", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            *shared.borrow_mut() += 1;
        });
        let failure = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .expect_err("the second borrow must fail the run, not hang it");
        let msg = failure
            .downcast_ref::<String>()
            .expect("the run fails with a formatted message");
        assert!(
            msg.starts_with("simulated thread 'borrower' panicked") && msg.contains("borrowed"),
            "{msg}"
        );
    }

    #[test]
    fn dropping_an_unrun_simulation_drops_its_tasks() {
        let held = Arc::new(());
        let sim = Simulation::new();
        for i in 0..3 {
            let held = Arc::clone(&held);
            sim.spawn(format!("never{i}"), move |_| drop(held));
        }
        drop(sim);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "an unrun task's closure leaked"
        );
    }

    #[test]
    fn batched_advance_is_visible_through_now_and_settles() {
        let sim = Simulation::new();
        sim.spawn("batcher", |ctx| {
            ctx.advance_batched(SimDuration::from_nanos(300));
            ctx.advance_batched(SimDuration::from_nanos(200));
            // Accrued time is observable through this context...
            assert_eq!(ctx.now().as_nanos(), 500);
            // ...and a settle commits it in one advance.
            ctx.settle_point();
            assert_eq!(ctx.now().as_nanos(), 500);
            ctx.settle_point(); // idempotent
            assert_eq!(ctx.now().as_nanos(), 500);
        });
        assert_eq!(sim.run().as_nanos(), 500);
    }

    #[test]
    fn batched_chunks_produce_the_merged_advance_trace() {
        // `advance_batched(a); advance_batched(b); advance(c)` must be
        // indistinguishable — same dispatch trace — from `advance(a+b+c)`.
        fn run(batched: bool) -> (u64, Vec<Dispatch>) {
            let sim = Simulation::new();
            sim.record_trace();
            for i in 0..4usize {
                sim.spawn(format!("w{i}"), move |ctx| {
                    for step in 0..30u64 {
                        let base = (i as u64 * 29 + step * 13) % 23;
                        if batched {
                            ctx.advance_batched(SimDuration::from_nanos(base));
                            ctx.advance_batched(SimDuration::from_nanos(base + 1));
                            ctx.advance(SimDuration::from_nanos(2));
                        } else {
                            ctx.advance(SimDuration::from_nanos(2 * base + 3));
                        }
                    }
                });
            }
            let (end, trace) = sim.run_traced();
            (end.as_nanos(), trace)
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn unpark_during_accrual_carries_effective_time() {
        let sim = Simulation::new();
        let waiter = sim.spawn("waiter", |ctx| {
            ctx.park();
            assert_eq!(ctx.now().as_nanos(), 700);
        });
        sim.spawn("batcher", move |ctx| {
            ctx.advance_batched(SimDuration::from_nanos(700));
            // No settle: the wake event must still carry now + pending.
            ctx.unpark(waiter);
            ctx.advance_batched(SimDuration::from_nanos(50));
        });
        assert_eq!(sim.run().as_nanos(), 750);
    }

    #[test]
    fn spawn_during_accrual_starts_child_at_effective_time() {
        let sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            ctx.advance_batched(SimDuration::from_nanos(400));
            ctx.spawn("child", |ctx| {
                assert_eq!(ctx.now().as_nanos(), 400);
            });
        });
        assert_eq!(sim.run().as_nanos(), 400);
    }

    #[test]
    fn exit_with_pending_accrual_settles() {
        let sim = Simulation::new();
        sim.spawn("tail", |ctx| {
            ctx.advance(SimDuration::from_nanos(10));
            ctx.advance_batched(SimDuration::from_nanos(90));
            // Falls off the end with 90 ns unsettled.
        });
        assert_eq!(sim.run().as_nanos(), 100);
    }

    #[test]
    fn park_settles_accrual_before_blocking() {
        let sim = Simulation::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let waiter = sim.spawn("waiter", move |ctx| {
            ctx.advance_batched(SimDuration::from_nanos(120));
            ctx.park();
            // The accrual committed before the block, so the resume clock
            // is the unparker's later time, not a stale one.
            assert_eq!(ctx.now().as_nanos(), 500);
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDuration::from_nanos(500));
            ctx.unpark(waiter);
        });
        sim.run();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
