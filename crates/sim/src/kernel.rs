//! The discrete-event kernel: a cooperative scheduler for simulated threads.
//!
//! Every simulated entity (a worker core, a NIC engine, a coordinator) is a
//! *slot* of the scheduler, and all slots of a simulation run on the one OS
//! thread that calls [`Simulation::run`], so **exactly one of them runs at
//! any moment**. A slot is one of two kinds:
//!
//! * a **task** ([`Simulation::spawn`]) has a stack of its own and runs
//!   until it reaches a *yield point* — [`SimCtx::advance`] (charge virtual
//!   time), [`SimCtx::park`] (block until unparked), or task exit — at
//!   which point it switches back to the scheduler loop. Worker code stays
//!   ordinary blocking Rust that yields from deep inside its loops;
//! * a **step slot** ([`Simulation::spawn_steps`]) is stackless: a closure
//!   the scheduler loop calls on its own stack, which runs to its next
//!   yield point and *returns* it as a [`Step`] — `Advance`, `Park` or
//!   `Exit`. The kernel handles each return exactly as the matching yield
//!   point of a task, so a step slot is scheduled and traced like a task
//!   with the same yield points, without the two stack switches per
//!   dispatch. It suits a state machine whose state fits in a struct: the
//!   NIC engines and the fabric's timers.
//!
//! The scheduler loop dispatches the runnable slot with the
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
//! fast the host walks that order* is a pure implementation concern. Five
//! techniques keep the walk cheap (DESIGN.md §7):
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
//! 3. **Stack switch, or none.** A task is a stackful coroutine
//!    (`stack.rs`): a yield point saves the callee-saved registers on the
//!    task's stack and loads the scheduler loop's stack pointer, and a
//!    dispatch does the reverse — a function call that returns on another
//!    stack, with no system call, futex or second OS thread. A step slot's
//!    dispatch switches nothing: it is a plain call of its closure
//!    (DESIGN.md §7 has both costs). [`SimCtx::run_counts`] reports
//!    switches and step runs per slot.
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
//! 5. **A park is decided at its floor.** A task that parks with batched
//!    time `p` would settle first — be switched out until `now + p`, its
//!    *floor* — and then be switched back in only to find no permit and
//!    block. Instead [`SimCtx::park`] queues the very event the settle
//!    would (same `(time, task, seq)`, the slot Runnable as during a
//!    settle) and leaves the rest to the scheduler: when the event pops,
//!    it records the same [`Dispatch`], runs the task's [`FloorAction`]
//!    if it parked with one ([`SimCtx::park_with`]), and switches the task
//!    in only if the action asks, a permit arrived meanwhile, or the run
//!    is aborting. Otherwise the task blocks where it is, and the two
//!    switches of a task that would block at once are never made.
//!
//! A heap-only reference scheduler ([`Simulation::new_reference`], always
//! compiled so tests exercise the very kernel release binaries run)
//! retains the original push-everything/pop-min structure; the
//! trace-equivalence tests assert both produce the identical
//! `(time, seq, task)` dispatch trace under the shared comparator.

use std::cell::{Cell, RefCell};
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
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

/// How a step slot continues after one run of its closure: the stackless
/// form of a task's yield points (see [`Simulation::spawn_steps`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Run again once `d` of virtual time has passed — a task's
    /// [`SimCtx::advance`], fast path included.
    Advance(SimDuration),
    /// Run again once unparked — a task's [`SimCtx::park`]; a stored
    /// permit is consumed and the closure runs again at once.
    Park,
    /// The slot is finished — a task's return.
    Exit,
}

impl Step {
    /// The step form of [`SimCtx::sleep_until`]: run again at `t`, or at
    /// the current instant after the other slots due now if `t` has
    /// passed.
    pub fn sleep_until(ctx: &SimCtx, t: SimTime) -> Step {
        let now = ctx.now();
        Step::Advance(if t > now { t - now } else { SimDuration::ZERO })
    }
}

/// A step slot's closure: called on the scheduler loop's own stack.
type StepFn = Box<dyn FnMut(&SimCtx) -> Step>;

/// What a slot runs, held by the slot until its first dispatch.
enum Body {
    /// A task: a closure started on a stack of its own.
    Task(Box<dyn FnOnce(&SimCtx)>),
    /// A step slot: a closure the scheduler loop calls once per run.
    Steps(StepFn),
}

struct Slot {
    name: String,
    /// The slot's closure until its first dispatch moves it onto a stack
    /// (or, for steps, into the scheduler loop); a simulation dropped
    /// without `run` drops it here.
    body: Option<Body>,
    /// A step slot rather than a task.
    steps: bool,
    state: TaskState,
    /// A pending unpark delivered while the task was not blocked; consumed
    /// by the next `park`.
    permit: bool,
    /// Dispatches so far: for a task, each is one switch onto its stack.
    dispatches: u64,
    /// The task parked with batched time and its floor event is queued:
    /// the scheduler decides the park when that event pops
    /// ([`Kernel::decide_floor`]).
    at_floor: bool,
    /// The action to run at that floor, if the park was made with one.
    action: Option<FloorFn>,
    /// Parks decided at the floor so far.
    floor_parks: u64,
    /// Calls of a step slot's closure so far (dispatches plus inline
    /// continuations).
    step_runs: u64,
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

    /// The fast-path predicate, the one place it is decided: a wake of
    /// `tid` at `wake` precedes everything queued — `(wake, tid)` strictly
    /// below the minimum `(time, task)` — so pushing it and dispatching
    /// would hand control straight back to `tid`. Never in reference mode
    /// or once the run failed. A clock tie is broken by task id; a tie on
    /// both (a stale event of this very task) falls through to the slow
    /// path, whose pop order handles it.
    #[inline]
    fn runs_next(&self, wake: SimTime, tid: usize) -> bool {
        !self.reference
            && self.failure.is_none()
            && match self.peek_key() {
                Some((t, task, _)) => (wake, tid) < (t, task),
                None => true,
            }
    }

    /// Continue `tid` inline at `wake` (after [`State::runs_next`]):
    /// allocate the seq the pushed event would have had, bump the clock,
    /// and record the dispatch the reference scheduler would make.
    #[inline]
    fn continue_inline(&mut self, wake: SimTime, tid: usize) {
        let seq = self.seq;
        self.seq += 1;
        self.now = wake;
        self.record(wake, seq, tid);
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

    /// Picks the next runnable slot, marks it Running and takes its body if
    /// it has not started. A park waiting for its floor is decided on the
    /// way ([`Kernel::decide_floor`]). Called by the scheduler loop while
    /// no task runs; `None` once every task has finished.
    #[must_use]
    fn dispatch(&self) -> Option<(usize, Option<Body>)> {
        loop {
            let mut st = self.state.borrow_mut();
            let Some(ev) = st.pop_min() else {
                if st.live == 0 {
                    return None;
                }
                if st.failure.is_none() {
                    // Live tasks but nothing runnable: deadlock.
                    let blocked: Vec<&str> = st
                        .slots
                        .iter()
                        .filter(|s| s.state == TaskState::Blocked)
                        .map(|s| s.name.as_str())
                        .collect();
                    st.failure = Some(format!(
                        "simulation deadlock at {}: {} task(s) blocked with no pending \
                         events: {blocked:?}",
                        st.now, st.live
                    ));
                }
                assert!(
                    self.abort_all(&mut st) > 0,
                    "live tasks with neither an event nor a block"
                );
                continue;
            };
            // A stale event (task was already woken by a newer one, or
            // finished): skip it.
            if st.slots[ev.task].state != TaskState::Runnable {
                continue;
            }
            debug_assert!(ev.time >= st.now, "time went backwards");
            st.now = ev.time;
            st.record(ev.time, ev.seq, ev.task);
            let slot = &mut st.slots[ev.task];
            if slot.at_floor {
                slot.at_floor = false;
                let action = slot.action.take();
                drop(st);
                if self.decide_floor(ev.task, action) {
                    return Some((ev.task, None));
                }
                continue;
            }
            slot.state = TaskState::Running;
            slot.dispatches += 1;
            return Some((ev.task, slot.body.take()));
        }
    }

    /// Decide the park of task `tid`, whose floor event just popped with
    /// the clock at the floor: run its floor action, if any, on this
    /// stack, then switch the task in (mark it Running and return `true`)
    /// only if the action asks for it, a permit arrived while it waited
    /// (consumed here, as the park would), or the run is aborting (the
    /// task then unwinds, and the action does not run). Otherwise the task
    /// blocks where it is, with no switch, until an unpark.
    fn decide_floor(&self, tid: usize, action: Option<FloorFn>) -> bool {
        let asked = !self.aborting.get()
            && action
                .as_ref()
                .is_some_and(|a| self.run_floor_action(tid, a));
        let mut st = self.state.borrow_mut();
        let slot = &mut st.slots[tid];
        slot.floor_parks += 1;
        if asked || std::mem::take(&mut slot.permit) || self.aborting.get() {
            slot.state = TaskState::Running;
            slot.dispatches += 1;
            if let Some(a) = action {
                a.woke.set(true);
            }
            true
        } else {
            slot.state = TaskState::Blocked;
            false
        }
    }

    /// Run task `tid`'s floor action on this stack. A panic in it fails the
    /// run as the task's own panic would, and the task is switched in to
    /// unwind. Returns whether the action asks for the task.
    fn run_floor_action(&self, tid: usize, action: &FloorInner<FloorFnBody>) -> bool {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let wake = (action.f)(&action.ctx);
            assert!(
                action.ctx.pending.take() == 0,
                "a floor action accrued batched virtual time"
            );
            wake
        }));
        ran.unwrap_or_else(|payload| {
            if let Some(msg) = panic_message(payload) {
                self.fail(&mut self.state.borrow_mut(), tid, msg);
            }
            true
        })
    }

    /// Start aborting after a failure: make every blocked slot runnable at
    /// the current instant, so each task is resumed, unwinds with
    /// [`SimAbort`] and drops what its stack owns, and each step slot is
    /// dropped without running. Returns how many were woken.
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
            if st.runs_next(wake, tid) {
                st.continue_inline(wake, tid);
                return;
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

    /// One dispatch of step slot `tid`: call its closure on this stack
    /// until it parks, advances past the next queued event, or exits —
    /// each return handled exactly as the matching yield point of a task.
    /// Returns whether the slot finished. While the simulation aborts, a
    /// dispatched step slot is finished without being called.
    fn run_steps(&self, tid: usize, s: &mut Stepper) -> bool {
        if self.aborting.get() {
            self.finish(tid, None);
            return true;
        }
        loop {
            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                let next = (s.f)(&s.ctx);
                assert!(
                    s.ctx.pending.get() == 0,
                    "a step accrued batched virtual time; return Step::Advance instead"
                );
                next
            }));
            let next = match ran {
                Ok(next) => next,
                Err(payload) => {
                    self.finish(tid, panic_message(payload));
                    return true;
                }
            };
            let mut st = self.state.borrow_mut();
            st.slots[tid].step_runs += 1;
            match next {
                Step::Advance(d) => {
                    let wake = st.now + d;
                    if st.runs_next(wake, tid) {
                        st.continue_inline(wake, tid);
                        continue;
                    }
                    st.slots[tid].state = TaskState::Runnable;
                    Self::push_event(&mut st, wake, tid);
                    return false;
                }
                Step::Park => {
                    let slot = &mut st.slots[tid];
                    if !std::mem::take(&mut slot.permit) {
                        slot.state = TaskState::Blocked;
                        return false;
                    }
                }
                Step::Exit => {
                    drop(st);
                    self.finish(tid, None);
                    return true;
                }
            }
        }
    }

    /// Record that slot `tid` ended — returned, exited, or (with `failure`)
    /// panicked, which fails the run and starts the abort.
    fn finish(&self, tid: usize, failure: Option<String>) {
        let mut st = self.state.borrow_mut();
        st.slots[tid].state = TaskState::Finished;
        st.live -= 1;
        if let Some(msg) = failure {
            self.fail(&mut st, tid, msg);
        }
    }

    /// Fail the run with slot `tid`'s panic `msg`, unless it already
    /// failed, and start the abort.
    fn fail(&self, st: &mut State, tid: usize, msg: String) {
        if st.failure.is_none() {
            let name = &st.slots[tid].name;
            st.failure = Some(format!("simulated thread '{name}' panicked: {msg}"));
        }
        self.abort_all(st);
    }
}

/// The failure of a step that called a yield point. Out of line, so the
/// check costs [`SimCtx::advance`] — inlined into every metered loop — one
/// branch and no formatting code.
#[cold]
#[inline(never)]
fn step_yielded(what: &str) -> ! {
    panic!("a step called {what}: a step yields by returning Step::Advance or Step::Park")
}

/// The message of a caught panic, or `None` for the induced [`SimAbort`]
/// unwind (the original failure is already recorded).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> Option<String> {
    if payload.downcast_ref::<SimAbort>().is_some() {
        return None;
    }
    Some(
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    )
}

/// A dispatched step slot, owned by the scheduler loop: its closure and
/// the context it is called with.
struct Stepper {
    ctx: SimCtx,
    f: StepFn,
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
    /// The context of a step slot, whose closure must not yield.
    step: bool,
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
    fn new(kernel: Arc<Kernel>, tid: usize, step: bool) -> SimCtx {
        SimCtx {
            kernel,
            tid,
            step,
            pending: Cell::new(0),
            #[cfg(debug_assertions)]
            accrual_epoch: Cell::new((0, 0)),
        }
    }

    /// The current virtual time (committed clock plus this task's
    /// uncommitted batched accrual).
    pub fn now(&self) -> SimTime {
        let committed = self.kernel.state.borrow().now;
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
        self.refuse_in_step("advance");
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
            self.check_accrual_epoch(self.kernel.state.borrow().seq);
            self.kernel.advance(self.tid, SimDuration::from_nanos(p));
        }
    }

    /// Debug-build check that the event queue stayed frozen under this
    /// task's batch apart from its own pushes — the invariant that makes
    /// batching sound. `seq` is the scheduler's next sequence number.
    #[cfg(debug_assertions)]
    fn check_accrual_epoch(&self, seq: u64) {
        let (start_seq, self_pushes) = self.accrual_epoch.get();
        debug_assert_eq!(
            seq,
            start_seq + self_pushes,
            "event queue changed under a batched accrual: another task ran while \
             this one held the run token"
        );
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

    /// A step slot runs on the scheduler loop's stack and has nothing to
    /// switch away from: it yields by returning a [`Step`], and a yield
    /// point called from its closure fails the run, naming the slot.
    #[inline]
    fn refuse_in_step(&self, what: &str) {
        if self.step {
            step_yielded(what);
        }
    }

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
    /// The park takes effect at the task's *floor*: its clock with any
    /// batched accrual committed, since which unpark wakes it and at what
    /// clock it resumes are observable. With a permit already stored, or
    /// nothing batched, it settles and then checks the permit. With
    /// batched time and no permit, it queues the wake a settle would
    /// queue and the scheduler decides the park when that event pops:
    /// with a permit stored by then the task resumes at its floor,
    /// otherwise it blocks there without being switched in first.
    pub fn park(&self) {
        self.refuse_in_step("park");
        if self.park_at_floor(None) {
            return;
        }
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

    /// [`SimCtx::park`] with `action` run at the floor: the scheduler runs
    /// it on its own stack as this task (see [`SimCtx::floor_action`])
    /// once the batched time has passed, in the task's place in the
    /// `(time, task, seq)` order, and the task stays blocked unless the
    /// action returns `true` or a permit is stored. This is exactly
    /// `settle_point(); if !action() { park() }` run by the task itself,
    /// with the task switched in only when it has something to do.
    ///
    /// With nothing batched or a permit already stored, nothing happens
    /// and [`Parked::Declined`] asks the caller to do those steps itself.
    ///
    /// # Panics
    /// Panics if `action` was made by another task.
    pub fn park_with(&self, action: &FloorAction) -> Parked {
        self.refuse_in_step("park");
        let a = &action.0;
        assert_eq!(
            a.ctx.tid, self.tid,
            "a floor action runs for the task that made it"
        );
        if !self.park_at_floor(Some(a)) {
            Parked::Declined
        } else if a.woke.take() {
            Parked::AtFloor
        } else {
            Parked::Unparked
        }
    }

    /// A park with batched time: queue the wake the settle would queue, mark
    /// the slot for a decision at that floor ([`Kernel::decide_floor`]) and
    /// switch out. Returns `false` at once, doing nothing, when nothing is
    /// batched or a permit is stored.
    fn park_at_floor(&self, action: Option<&FloorFn>) -> bool {
        let p = self.pending.get();
        if p == 0 {
            return false;
        }
        let floor = {
            let mut st = self.kernel.state.borrow_mut();
            let slot = &mut st.slots[self.tid];
            if slot.permit {
                return false;
            }
            slot.at_floor = true;
            slot.action = action.cloned();
            #[cfg(debug_assertions)]
            self.check_accrual_epoch(st.seq);
            st.now + SimDuration::from_nanos(self.pending.take())
        };
        self.kernel
            .yield_and_wait(self.tid, TaskState::Runnable, Some(floor));
        true
    }

    /// A [`FloorAction`] for this task: `f` is called with a context of
    /// this task that may not yield (the step-slot contract: `advance`,
    /// `park` or batched time fail the run naming the task) and returns
    /// whether the task is to be switched in. Made once and reused for
    /// every park of a loop.
    pub fn floor_action<F>(&self, f: F) -> FloorAction
    where
        F: Fn(&SimCtx) -> bool + 'static,
    {
        FloorAction(Rc::new(FloorInner {
            ctx: SimCtx::new(Arc::clone(&self.kernel), self.tid, true),
            woke: Cell::new(false),
            f,
        }))
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
        self.spawn_body(name.into(), Body::Task(Box::new(f)))
    }

    /// Spawn a step slot (see [`Simulation::spawn_steps`]), runnable at
    /// the caller's current virtual time like [`SimCtx::spawn`].
    pub fn spawn_steps<F>(&self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnMut(&SimCtx) -> Step + 'static,
    {
        self.spawn_body(name.into(), Body::Steps(Box::new(f)))
    }

    fn spawn_body(&self, name: String, body: Body) -> TaskId {
        let offset = SimDuration::from_nanos(self.pending.get());
        let id = spawn_slot(&self.kernel, name, body, offset);
        self.note_self_push();
        id
    }

    /// What this run has dispatched so far: stack switches into tasks and
    /// runs of step slots, in total and per slot.
    pub fn run_counts(&self) -> RunCounts {
        let st = self.kernel.state.borrow();
        let slots: Vec<SlotCounts> = st
            .slots
            .iter()
            .map(|s| SlotCounts {
                name: s.name.clone(),
                switches: if s.steps { 0 } else { s.dispatches },
                step_runs: s.step_runs,
                floor_parks: s.floor_parks,
            })
            .collect();
        RunCounts {
            switches: slots.iter().map(|s| s.switches).sum(),
            step_runs: slots.iter().map(|s| s.step_runs).sum(),
            floor_parks: slots.iter().map(|s| s.floor_parks).sum(),
            slots,
        }
    }
}

/// The body of a [`FloorAction`].
type FloorFnBody = dyn Fn(&SimCtx) -> bool;

/// A [`FloorAction`] as a slot holds it while the park waits.
type FloorFn = Rc<FloorInner<FloorFnBody>>;

/// What the scheduler runs for a task at the floor of a park
/// ([`SimCtx::park_with`]): made once per loop with
/// [`SimCtx::floor_action`], so a park allocates nothing.
pub struct FloorAction(FloorFn);

struct FloorInner<F: ?Sized> {
    /// The task's context as the action sees it: same task id, nothing
    /// batched, no yield.
    ctx: SimCtx,
    /// Set when the scheduler switched the task in at the floor; the
    /// task takes it on resuming.
    woke: Cell<bool>,
    f: F,
}

/// How a [`SimCtx::park_with`] ended.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Parked {
    /// The task did not park and the action did not run: nothing was
    /// batched, or a permit was stored.
    Declined,
    /// The task was switched in at its floor, after the action: the
    /// action asked for it, or it did not and a permit was stored (the
    /// park consumed it).
    AtFloor,
    /// The task blocked at its floor and a later unpark woke it.
    Unparked,
}

/// Dispatch counters of one [`Simulation::run`] so far, from
/// [`SimCtx::run_counts`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunCounts {
    /// Switches onto a task's stack: one per dispatch of a task (an inline
    /// fast-path continuation switches nothing).
    pub switches: u64,
    /// Calls of step closures: one per dispatch of a step slot plus one
    /// per inline continuation.
    pub step_runs: u64,
    /// Parks the scheduler decided at a task's floor.
    pub floor_parks: u64,
    /// Per slot, in [`TaskId`] order.
    pub slots: Vec<SlotCounts>,
}

/// One slot's share of [`RunCounts`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotCounts {
    /// The name the slot was spawned with.
    pub name: String,
    /// Switches onto its stack (always 0 for a step slot).
    pub switches: u64,
    /// Calls of its step closure (always 0 for a task).
    pub step_runs: u64,
    /// Its parks the scheduler decided at the floor, blocking the task
    /// there or switching it in (always 0 for a step slot).
    pub floor_parks: u64,
}

fn spawn_slot(kernel: &Kernel, name: String, body: Body, offset: SimDuration) -> TaskId {
    let mut st = kernel.state.borrow_mut();
    let tid = st.slots.len();
    st.slots.push(Slot {
        name,
        steps: matches!(body, Body::Steps(_)),
        body: Some(body),
        state: TaskState::Runnable,
        permit: false,
        dispatches: 0,
        at_floor: false,
        action: None,
        floor_parks: 0,
        step_runs: 0,
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
fn run_task(kernel: Arc<Kernel>, tid: usize, body: Box<dyn FnOnce(&SimCtx)>) {
    let ctx = SimCtx::new(Arc::clone(&kernel), tid, false);
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
    kernel.finish(tid, result.err().and_then(panic_message));
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
    #[expect(
        clippy::new_without_default,
        reason = "a caller picks its kernel by name: `new` or `new_reference`"
    )]
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
        let body = Body::Task(Box::new(f));
        spawn_slot(&self.kernel, name.into(), body, SimDuration::ZERO)
    }

    /// Spawn a root *step slot* (runnable at t = 0): a stackless task whose
    /// closure the scheduler loop calls on its own stack each time the
    /// slot is dispatched. The closure runs until its next yield point and
    /// returns it as a [`Step`] instead of calling [`SimCtx::advance`] or
    /// [`SimCtx::park`] (which fail the run from a step). The slot takes
    /// its [`TaskId`] in spawn order and is scheduled, traced and
    /// unparked exactly like a task with the same yield points, but a run
    /// switches no stack. A panic in the closure fails the run naming the
    /// slot; once the run fails, the slot is dropped without being called.
    ///
    /// ```
    /// use rsj_sim::{Simulation, SimDuration, Step};
    ///
    /// let sim = Simulation::new();
    /// let mut ticks = 0;
    /// sim.spawn_steps("ticker", move |_ctx| {
    ///     ticks += 1;
    ///     if ticks > 3 {
    ///         return Step::Exit;
    ///     }
    ///     Step::Advance(SimDuration::from_micros(10))
    /// });
    /// assert_eq!(sim.run().as_nanos(), 30_000);
    /// ```
    pub fn spawn_steps<F>(&self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnMut(&SimCtx) -> Step + 'static,
    {
        let body = Body::Steps(Box::new(f));
        spawn_slot(&self.kernel, name.into(), body, SimDuration::ZERO)
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
        let mut steppers: Vec<Option<Stepper>> = Vec::new();
        let mut free: Vec<Stack> = Vec::new();
        loop {
            let Some((tid, body)) = kernel.dispatch() else {
                break;
            };
            let resumed = match body {
                Some(Body::Task(body)) => {
                    let stack = free.pop().unwrap_or_else(Stack::new);
                    let k = Arc::clone(&self.kernel);
                    kernel
                        .board
                        .start(stack, Box::new(move || run_task(k, tid, body)))
                }
                Some(Body::Steps(f)) => {
                    if steppers.len() <= tid {
                        steppers.resize_with(tid + 1, || None);
                    }
                    let ctx = SimCtx::new(Arc::clone(&self.kernel), tid, true);
                    steppers[tid] = Some(Stepper { ctx, f });
                    self.step(&mut steppers, tid);
                    continue;
                }
                None if steppers.get(tid).is_some_and(Option::is_some) => {
                    self.step(&mut steppers, tid);
                    continue;
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

    /// Run dispatched step slot `tid`; a finished slot's closure is
    /// dropped here, with no borrow of the kernel state held.
    fn step(&self, steppers: &mut [Option<Stepper>], tid: usize) {
        let s = steppers[tid].as_mut().expect("a dispatched step slot");
        if self.kernel.run_steps(tid, s) {
            steppers[tid] = None;
        }
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

    /// Run `sim` and return the counts `task` read as its last act.
    fn counts_at_end(sim: Simulation, counts: &Rc<RefCell<Option<RunCounts>>>) -> RunCounts {
        sim.run();
        let counts = counts.borrow_mut().take();
        counts.expect("the task read the counts")
    }

    #[test]
    fn a_park_nobody_wakes_before_its_floor_blocks_there_without_a_switch() {
        let sim = Simulation::new();
        let counts = Rc::new(RefCell::new(None));
        let waiter = {
            let counts = Rc::clone(&counts);
            sim.spawn("waiter", move |ctx| {
                ctx.advance_batched(SimDuration::from_nanos(100));
                ctx.park();
                assert_eq!(ctx.now().as_nanos(), 1_000, "woken at the unpark's instant");
                *counts.borrow_mut() = Some(ctx.run_counts());
            })
        };
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDuration::from_nanos(1_000));
            ctx.unpark(waiter);
        });
        let counts = counts_at_end(sim, &counts);
        let w = &counts.slots[0];
        // Its start and the unpark: the floor at 100 ns switched nothing.
        assert_eq!((w.switches, w.floor_parks), (2, 1), "{w:?}");
    }

    #[test]
    fn two_unparks_inside_the_window_wake_at_the_floor_and_leave_no_permit() {
        let sim = Simulation::new();
        let waiter = sim.spawn("waiter", |ctx| {
            let runs = Rc::new(Cell::new(0u32));
            let action = {
                let runs = Rc::clone(&runs);
                ctx.floor_action(move |_| {
                    runs.set(runs.get() + 1);
                    false
                })
            };
            ctx.advance_batched(SimDuration::from_nanos(500));
            assert_eq!(ctx.park_with(&action), Parked::AtFloor);
            assert_eq!(ctx.now().as_nanos(), 500, "woken at the floor");
            assert_eq!(runs.get(), 1, "the permit skipped the action");
            ctx.park();
            assert_eq!(ctx.now().as_nanos(), 2_000, "the second park blocked");
        });
        sim.spawn("waker", move |ctx| {
            for at in [100, 200, 2_000] {
                ctx.sleep_until(SimTime::from_nanos(at));
                ctx.unpark(waiter);
            }
        });
        assert_eq!(sim.run().as_nanos(), 2_000);
    }

    #[test]
    fn an_unpark_after_the_floor_wakes_the_task_at_its_instant() {
        let sim = Simulation::new();
        let counts = Rc::new(RefCell::new(None));
        let waiter = {
            let counts = Rc::clone(&counts);
            sim.spawn("waiter", move |ctx| {
                ctx.advance_batched(SimDuration::from_nanos(100));
                ctx.park();
                assert_eq!(ctx.now().as_nanos(), 300);
                *counts.borrow_mut() = Some(ctx.run_counts());
            })
        };
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDuration::from_nanos(300));
            ctx.unpark(waiter);
        });
        let counts = counts_at_end(sim, &counts);
        assert_eq!(counts.floor_parks, 1, "{counts:?}");
    }

    #[test]
    fn a_panic_while_a_task_waits_for_its_floor_unwinds_it_without_its_action() {
        let held = Arc::new(());
        let runs = Rc::new(Cell::new(0u32));
        let sim = Simulation::new();
        {
            let (held, runs) = (Arc::clone(&held), Rc::clone(&runs));
            sim.spawn("waiter", move |ctx| {
                let _mine = held;
                let action = ctx.floor_action(move |_| {
                    runs.set(runs.get() + 1);
                    panic!("the action ran after the abort")
                });
                ctx.advance_batched(SimDuration::from_nanos(1_000));
                ctx.park_with(&action);
            });
        }
        sim.spawn("bomber", |ctx| {
            ctx.advance(SimDuration::from_nanos(10));
            panic!("boom");
        });
        let msg = failure_of(sim);
        assert!(
            msg.starts_with("simulated thread 'bomber' panicked: boom"),
            "{msg}"
        );
        assert_eq!(runs.get(), 0, "a floor action ran while the run aborted");
        assert_eq!(Arc::strong_count(&held), 1, "the waiter did not unwind");
    }

    #[test]
    fn a_floor_action_runs_in_its_tasks_place_at_the_floor() {
        // Ids 0, 1, 2 due at 100 ns: the action of id 1 runs after id 0
        // and before id 2, and its task resumes at once when it asks.
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Simulation::new();
        for (name, parks) in [("low", false), ("parker", true), ("high", false)] {
            let log = Rc::clone(&log);
            sim.spawn(name, move |ctx| {
                if !parks {
                    ctx.advance(SimDuration::from_nanos(100));
                    log.borrow_mut().push((name, ctx.now().as_nanos()));
                    return;
                }
                let action = {
                    let log = Rc::clone(&log);
                    ctx.floor_action(move |ctx| {
                        log.borrow_mut().push(("action", ctx.now().as_nanos()));
                        true
                    })
                };
                ctx.advance_batched(SimDuration::from_nanos(100));
                assert_eq!(ctx.park_with(&action), Parked::AtFloor);
                log.borrow_mut().push((name, ctx.now().as_nanos()));
            });
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            [
                ("low", 100),
                ("action", 100),
                ("parker", 100),
                ("high", 100)
            ]
        );
    }

    /// A relay that takes items off `input`, charges `cost` per item and
    /// forwards them to `output`, closing it when `input` closes: as a
    /// step slot or, with the same yield points, as a task.
    fn spawn_relay(
        sim: &Simulation,
        as_steps: bool,
        name: &str,
        input: Arc<crate::SimChannel<u64>>,
        output: Arc<crate::SimChannel<u64>>,
    ) {
        use std::task::Poll;
        if !as_steps {
            sim.spawn(name, move |ctx| {
                while let Some(v) = input.recv(ctx) {
                    ctx.advance(SimDuration::from_nanos(v % 7 + 1));
                    output.send(ctx, v);
                }
                output.close(ctx);
            });
            return;
        }
        let mut held: Option<u64> = None;
        sim.spawn_steps(name, move |ctx| {
            if let Some(v) = held.take() {
                output.send(ctx, v);
            }
            match input.poll_recv(ctx) {
                Poll::Ready(Some(v)) => {
                    held = Some(v);
                    Step::Advance(SimDuration::from_nanos(v % 7 + 1))
                }
                Poll::Ready(None) => {
                    output.close(ctx);
                    Step::Exit
                }
                Poll::Pending => Step::Park,
            }
        });
    }

    /// Producers feed two relays in a chain into a consumer, with a
    /// semaphore, a timer and cross unparks; the relays run as step slots
    /// or as tasks.
    fn mixed_run(reference: bool, as_steps: bool) -> (u64, Vec<Dispatch>) {
        let sim = if reference {
            Simulation::new_reference()
        } else {
            Simulation::new()
        };
        sim.record_trace();
        let (a, b, c) = (
            crate::SimChannel::new(),
            crate::SimChannel::new(),
            crate::SimChannel::new(),
        );
        let sem = crate::SimSemaphore::new(2);
        for p in 0..3u64 {
            let (a, sem) = (Arc::clone(&a), Arc::clone(&sem));
            sim.spawn(format!("producer{p}"), move |ctx| {
                for i in 0..40u64 {
                    sem.acquire_checked(ctx)
                        .expect("an unpoisoned semaphore grants");
                    ctx.advance(SimDuration::from_nanos((p * 13 + i * 5) % 9));
                    a.send(ctx, p * 100 + i);
                    sem.release(ctx);
                }
            });
        }
        spawn_relay(&sim, as_steps, "relay-a", Arc::clone(&a), Arc::clone(&b));
        spawn_relay(&sim, as_steps, "relay-b", b, Arc::clone(&c));
        let consumer = sim.spawn("consumer", move |ctx| {
            let mut got = 0;
            while c.recv(ctx).is_some() {
                got += 1;
                if got == 120 {
                    a.close(ctx);
                }
            }
            ctx.park(); // the timer's unpark
        });
        let mut ticks = 0u32;
        sim.spawn_steps("timer", move |ctx| {
            ticks += 1;
            if ticks == 30 {
                ctx.unpark(consumer);
                return Step::Exit;
            }
            Step::Advance(SimDuration::from_nanos(23))
        });
        let (end, trace) = sim.run_traced();
        (end.as_nanos(), trace)
    }

    #[test]
    fn a_step_slot_schedules_exactly_like_a_task_with_its_yield_points() {
        let steps = mixed_run(false, true);
        assert_eq!(steps, mixed_run(false, false), "steps and tasks diverged");
        assert_eq!(
            steps,
            mixed_run(true, true),
            "steps diverged from the reference kernel"
        );
        assert!(steps.1.len() > 500, "{} dispatches", steps.1.len());
    }

    /// Run `sim`, expecting it to fail; returns the failure message.
    fn failure_of(sim: Simulation) -> String {
        let failure =
            panic::catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("the run must fail");
        failure
            .downcast_ref::<String>()
            .expect("the run fails with a formatted message")
            .clone()
    }

    #[test]
    fn a_panicking_step_fails_the_run_naming_its_slot_and_tasks_unwind() {
        let held = Arc::new(());
        let sim = Simulation::new();
        {
            let held = Arc::clone(&held);
            sim.spawn("parked", move |ctx| {
                let _mine = held;
                ctx.park();
            });
        }
        let mut runs = 0;
        sim.spawn_steps("bomb", move |_| {
            runs += 1;
            assert!(runs < 3, "boom at run {runs}");
            Step::Advance(SimDuration::from_micros(1))
        });
        let msg = failure_of(sim);
        assert!(
            msg.starts_with("simulated thread 'bomb' panicked: boom at run 3"),
            "{msg}"
        );
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the parked task did not unwind"
        );
    }

    #[test]
    fn a_step_that_yields_fails_loudly_naming_its_slot() {
        for (what, name) in [("advance", "advancer"), ("park", "parker")] {
            let sim = Simulation::new();
            sim.spawn_steps(name, move |ctx| {
                if what == "advance" {
                    ctx.sleep_until(SimTime::from_nanos(5));
                } else {
                    ctx.park();
                }
                Step::Exit
            });
            let msg = failure_of(sim);
            assert!(
                msg.starts_with(&format!(
                    "simulated thread '{name}' panicked: a step called {what}"
                )),
                "{msg}"
            );
        }
    }

    #[test]
    fn a_blocked_step_is_dropped_not_run_when_the_run_aborts() {
        let held = Arc::new(());
        let runs = Rc::new(Cell::new(0u32));
        let sim = Simulation::new();
        {
            let (held, runs) = (Arc::clone(&held), Rc::clone(&runs));
            sim.spawn_steps("blocked", move |_| {
                let _mine = &held;
                runs.set(runs.get() + 1);
                Step::Park
            });
        }
        sim.spawn("bomber", |ctx| {
            ctx.advance(SimDuration::from_millis(1));
            panic!("boom");
        });
        let msg = failure_of(sim);
        assert!(
            msg.starts_with("simulated thread 'bomber' panicked: boom"),
            "{msg}"
        );
        assert_eq!(runs.get(), 1, "a step ran after the abort");
        assert_eq!(Arc::strong_count(&held), 1, "the step's closure leaked");
    }

    #[test]
    fn run_counts_separate_stack_switches_from_step_runs() {
        let sim = Simulation::new();
        let counts = Rc::new(RefCell::new(None));
        let mut runs = 0;
        sim.spawn_steps("ticker", move |_| {
            runs += 1;
            if runs > 10 {
                return Step::Exit;
            }
            Step::Advance(SimDuration::from_nanos(10))
        });
        {
            let counts = Rc::clone(&counts);
            sim.spawn("task", move |ctx| {
                for _ in 0..10 {
                    // Ties the ticker's wakes, so every advance switches.
                    ctx.advance(SimDuration::from_nanos(10));
                }
                *counts.borrow_mut() = Some(ctx.run_counts());
            });
        }
        sim.run();
        let counts = counts
            .borrow_mut()
            .take()
            .expect("the task read the counts");
        let ticker = &counts.slots[0];
        assert_eq!((ticker.name.as_str(), ticker.switches), ("ticker", 0));
        assert_eq!(ticker.step_runs, 11);
        assert_eq!(counts.slots[1].switches, 11);
        assert_eq!((counts.switches, counts.step_runs), (11, 11));
    }

    #[test]
    fn a_lone_tasks_advances_switch_onto_its_stack_once() {
        // Every wake of a lone task precedes the (empty) queue, so the fast
        // path continues it inline: only its first dispatch switches.
        let sim = Simulation::new();
        let counts = Rc::new(RefCell::new(None));
        {
            let counts = Rc::clone(&counts);
            sim.spawn("lone", move |ctx| {
                for _ in 0..10_000 {
                    ctx.advance(SimDuration::from_nanos(10));
                }
                *counts.borrow_mut() = Some(ctx.run_counts());
            });
        }
        sim.run();
        let counts = counts
            .borrow_mut()
            .take()
            .expect("the task read the counts");
        assert_eq!(counts.switches, 1, "{counts:?}");
    }
}
