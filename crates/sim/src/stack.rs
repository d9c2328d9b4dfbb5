//! Task stacks and the switch between them.
//!
//! Every simulated task runs on a [`Stack`] of its own: one anonymous
//! `mmap` of [`STACK_SIZE`] bytes with a `PROT_NONE` guard page below it,
//! so an overflow faults instead of writing over a neighbour. The scheduler
//! loop and the tasks share the one OS thread that called
//! `Simulation::run`, and they pass it back and forth through a
//! [`Switchboard`]: [`Switchboard::resume`] saves the scheduler's
//! callee-saved registers on its own stack and loads the task's stack
//! pointer; [`Switchboard::suspend`] does the reverse from the task's side.
//! A handoff is a function call that returns on another stack — no system
//! call, no futex, no second OS thread. Because all of a simulation's
//! allocations now come from one thread's heap, the module also keeps
//! glibc from trimming that heap after every run ([`keep_heap_top`]).
//!
//! This is the one module of the workspace that holds `unsafe` code. Its
//! safe interface keeps these conditions true, and every `unsafe` block
//! names the ones it relies on:
//!
//! 1. **A saved stack pointer is loaded at most once.** A [`Fiber`] owns
//!    its saved pointer and is consumed by `resume`; the scheduler's saved
//!    pointer is loaded only by the task the board is running, and `resume`
//!    forgets that task's bounds as soon as it switches back.
//! 2. **A stack outlives every context saved on it.** A `Fiber` owns its
//!    `Stack`, and the scheduler's context lives on the stack of the
//!    `resume` call that is waiting for the task.
//! 3. **One task runs per board, on the board's own thread.** The board's
//!    fields are `Cell`s, so neither it nor a `Fiber` is `Send` or `Sync`;
//!    `resume` claims the board before it switches, and `suspend` checks
//!    that its caller executes on the stack of the task the board is
//!    running.
//! 4. **No unwind crosses a switch.** A task's bottom frame is
//!    [`fiber_main`], an `extern "C"` function: a panic that escapes the
//!    task's body aborts the process there instead of unwinding into the
//!    hand-written frame below it. (The kernel's task body catches every
//!    panic itself.)

#![expect(
    unsafe_code,
    reason = "the stack switch is hand-written assembly over mapped task stacks"
)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "rsj-sim has no task switch for this target: `crates/sim/src/stack.rs` implements \
     `switch` and `Stack` for x86_64 Linux (System V ABI) only"
);

use std::arch::naked_asm;
use std::cell::Cell;
use std::ffi::c_void;
use std::ptr::{self, NonNull};

/// Usable bytes of one task stack (the size the thread-per-task kernel
/// gave each task's OS thread).
const STACK_SIZE: usize = 512 * 1024;

/// The x86_64 Linux base page: the guard below each stack.
const PAGE: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
/// glibc's `mallopt` parameter for the heap-top trim threshold.
const M_TRIM_THRESHOLD: i32 = -1;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep freed memory at the top of the process heap instead of returning
/// it to the OS on every `free`.
///
/// Every task of a simulation allocates on the thread that runs it, so a
/// run's whole working set comes from that thread's heap. When a run ends
/// with the heap top free, glibc trims it, and the next run of the same
/// size faults every page back in: a 2 M + 2 M single-machine join took
/// 0.25–0.27 s a run instead of 0.18–0.19 s on inputs whose layout left
/// the top free. (With a task per OS thread each task had a heap of its
/// own and the cost did not show.) Process-wide and idempotent; the
/// kernel calls it once per run.
pub(crate) fn keep_heap_top() {
    static KEEP: std::sync::Once = std::sync::Once::new();
    // SAFETY: `mallopt` only changes an allocator parameter; it takes no
    // pointers and is safe to call at any time from any thread.
    KEEP.call_once(|| unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    });
}

/// One task's stack: a private anonymous mapping whose lowest page is a
/// `PROT_NONE` guard. Pages are committed on first touch, so an idle stack
/// costs address space, not memory. Unmapped on drop.
pub(crate) struct Stack {
    /// Lowest address of the mapping (the guard page).
    base: NonNull<u8>,
}

impl Stack {
    const MAPPED: usize = PAGE + STACK_SIZE;

    /// Map a fresh stack.
    ///
    /// # Panics
    /// Panics if the host refuses the mapping or the guard page.
    pub(crate) fn new() -> Stack {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases no existing memory; the result is
        // checked against MAP_FAILED before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                Self::MAPPED,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as usize != usize::MAX,
            "mmap of a {} KiB task stack failed",
            Self::MAPPED / 1024
        );
        // SAFETY: `base` is the page-aligned start of the mapping made
        // above, which is at least one page long and not yet shared.
        let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a task stack's guard page failed");
        Stack {
            base: NonNull::new(base.cast()).expect("mmap never returns null on success"),
        }
    }

    /// Lowest usable address (just above the guard page).
    fn bottom(&self) -> usize {
        self.base.as_ptr() as usize + PAGE
    }

    /// One past the highest usable address; 16-byte aligned.
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + Self::MAPPED
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`MAPPED` are exactly the mapping `new` made, and
        // the owner is dropping it: no context saved on it is resumed
        // afterwards (condition 2 — a suspended task's objects are leaked,
        // never touched).
        unsafe { munmap(self.base.as_ptr().cast(), Self::MAPPED) };
    }
}

/// A task suspended on its own stack: the stack and the stack pointer its
/// last switch saved. Consumed by [`Switchboard::resume`].
pub(crate) struct Fiber {
    stack: Stack,
    sp: usize,
    /// The board that started this fiber. Its bottom frame switches back
    /// through this board when the body returns, so no other board may
    /// resume it.
    board: *const Switchboard,
}

/// What a [`Switchboard::resume`] handed back.
pub(crate) enum Resumed {
    /// The task switched back at a yield point; resume it later.
    Suspended(Fiber),
    /// The task's body returned; its stack is free for another task.
    Finished(Stack),
}

/// The scheduler's side of the switch: where the scheduler loop's context
/// is saved while a task runs, and where a suspending task leaves its own.
/// One per simulation kernel, so two simulations on two OS threads (or one
/// run from inside another's task) never share a context. The scheduler
/// and its tasks share the one OS thread, so the fields are plain cells.
pub(crate) struct Switchboard {
    /// The scheduler's saved stack pointer while a task runs; `CLAIMED`
    /// from the claim in `resume` until the switch overwrites it; 0 when no
    /// task runs.
    home: Cell<usize>,
    /// The stack pointer a suspending task saved, for `resume` to collect;
    /// stays 0 when the task finished instead.
    parked: Cell<usize>,
    /// Usable bounds of the running task's stack; both 0 when none runs.
    lo: Cell<usize>,
    hi: Cell<usize>,
}

/// `home` while `resume` owns the board but has not switched yet.
const CLAIMED: usize = 1;

impl Switchboard {
    pub(crate) fn new() -> Switchboard {
        Switchboard {
            home: Cell::new(0),
            parked: Cell::new(0),
            lo: Cell::new(0),
            hi: Cell::new(0),
        }
    }

    /// Start `body` on `stack` and run it until its first yield point or
    /// its end.
    pub(crate) fn start(&self, stack: Stack, body: Box<dyn FnOnce()>) -> Resumed {
        let start = Box::into_raw(Box::new(Start { board: self, body }));
        // The first `switch` into the fiber pops this frame exactly as if
        // the fiber had saved it, then returns into `fiber_start` with the
        // two arguments of `fiber_main` in rbx and r12.
        let frame: [usize; 10] = [
            INITIAL_FP_CONTROL,                // top-80: MXCSR | x87 control word << 32
            0,                                 // top-72: r15
            0,                                 // top-64: r14
            0,                                 // top-56: r13
            fiber_main as *const () as usize,  // top-48: r12
            start as usize,                    // top-40: rbx
            0,                                 // top-32: rbp (ends frame-pointer walks)
            fiber_start as *const () as usize, // top-24: return address of `switch`
            0,                                 // top-16: return address of `fiber_start`
            0,                                 // top-8: padding; keeps calls 16-aligned
        ];
        let sp = stack.top() - std::mem::size_of_val(&frame);
        // SAFETY: [top-80, top) lies inside the stack's writable mapping,
        // which nothing references yet (the stack was just taken from its
        // owner), and `sp` is 16-aligned since `top` is page-aligned.
        unsafe { ptr::write(sp as *mut [usize; 10], frame) };
        self.resume(Fiber {
            stack,
            sp,
            board: self,
        })
    }

    /// Switch to `fiber` and run it until it yields or finishes.
    ///
    /// # Panics
    /// Panics if `fiber` was started by another board, or if this board is
    /// already running a task.
    pub(crate) fn resume(&self, fiber: Fiber) -> Resumed {
        assert!(
            ptr::eq(fiber.board, self),
            "a task is resumed only by the scheduler that started it"
        );
        assert_eq!(self.home.get(), 0, "a scheduler runs one task at a time");
        self.home.set(CLAIMED);
        self.lo.set(fiber.stack.bottom());
        self.hi.set(fiber.stack.top());
        // SAFETY: `fiber.sp` was saved by the fiber's last `switch` (or laid
        // out by `start`) and is loaded here once, since `fiber` is consumed
        // (1); its stack is owned by `fiber`, alive in this frame until the
        // task switches back (2); the claim above makes this the board's
        // only running task (3).
        unsafe { switch(self.home.as_ptr(), fiber.sp) };
        self.lo.set(0);
        self.hi.set(0);
        let parked = self.parked.replace(0);
        self.home.set(0);
        match parked {
            0 => Resumed::Finished(fiber.stack),
            sp => Resumed::Suspended(Fiber { sp, ..fiber }),
        }
    }

    /// Called by the running task: save its context and switch back to the
    /// scheduler; returns when the scheduler resumes this task.
    ///
    /// # Panics
    /// Panics if the caller is not executing on the stack of the task this
    /// board is running.
    pub(crate) fn suspend(&self) {
        let home = self.running_home();
        // SAFETY: `running_home` proved the caller is the task `resume`
        // switched to, so `home` is the scheduler context that `resume`
        // saved, alive on its stack until this task switches back (2) and
        // loaded only by this switch: the bounds are cleared before the
        // board can be used again (1).
        unsafe { switch(self.parked.as_ptr(), home) };
    }

    /// The end of a task: switch back to the scheduler for good.
    fn exit(&self) -> ! {
        let home = self.running_home();
        let mut dead = 0usize;
        // SAFETY: as in `suspend`. `parked` stays 0, so `resume` reports the
        // task finished and nothing ever loads `dead`.
        unsafe { switch(&mut dead, home) };
        unreachable!("a finished task was resumed");
    }

    /// The scheduler context to switch back to, after checking that the
    /// caller executes on the stack of the task this board is running.
    fn running_home(&self) -> usize {
        let marker = 0u8;
        let here = ptr::addr_of!(marker) as usize;
        assert!(
            (self.lo.get()..self.hi.get()).contains(&here),
            "suspend called outside the task this scheduler is running"
        );
        self.home.get()
    }
}

/// What `fiber_main` receives through `rbx`: the body and the board to
/// leave through when it returns.
struct Start {
    board: *const Switchboard,
    body: Box<dyn FnOnce()>,
}

/// The initial floating-point control state of a task: MXCSR 0x1F80 (all
/// exceptions masked, round to nearest) and x87 control word 0x037F, the
/// state every x86_64 thread starts in.
const INITIAL_FP_CONTROL: usize = 0x1F80 | (0x037F << 32);

/// Bottom Rust frame of every task stack.
extern "C" fn fiber_main(start: *mut Start) -> ! {
    let (board, body) = {
        // SAFETY: `start` is the pointer `Switchboard::start` leaked into
        // this fiber's first frame, and this call is its only reader.
        let start = unsafe { Box::from_raw(start) };
        let Start { board, body } = *start;
        (board, body)
    };
    body();
    // SAFETY: `board` started this fiber, and only it may resume the fiber,
    // so its `resume` is on the scheduler's stack right now, borrowing it.
    unsafe { (*board).exit() }
}

/// Entered by the first `ret` of `switch` into a fresh stack: call
/// `fiber_main(rbx)` through r12. It never returns.
#[unsafe(naked)]
unsafe extern "C" fn fiber_start() {
    naked_asm!("mov rdi, rbx", "call r12", "ud2")
}

/// Save the caller's context on its stack, store the stack pointer in
/// `*save`, and resume the context saved at stack pointer `to`.
///
/// The context is the System V callee-saved state: `rbx`, `rbp`,
/// `r12`–`r15`, MXCSR and the x87 control word (everything else is
/// clobbered by a call anyway). The return address is the resume point.
///
/// # Safety
/// `save` must be valid for a write. `to` must be a stack pointer saved
/// by an earlier `switch` (or laid out like one by
/// [`Switchboard::start`]) whose stack is still mapped and which has not
/// been resumed since.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut usize, to: usize) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn a_body_runs_across_suspends_and_finishes() {
        let board = Rc::new(Switchboard::new());
        let steps = Rc::new(Cell::new(0));
        let (b, s) = (Rc::clone(&board), Rc::clone(&steps));
        let body = Box::new(move || {
            for _ in 0..3 {
                s.set(s.get() + 1);
                b.suspend();
            }
            s.set(s.get() + 10);
        });
        let mut resumed = board.start(Stack::new(), body);
        let mut suspends = 0;
        while let Resumed::Suspended(fiber) = resumed {
            suspends += 1;
            assert_eq!(steps.get(), suspends);
            resumed = board.resume(fiber);
        }
        assert_eq!(suspends, 3);
        assert_eq!(steps.get(), 13);
    }

    #[test]
    #[should_panic(expected = "outside the task")]
    fn suspend_off_a_task_stack_is_refused() {
        Switchboard::new().suspend();
    }
}
