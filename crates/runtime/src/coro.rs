//! Stackful coroutines: the mechanism that hands the run token over.
//!
//! Every goroutine of a run is a coroutine with its own mmap'd stack,
//! and all of them run on the run's one host thread. The host resumes
//! the goroutine the scheduler granted; that goroutine runs until it
//! blocks, yields or ends, and then suspends back to the host. Handing
//! the token over is a register swap on one thread: no OS thread per
//! goroutine, no condvar, no cross-thread wakeup (DESIGN.md §13).
//!
//! This is the only module of the runtime with `unsafe` code:
//!
//! * **Switch** — [`switch`] saves the System V callee-saved registers
//!   (`rbx`, `rbp`, `r12`–`r15`) and the MXCSR and x87 control words on
//!   the current stack, stores `rsp`, then loads the other stack's `rsp`
//!   and restores the same set from it.
//! * **Entry** — a fresh stack "returns" into [`trampoline`], whose CFI
//!   marks the return address undefined, so unwinders and backtraces stop
//!   at the stack base. [`entry`] runs the body under `catch_unwind` and
//!   aborts if a panic escapes it: no unwind ever crosses the trampoline.
//! * **Stacks** — [`STACK_SIZE`] bytes above a `PROT_NONE` guard page, so
//!   an overflow faults (SIGSEGV) instead of corrupting memory. Stacks of
//!   finished coroutines go back to a per-host-thread free list of at
//!   most [`STACK_CACHE`] entries.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "goat-runtime has no coroutine context switch for this target: \
     `coro::switch` is implemented for x86_64 Linux (System V ABI) only"
);

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::ptr;

/// Usable bytes of one coroutine stack: a Rust thread's default, the
/// budget goroutines had when each ran on its own OS thread. Only
/// touched pages cost memory.
const STACK_SIZE: usize = 2 * 1024 * 1024;

/// Stacks each host thread keeps for reuse.
const STACK_CACHE: usize = 64;

/// The guard page below every stack.
const PAGE: usize = 4096;

/// MXCSR (all exceptions masked, round to nearest) in the low half and
/// the x87 control word (extended precision, all exceptions masked) in
/// the high half: the SysV defaults a fresh coroutine starts with.
const INITIAL_CONTROL_WORDS: usize = 0x1F80 | (0x037F << 32);

/// Anonymous memory mappings via raw libc calls (no crates).
mod sys {
    use std::io;
    use std::ptr;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MAP_STACK: i32 = 0x20000;

    /// Map `len` fresh read-write bytes and make the lowest `guard`
    /// bytes inaccessible.
    pub(super) fn map_guarded(len: usize, guard: usize) -> Result<*mut u8, String> {
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: an anonymous mapping at an address the kernel picks
        // aliases no memory this process already uses.
        let base = unsafe { mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, -1, 0) };
        if base as isize == -1 {
            return Err(format!("coroutine stack mmap failed: {}", io::Error::last_os_error()));
        }
        // SAFETY: `base..base + guard` lies inside the mapping just
        // created, which nothing references yet.
        if unsafe { mprotect(base, guard, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: the mapping was created above and never handed out.
            unsafe { unmap(base, len) };
            return Err(format!("coroutine stack guard page failed: {err}"));
        }
        Ok(base)
    }

    /// Release a mapping made by [`map_guarded`].
    ///
    /// # Safety
    /// `base` and `len` must describe one such mapping, and no live
    /// frame or reference may point into it.
    pub(super) unsafe fn unmap(base: *mut u8, len: usize) {
        // SAFETY: the caller upholds this function's contract.
        unsafe { munmap(base, len) };
    }
}

/// One coroutine stack: a guard page at the low end, then `STACK_SIZE`
/// usable bytes.
struct Stack {
    base: *mut u8,
}

impl Stack {
    const LEN: usize = PAGE + STACK_SIZE;

    /// The stack's top: page-aligned, so 16-byte aligned as SysV wants.
    fn top(&self) -> *mut usize {
        self.base.wrapping_add(Self::LEN).cast()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` came from `map_guarded(Stack::LEN, ..)`, and a
        // stack is only dropped once no coroutine frame lives on it
        // (`Coroutine::drop` leaks the stack of an unfinished one).
        unsafe { sys::unmap(self.base, Self::LEN) };
    }
}

thread_local! {
    /// Stacks of finished coroutines, kept for the next spawn on this
    /// host thread.
    static FREE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    /// The switch state of the coroutine running on this thread; null
    /// while the host itself runs.
    static RUNNING: Cell<*const Regs> = const { Cell::new(ptr::null()) };
}

/// Take a stack from this thread's free list, or map a new one. This is
/// the `pool_checkout` faultpoint: it fires once per goroutine spawn.
fn checkout() -> Result<Stack, String> {
    if let Some(reason) = crate::faultpoint::should_fail("pool_checkout") {
        return Err(reason);
    }
    match FREE.with(|f| f.borrow_mut().pop()) {
        Some(stack) => Ok(stack),
        None => sys::map_guarded(Stack::LEN, PAGE).map(|base| Stack { base }),
    }
}

/// Return a stack with no live frames to the free list, or unmap it
/// when the list is full.
fn checkin(stack: Stack) {
    FREE.with(|f| {
        let mut free = f.borrow_mut();
        if free.len() < STACK_CACHE {
            free.push(stack);
        }
    });
}

/// A coroutine's switch state. Boxed, so its address stays fixed for
/// the pointers `switch` and `entry` keep to it.
struct Regs {
    /// The coroutine's stack pointer while it is suspended.
    sp: Cell<*mut u8>,
    /// The host's stack pointer while the coroutine runs.
    host_sp: Cell<*mut u8>,
    /// The body, until `entry` takes it.
    body: Cell<Option<Box<dyn FnOnce()>>>,
    /// The body has returned; the coroutine is never resumed again.
    finished: Cell<bool>,
}

/// A stackful coroutine, resumed by its host thread until it finishes.
pub(crate) struct Coroutine {
    regs: Box<Regs>,
    stack: Option<Stack>,
    started: bool,
}

impl Coroutine {
    /// A coroutine that will run `body` on a stack of its own when first
    /// resumed. Fails when no stack can be checked out.
    pub(crate) fn new(body: Box<dyn FnOnce()>) -> Result<Coroutine, String> {
        let stack = checkout()?;
        let regs = Box::new(Regs {
            sp: Cell::new(ptr::null_mut()),
            host_sp: Cell::new(ptr::null_mut()),
            body: Cell::new(Some(body)),
            finished: Cell::new(false),
        });
        // The frame `switch` restores, lowest address first: control
        // words, r15, r14, r13 (the argument `trampoline` passes to
        // `entry`), r12 (`entry`), rbx, rbp (zero ends frame-pointer
        // walks), and the address `switch` returns to. That return pops
        // the last word, leaving `rsp` at the 16-byte-aligned top, so
        // the trampoline's call into `entry` is ABI-aligned.
        let frame: [usize; 8] = [
            INITIAL_CONTROL_WORDS,
            0,
            0,
            &*regs as *const Regs as usize,
            entry as *const () as usize,
            0,
            0,
            trampoline as *const () as usize,
        ];
        // SAFETY: the eight words below `top` are inside the stack's
        // writable part, and no frame uses this stack yet.
        let sp = unsafe {
            let sp = stack.top().sub(frame.len());
            ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
            sp
        };
        regs.sp.set(sp.cast());
        Ok(Coroutine { regs, stack: Some(stack), started: false })
    }

    /// Run the coroutine until it suspends or finishes. Returns true
    /// once it has finished; its stack then goes back to the free list.
    ///
    /// # Panics
    /// When the coroutine has already finished, or when called from
    /// inside a coroutine (coroutines do not nest).
    pub(crate) fn resume(&mut self) -> bool {
        assert!(!self.regs.finished.get(), "resumed a finished coroutine");
        let outer = RUNNING.replace(&*self.regs);
        assert!(outer.is_null(), "a coroutine resumed another coroutine");
        self.started = true;
        // SAFETY: `sp` holds either the fresh frame laid out by `new` or
        // the stack pointer `suspend` saved, on this coroutine's stack,
        // whose frames are intact; `host_sp` is a slot in the boxed
        // `Regs`, which outlives the switch.
        unsafe { switch(self.regs.host_sp.as_ptr(), self.regs.sp.get()) };
        RUNNING.set(ptr::null());
        let finished = self.regs.finished.get();
        if finished {
            if let Some(stack) = self.stack.take() {
                checkin(stack);
            }
        }
        finished
    }

    /// Whether the coroutine has been resumed at least once.
    pub(crate) fn started(&self) -> bool {
        self.started
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if self.started && !self.regs.finished.get() {
            // Suspended mid-body: its frames are still live and may be
            // referenced from elsewhere, so leak the mapping rather than
            // reuse or unmap it.
            std::mem::forget(self.stack.take());
        } else if let Some(stack) = self.stack.take() {
            checkin(stack);
        }
    }
}

/// Suspend the running coroutine and switch back to the host that
/// resumed it; returns when the host resumes it again.
///
/// # Panics
/// When called outside a coroutine.
pub(crate) fn suspend() {
    let regs = RUNNING.get();
    assert!(!regs.is_null(), "coro::suspend called outside a coroutine");
    // SAFETY: `regs` is the boxed `Regs` of the coroutine the host is
    // resuming right now; the box lives until that `resume` returns,
    // which is after this switch. `host_sp` was saved by that `resume`.
    unsafe { switch((*regs).sp.as_ptr(), (*regs).host_sp.get()) };
}

/// The first Rust frame on every coroutine stack.
extern "C" fn entry(regs: *const Regs) -> ! {
    {
        // SAFETY: `new` passed the boxed `Regs` of this coroutine, which
        // its `Coroutine` keeps alive while the coroutine can run.
        let regs = unsafe { &*regs };
        let body = regs.body.take();
        let run = move || {
            if let Some(body) = body {
                body();
            }
        };
        if panic::catch_unwind(AssertUnwindSafe(run)).is_err() {
            // The body's own catch site let a panic through; unwinding
            // further would cross the trampoline.
            std::process::abort();
        }
        regs.finished.set(true);
    }
    suspend();
    // A finished coroutine is never resumed.
    std::process::abort()
}

/// Swap stacks: save the callee-saved registers and the MXCSR and x87
/// control words on the current stack, store `rsp` to `*save`, switch
/// `rsp` to `to` and restore the same set from there.
///
/// # Safety
/// `save` must be valid for a write, and `to` must be a stack pointer
/// saved by `switch` on a stack whose frames are intact, or a fresh
/// frame laid out by [`Coroutine::new`].
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
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

/// Where a fresh coroutine's first `switch` returns to: calls
/// `entry(r13)` through `r12`. Its CFI marks the return address
/// undefined, which ends every unwind and backtrace at the stack base.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r13",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// Serializes with the scoped fault plans of this binary, so no
    /// `pool_checkout` fault fires at these tests' checkouts.
    fn no_faults() -> crate::faultpoint::FaultGuard {
        crate::faultpoint::scoped("")
    }

    fn free_len() -> usize {
        FREE.with(|f| f.borrow().len())
    }

    #[test]
    fn resume_and_suspend_interleave() {
        let _serial = no_faults();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mk = |name: &'static str| {
            let log = Rc::clone(&log);
            Coroutine::new(Box::new(move || {
                for i in 0..3 {
                    log.borrow_mut().push(format!("{name}{i}"));
                    suspend();
                }
            }))
            .expect("stack")
        };
        let (mut a, mut b) = (mk("a"), mk("b"));
        let (mut a_done, mut b_done) = (false, false);
        while !(a_done && b_done) {
            if !a_done {
                a_done = a.resume();
            }
            if !b_done {
                b_done = b.resume();
            }
        }
        assert_eq!(*log.borrow(), ["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn control_words_and_floats_survive_switches() {
        let _serial = no_faults();
        let out = Rc::new(Cell::new(0.0f64));
        let o = Rc::clone(&out);
        let mut c = Coroutine::new(Box::new(move || {
            let mut x = 1.5f64;
            for _ in 0..4 {
                x = x * 3.0 + 0.25;
                suspend();
            }
            o.set(x);
        }))
        .expect("stack");
        let mut y = 2.0f64;
        while !c.resume() {
            y = y.sqrt() * 7.0;
        }
        assert_eq!(out.get(), ((((1.5f64 * 3.0 + 0.25) * 3.0 + 0.25) * 3.0 + 0.25) * 3.0 + 0.25));
        assert!(y > 0.0);
    }

    #[test]
    fn unstarted_coroutine_drops_its_body() {
        let _serial = no_faults();
        let token = Rc::new(());
        let held = Rc::clone(&token);
        let c = Coroutine::new(Box::new(move || drop(held))).expect("stack");
        assert_eq!(Rc::strong_count(&token), 2);
        drop(c);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn panic_caught_inside_the_coroutine_stays_inside() {
        let _serial = no_faults();
        let mut c = Coroutine::new(Box::new(|| {
            let r = panic::catch_unwind(|| panic::panic_any(7u32));
            assert_eq!(*r.unwrap_err().downcast::<u32>().unwrap(), 7);
        }))
        .expect("stack");
        assert!(c.resume());
    }

    #[test]
    fn stack_free_list_stays_bounded() {
        let _serial = no_faults();
        for run in 0..10_000usize {
            // Every few runs hold many coroutines at once, so more stacks
            // come back than the list may keep.
            let n = if run % 100 == 0 { 3 * STACK_CACHE } else { 1 + run % 7 };
            let mut cs: Vec<Coroutine> =
                (0..n).map(|_| Coroutine::new(Box::new(suspend)).expect("stack")).collect();
            for c in &mut cs {
                assert!(!c.resume());
            }
            for c in &mut cs {
                assert!(c.resume());
                assert!(free_len() <= STACK_CACHE, "free list grew past {STACK_CACHE}");
            }
        }
        assert!(free_len() <= STACK_CACHE);
    }
}
