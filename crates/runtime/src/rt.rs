//! The single-token cooperative scheduler.
//!
//! Goroutines are stackful coroutines that all run on one host thread
//! per run, and **exactly one** holds the *run token* at any moment;
//! everything else is suspended. The scheduler decides who runs next and
//! records the grant; the goroutine then switches to the host loop,
//! which resumes the granted coroutine. Every primitive operation
//! funnels through this module to block, wake, yield and emit ECT events,
//! which gives the runtime three properties the paper's methodology
//! needs:
//!
//! 1. **Determinism** — given a [`Config::seed`], the whole interleaving
//!    (run-queue choices, select choices, injected yields) replays
//!    exactly;
//! 2. **Complete traces** — every scheduling-relevant action passes a
//!    single emission point;
//! 3. **Virtual time** — the clock advances per scheduler step and
//!    fast-forwards over idle periods, making timeouts deterministic.
//!
//! The *native* scheduling policy models Go's production scheduler: the
//! FIFO global run queue is followed, except with probability ε
//! ([`Config::native_preempt_prob`]) a random runnable goroutine is
//! chosen instead — the preemption/multi-processor noise that makes rare
//! interleavings rare.
//!
//! One host loop runs every run, behind two entry points:
//!
//! * [`Runtime::run_here`] hosts the run on the calling thread: no
//!   handoff and no wakeup, so it is the campaign runner's per-iteration
//!   entry. Nothing can abandon a host that is the caller itself, so a
//!   run with a wall-clock watchdog (or started inside another run) goes
//!   to the pooled entry instead, and without a watchdog a goroutine
//!   stuck outside every runtime primitive hangs the calling thread.
//! * [`Runtime::run`] hands the run to one host thread from the shared
//!   run-host pool and waits for it on a condvar, enforcing the
//!   wall-clock watchdog and the teardown deadline from the calling
//!   thread: a goroutine stuck outside every runtime primitive wedges
//!   only its host, which the caller then abandons.

use crate::config::{
    AliveGoroutine, Config, Decision, ReplayLog, RunOutcome, RunResult, SchedCounters, SchedPolicy,
    TimeoutPhase,
};
use crate::coro::{self, Coroutine};
use crate::faultpoint::{self, SeedFault};
use crate::monitor::Monitor;
use crate::strategy::{Strategy, StrategyKind, YieldChoice, YieldCtx};
use goat_model::{Cu, CuKind, Istr};
use goat_trace::{BlockReason, Ect, EventKind, Gid, RId, TraceBuf, VTime};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Panic payload used to unwind goroutines at shutdown.
pub(crate) struct ShutdownSignal;

/// Panic payload for Go-level runtime panics ("send on closed channel").
pub(crate) struct GoPanic {
    pub msg: String,
    /// The operation that raised this panic; its location is the
    /// panic's forensics (deterministic: the same seed panics at the same
    /// site).
    pub site: Cu,
}

/// Raise a Go-level panic at the operation `site` (crashes the whole
/// program, like Go).
pub(crate) fn gopanic(msg: impl Into<String>, site: Cu) -> ! {
    panic::panic_any(GoPanic { msg: msg.into(), site })
}

pub(crate) fn shutdown_unwind() -> ! {
    panic::panic_any(ShutdownSignal)
}

thread_local! {
    /// Forensics captured by the panic hook for the most recent *genuine*
    /// panic on this thread (location + truncated backtrace). The hook
    /// runs on the panicking thread, so `goroutine_main`'s catch site can
    /// read it back without any cross-thread plumbing.
    static LAST_PANIC_DETAIL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Cap on backtrace lines folded into a panic's forensics detail.
const PANIC_BACKTRACE_LINES: usize = 16;

/// Render a genuine panic's forensics: the panic location, plus a
/// truncated backtrace when `RUST_BACKTRACE` enables capture (the
/// default — capture disabled — keeps the detail deterministic).
fn render_panic_detail(info: &panic::PanicHookInfo<'_>) -> String {
    let mut detail = match info.location() {
        Some(loc) => format!("panicked at {}:{}:{}", loc.file(), loc.line(), loc.column()),
        None => "panicked at unknown location".to_string(),
    };
    let bt = std::backtrace::Backtrace::capture();
    if bt.status() == std::backtrace::BacktraceStatus::Captured {
        let text = bt.to_string();
        let mut lines = text.lines();
        for line in lines.by_ref().take(PANIC_BACKTRACE_LINES) {
            detail.push('\n');
            detail.push_str(line);
        }
        let dropped = lines.count();
        if dropped > 0 {
            detail.push_str(&format!("\n... ({dropped} more backtrace lines)"));
        }
    }
    detail
}

/// Install a process-wide panic hook that silences the runtime's
/// controlled unwinds (shutdown signals and Go-level panics) while
/// delegating genuine panics to the previous hook. Genuine panics also
/// leave their forensics (location + truncated backtrace) in a
/// thread-local for the goroutine catch site to collect.
fn install_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<ShutdownSignal>() || p.is::<GoPanic>() {
                return;
            }
            let detail = render_panic_detail(info);
            LAST_PANIC_DETAIL.with(|d| *d.borrow_mut() = Some(detail));
            prev(info);
        }));
    });
}

// ---------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum GState {
    Runnable,
    Running,
    Blocked(BlockReason),
    Done,
}

struct GSlot {
    gid: Gid,
    name: Istr,
    internal: bool,
    state: GState,
}

/// Commit point shared by the registrations of one blocked select.
///
/// The first operation (peer send/recv, close, timer) that consumes one
/// of the select's registered cases *commits* the select to that case;
/// every other registration becomes stale and is skipped or removed.
pub(crate) struct SelToken {
    winner: Mutex<Option<usize>>,
}

impl SelToken {
    pub(crate) fn new() -> Arc<SelToken> {
        Arc::new(SelToken { winner: Mutex::new(None) })
    }

    /// Try to commit the select to case `idx`; false if already won.
    pub(crate) fn try_commit(&self, idx: usize) -> bool {
        let mut w = self.winner.lock();
        if w.is_none() {
            *w = Some(idx);
            true
        } else {
            false
        }
    }

    /// The committed case, if any.
    pub(crate) fn winner(&self) -> Option<usize> {
        *self.winner.lock()
    }
}

/// A timer action fired when virtual time reaches the deadline.
pub(crate) trait TimerTarget: Send + Sync {
    /// Deliver the timer's effect (wake a goroutine, complete a channel).
    fn fire(&self, s: &mut Sched);
}

enum TimerAction {
    Wake(Gid),
    Fire(Arc<dyn TimerTarget>),
}

struct TimerEntry {
    deadline: u64,
    seq: u64,
    id: RId,
    action: TimerAction,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// The scheduler: all mutable run state behind one lock.
pub(crate) struct Sched {
    cfg: Config,
    slots: Vec<GSlot>,
    runq: VecDeque<Gid>,
    rng: SmallRng,
    clock: u64,
    steps: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    next_rid: u64,
    /// The run's trace sink, shared with [`RtShared`]: internally
    /// synchronized, so the token holder appends without this lock. The
    /// scheduler publishes its virtual clock into it on every tick.
    tb: Arc<TraceBuf>,
    outcome: Option<RunOutcome>,
    /// When the outcome was decided; the teardown deadline counts from it.
    outcome_at: Option<Instant>,
    /// The goroutine the scheduler granted the token to, for the host
    /// loop to resume.
    granted: Option<Gid>,
    shutdown: bool,
    /// The host thread has torn the run down (or never started).
    host_done: bool,
    yields_injected: u32,
    monitor: Option<Arc<dyn Monitor>>,
    /// Alive-goroutine snapshot taken at the moment the outcome was
    /// decided (before shutdown unwinding marks everything done).
    alive_snapshot: Option<Vec<AliveGoroutine>>,
    /// Forensics for the panic that decided the outcome (call site and,
    /// when enabled, a truncated backtrace); exported through
    /// [`RunResult::panic_detail`].
    panic_detail: Option<String>,
    /// Main returned; the scheduler is draining runnable goroutines
    /// before declaring the run complete.
    main_exited: bool,
    /// Every nondeterministic choice taken, for schedule-forcing replay.
    decision_log: Vec<Decision>,
    /// Cursor into the replay log when the policy is `Replay`.
    replay_cursor: usize,
    /// The replayed program diverged from its log.
    replay_diverged: bool,
    /// Per-run scheduler counters (plain increments under the run lock;
    /// exported through [`RunResult::sched`] and, when telemetry is
    /// enabled, the global registry at teardown).
    counters: SchedCounters,
    /// Wall-clock start of the run, for the watchdog.
    started: Instant,
    /// The driver's soft watchdog deadline passed; the next goroutine to
    /// reach the scheduler gate aborts the run cooperatively.
    timeout_requested: bool,
    /// Pluggable scheduling strategy (native / random / PCT); consulted
    /// at every pick and yield decision that is not replayed from a log.
    strategy: Box<dyn Strategy>,
}

impl Sched {
    fn new(cfg: Config, monitor: Option<Arc<dyn Monitor>>, tb: Arc<TraceBuf>) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // `UniformRandom` predates the strategy layer and still forces
        // the random strategy; native and replay runs use the configured
        // one (replay only consults it after divergence). Building
        // native/random consumes no RNG draws, preserving byte-identity
        // with the pre-strategy scheduler.
        let kind = match cfg.policy {
            SchedPolicy::UniformRandom => StrategyKind::Random,
            _ => cfg.strategy,
        };
        let strategy = kind.build(&mut rng);
        Sched {
            cfg,
            slots: Vec::new(),
            runq: VecDeque::new(),
            rng,
            clock: 0,
            steps: 0,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            next_rid: 0,
            tb,
            outcome: None,
            outcome_at: None,
            granted: None,
            shutdown: false,
            host_done: false,
            yields_injected: 0,
            monitor,
            alive_snapshot: None,
            panic_detail: None,
            main_exited: false,
            decision_log: Vec::new(),
            replay_cursor: 0,
            replay_diverged: false,
            counters: SchedCounters::default(),
            started: Instant::now(),
            timeout_requested: false,
            strategy,
        }
    }

    fn slot(&self, g: Gid) -> &GSlot {
        &self.slots[(g.0 - 1) as usize]
    }

    fn slot_mut(&mut self, g: Gid) -> &mut GSlot {
        &mut self.slots[(g.0 - 1) as usize]
    }

    /// Append an ECT event from scheduler context (timer fires,
    /// bootstrap, wakes). Gate functions holding the token append
    /// through [`RtShared::tb`] directly, without this lock.
    pub(crate) fn emit(&mut self, g: Gid, kind: EventKind, cu: Option<Cu>) {
        self.tb.push(g, kind, cu);
    }

    /// Allocate a fresh traced-resource id.
    pub(crate) fn alloc_rid(&mut self) -> RId {
        self.next_rid += 1;
        RId(self.next_rid)
    }

    /// Select-case choice: replayed from the log when the policy is
    /// `Replay`, pseudo-random otherwise; always recorded.
    pub(crate) fn choose(&mut self, n: usize) -> usize {
        assert!(n > 0);
        let replayed = if let SchedPolicy::Replay(log) = &self.cfg.policy {
            if !self.replay_diverged {
                match log.decisions.get(self.replay_cursor) {
                    Some(Decision::SelectChoice(i)) if *i < n => {
                        self.replay_cursor += 1;
                        Some(*i)
                    }
                    _ => {
                        self.replay_diverged = true;
                        None
                    }
                }
            } else {
                None
            }
        } else {
            None
        };
        let i = replayed.unwrap_or_else(|| self.rng.gen_range(0..n));
        self.counters.select_choices += 1;
        self.decision_log.push(Decision::SelectChoice(i));
        i
    }

    /// Yield-handler decision in front of the CU goroutine `g` is about
    /// to execute: replayed or delegated to the strategy (delay budget /
    /// native preemption noise / PCT change points); always recorded.
    pub(crate) fn decide_yield(&mut self, g: Gid) -> bool {
        let replayed = if let SchedPolicy::Replay(log) = &self.cfg.policy {
            if !self.replay_diverged {
                match log.decisions.get(self.replay_cursor) {
                    Some(Decision::YieldAt(b)) => {
                        self.replay_cursor += 1;
                        Some(*b)
                    }
                    _ => {
                        self.replay_diverged = true;
                        None
                    }
                }
            } else {
                None
            }
        } else {
            None
        };
        let yield_now = match replayed {
            Some(b) => b,
            None => {
                let ctx = YieldCtx {
                    delay_bound: self.cfg.delay_bound,
                    yields_injected: self.yields_injected,
                    yield_prob: self.cfg.yield_prob,
                    native_preempt_prob: self.cfg.native_preempt_prob,
                    runq_nonempty: !self.runq.is_empty(),
                };
                match self.strategy.decide_yield(g, &ctx, &mut self.rng) {
                    YieldChoice::Inject => {
                        self.yields_injected += 1;
                        true
                    }
                    YieldChoice::Preempt => true,
                    YieldChoice::Run => false,
                }
            }
        };
        self.decision_log.push(Decision::YieldAt(yield_now));
        yield_now
    }

    /// Borrow the attached monitor (no `Arc` refcount bump — callers on
    /// the scheduling hot path invoke it many times per step).
    pub(crate) fn monitor(&self) -> Option<&Arc<dyn Monitor>> {
        self.monitor.as_ref()
    }

    /// Create a goroutine slot in `Runnable` state and enqueue it.
    fn new_goroutine(&mut self, name: Istr, internal: bool) -> Gid {
        let gid = Gid(self.slots.len() as u64 + 1);
        self.slots.push(GSlot { gid, name, internal, state: GState::Runnable });
        self.runq.push_back(gid);
        // Strategy hook: PCT draws the goroutine's initial priority
        // here; native/random consume no RNG draws.
        self.strategy.on_spawn(gid, &mut self.rng);
        gid
    }

    /// Make a blocked goroutine runnable; `by` is the waker (whose op CU
    /// is attached to the `GoUnblock` event for coverage attribution).
    pub(crate) fn wake(&mut self, g: Gid, by: Gid, cu: Option<Cu>) {
        let slot = self.slot_mut(g);
        debug_assert!(matches!(slot.state, GState::Blocked(_)), "waking non-blocked goroutine {g}");
        slot.state = GState::Runnable;
        self.runq.push_back(g);
        self.counters.unblocks += 1;
        self.emit(by, EventKind::GoUnblock { g }, cu);
    }

    /// Register a timer; fires when the virtual clock reaches `deadline`.
    pub(crate) fn add_timer_wake(&mut self, after_ns: u64, g: Gid) -> RId {
        let id = self.alloc_rid();
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry {
            deadline: self.clock + after_ns,
            seq: self.timer_seq,
            id,
            action: TimerAction::Wake(g),
        }));
        id
    }

    /// Register a timer that fires an arbitrary target (e.g. an `after`
    /// channel delivery).
    pub(crate) fn add_timer_fire(&mut self, after_ns: u64, target: Arc<dyn TimerTarget>) -> RId {
        let id = self.alloc_rid();
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry {
            deadline: self.clock + after_ns,
            seq: self.timer_seq,
            id,
            action: TimerAction::Fire(target),
        }));
        id
    }

    fn fire_due_timers(&mut self) {
        loop {
            match self.timers.peek() {
                Some(Reverse(t)) if t.deadline <= self.clock => {}
                _ => return,
            }
            let Reverse(t) = self.timers.pop().expect("peeked");
            self.counters.timer_fires += 1;
            self.emit(Gid::RUNTIME, EventKind::TimerFire { timer: t.id }, None);
            match t.action {
                TimerAction::Wake(g) => {
                    // The goroutine may have been torn down already.
                    if matches!(self.slot(g).state, GState::Blocked(_)) {
                        self.wake(g, Gid::RUNTIME, None);
                    }
                }
                TimerAction::Fire(target) => target.fire(self),
            }
        }
    }

    /// One scheduler step: advance time, fire timers, enforce the
    /// watchdog. Returns false when the step limit aborts the run.
    pub(crate) fn tick(&mut self) -> bool {
        self.steps += 1;
        self.clock += self.cfg.time_step_ns;
        self.tb.set_clock(self.clock);
        if let Some(m) = &self.monitor {
            m.on_step(self.steps, self.clock);
        }
        // Synthetic GC cadence: the Go tracer interleaves GC events with
        // application events; emit a cycle every few thousand steps so
        // traces carry the GC/Mem category with realistic placement.
        if self.steps.is_multiple_of(4096) {
            self.emit(Gid::RUNTIME, EventKind::GcStart, None);
            self.emit(Gid::RUNTIME, EventKind::HeapAlloc { bytes: self.steps * 64 }, None);
            self.emit(Gid::RUNTIME, EventKind::GcDone, None);
        }
        self.fire_due_timers();
        if self.timeout_requested && self.outcome.is_none() {
            // Cooperative watchdog abort: the driver's soft deadline
            // passed and this goroutine reached the scheduler gate, so
            // the run can be unwound cleanly (its host reclaimed).
            let elapsed_ms = self.started.elapsed().as_millis() as u64;
            if let Some(m) = &self.monitor {
                m.on_timeout(TimeoutPhase::Cooperative, elapsed_ms);
            }
            self.set_outcome(RunOutcome::TimedOut { phase: TimeoutPhase::Cooperative, elapsed_ms });
            return false;
        }
        if self.steps > self.cfg.max_steps && self.outcome.is_none() {
            self.set_outcome(RunOutcome::StepLimit);
            return false;
        }
        true
    }

    /// Run-queue pop according to the scheduling policy; every pick is
    /// recorded for schedule-forcing replay.
    fn pick_next(&mut self) -> Option<Gid> {
        if self.runq.is_empty() {
            return None;
        }
        let replayed: Option<usize> = if let SchedPolicy::Replay(log) = &self.cfg.policy {
            if !self.replay_diverged {
                match log.decisions.get(self.replay_cursor) {
                    Some(Decision::Pick(g)) => match self.runq.iter().position(|x| x == g) {
                        Some(idx) => {
                            self.replay_cursor += 1;
                            Some(idx)
                        }
                        None => {
                            self.replay_diverged = true;
                            None
                        }
                    },
                    _ => {
                        self.replay_diverged = true;
                        None
                    }
                }
            } else {
                None
            }
        } else {
            None
        };
        let (idx, random) = match replayed {
            Some(i) => (i, false),
            None => self.strategy.pick(&self.runq, self.cfg.native_preempt_prob, &mut self.rng),
        };
        let g = self.runq.remove(idx);
        if let Some(g) = g {
            self.counters.picks += 1;
            if random {
                self.counters.random_picks += 1;
            }
            self.decision_log.push(Decision::Pick(g));
        }
        g
    }

    /// Hand the token to the next runnable goroutine, fast-forwarding
    /// virtual time over idle periods; declares global deadlock when
    /// nothing can ever run again.
    pub(crate) fn schedule_next(&mut self) {
        // Safety bound: with self-re-arming timers (tickers) and nothing
        // runnable, the fast-forward loop could spin forever; treat that
        // as a hang, like Go's runtime (which never declares deadlock
        // while timers are pending).
        let mut idle_iterations: u64 = 0;
        loop {
            if self.shutdown || self.outcome.is_some() {
                return;
            }
            idle_iterations += 1;
            if idle_iterations > 100_000 {
                self.set_outcome(RunOutcome::StepLimit);
                return;
            }
            self.fire_due_timers();
            if let Some(g) = self.pick_next() {
                self.slot_mut(g).state = GState::Running;
                self.granted = Some(g);
                return;
            }
            if self.main_exited {
                // Main returned and every still-runnable goroutine got a
                // grace drain: the program is over. Whatever is blocked
                // now is what goleak's end-of-main check would see.
                let alive: Vec<AliveGoroutine> =
                    self.alive_app().into_iter().filter(|a| !a.internal).collect();
                if let Some(m) = &self.monitor {
                    m.on_main_end(&alive);
                }
                self.set_outcome(RunOutcome::Completed);
                return;
            }
            if let Some(Reverse(t)) = self.timers.peek() {
                self.clock = t.deadline;
                self.tb.set_clock(self.clock);
                continue;
            }
            // Nothing runnable, no timers: the built-in detector's
            // "all goroutines are asleep" condition.
            let blocked: Vec<Gid> = self
                .slots
                .iter()
                .filter(|s| matches!(s.state, GState::Blocked(_)))
                .map(|s| s.gid)
                .collect();
            self.set_outcome(RunOutcome::GlobalDeadlock { blocked });
            return;
        }
    }

    /// Record the outcome (first writer wins) and snapshot which
    /// goroutines were still alive at that moment.
    pub(crate) fn set_outcome(&mut self, outcome: RunOutcome) {
        if self.outcome.is_none() {
            self.outcome = Some(outcome);
            self.outcome_at = Some(Instant::now());
            self.alive_snapshot = Some(self.alive_app());
        }
    }

    /// Stop scheduling and close the process in the trace. Whoever
    /// stops the run first (the host after the outcome, or the caller at
    /// the hard watchdog deadline) emits the one `ProcStop`.
    fn stop(&mut self) {
        if !self.shutdown {
            self.shutdown = true;
            self.emit(Gid::RUNTIME, EventKind::ProcStop, None);
        }
    }

    /// Application goroutines that have not finished.
    fn alive_app(&self) -> Vec<AliveGoroutine> {
        self.slots
            .iter()
            .filter(|s| s.state != GState::Done && s.gid != Gid::MAIN)
            .map(|s| AliveGoroutine {
                g: s.gid,
                name: s.name.to_string(),
                state: match &s.state {
                    GState::Runnable => "runnable".to_string(),
                    GState::Running => "running".to_string(),
                    GState::Blocked(r) => format!("blocked: {r}"),
                    GState::Done => unreachable!(),
                },
                internal: s.internal,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Shared runtime handle + thread-local context
// ---------------------------------------------------------------------

thread_local! {
    /// How many [`SchedGuard`]s this thread holds (debug builds): a
    /// coroutine switch asserts it holds none.
    static SCHED_GUARDS: Cell<u32> = const { Cell::new(0) };
}

/// The run lock around [`Sched`]. Its guards are counted per thread in
/// debug builds, so every coroutine switch can assert that it does not
/// carry the lock to the host (which would deadlock the run).
pub(crate) struct SchedLock(Mutex<Sched>);

/// A held [`SchedLock`].
pub(crate) struct SchedGuard<'a>(MutexGuard<'a, Sched>);

impl SchedLock {
    pub(crate) fn lock(&self) -> SchedGuard<'_> {
        let guard = SchedGuard(self.0.lock());
        if cfg!(debug_assertions) {
            SCHED_GUARDS.with(|n| n.set(n.get() + 1));
        }
        guard
    }
}

impl Drop for SchedGuard<'_> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            SCHED_GUARDS.with(|n| n.set(n.get() - 1));
        }
    }
}

impl std::ops::Deref for SchedGuard<'_> {
    type Target = Sched;
    fn deref(&self) -> &Sched {
        &self.0
    }
}

impl std::ops::DerefMut for SchedGuard<'_> {
    fn deref_mut(&mut self) -> &mut Sched {
        &mut self.0
    }
}

/// Shared state of one runtime instance.
pub(crate) struct RtShared {
    pub(crate) state: SchedLock,
    /// The run's trace sink. Internally synchronized and append-only;
    /// the token holder pushes its own events here **without** taking
    /// [`RtShared::state`]. Total order is preserved because exactly one
    /// goroutine holds the run token, and within any `Sched` critical
    /// section every emission happens before the token grant.
    pub(crate) tb: Arc<TraceBuf>,
    /// The attached monitor, reachable without the scheduler lock so
    /// gate functions can consult it on lock-free paths.
    pub(crate) monitor: Option<Arc<dyn Monitor>>,
    /// Signalled once, by the host thread, after it tore the run down.
    done_cv: Condvar,
}

/// The per-thread goroutine context.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub rt: Arc<RtShared>,
    pub gid: Gid,
}

thread_local! {
    /// The goroutine the host thread is running: set by the host loop
    /// before every resume.
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// This host thread's coroutines, indexed by gid − 1. A coroutine's
    /// entry is vacated while it runs.
    static COROS: RefCell<Vec<Option<Coroutine>>> = const { RefCell::new(Vec::new()) };
    /// The pseudo-location the running goroutine is pinned to, when it
    /// is part of the tool rather than of the program under test (see
    /// [`go_internal_at`]). A goroutine takes it along while suspended.
    static PINNED: Cell<Option<Istr>> = const { Cell::new(None) };
    /// The host is tearing the run down: a goroutine resumed now unwinds.
    static TEARDOWN: Cell<bool> = const { Cell::new(false) };
}

/// The current goroutine context.
///
/// # Panics
/// Panics when called outside a goroutine (primitives may only be used
/// inside [`Runtime::run`]).
pub(crate) fn current() -> Ctx {
    CURRENT.with(|c| {
        c.borrow().clone().expect(
            "GoAT runtime primitive used outside a goroutine; wrap the code in Runtime::run",
        )
    })
}

/// The id of the current goroutine.
pub fn gid() -> Gid {
    current().gid
}

// ---------------------------------------------------------------------
// Blocking / yielding entry points used by the primitives
// ---------------------------------------------------------------------

/// Block the current goroutine for `reason`; returns when rescheduled.
/// `holder` attributes lock contention (Req3 *blocking*) to the holder's
/// acquisition site.
pub(crate) fn block_current(
    ctx: &Ctx,
    reason: BlockReason,
    holder: Option<(Gid, Option<Cu>)>,
    cu: Option<Cu>,
) {
    // Out-of-lock append: this goroutine still holds the run token, so
    // nothing else can emit until `schedule_next` grants it away below.
    let (holder_g, holder_cu) = match holder {
        Some((g, c)) => (Some(g), c),
        None => (None, None),
    };
    ctx.rt.tb.push(ctx.gid, EventKind::GoBlock { reason, holder_cu, holder: holder_g }, cu);
    {
        let mut s = ctx.rt.state.lock();
        s.slot_mut(ctx.gid).state = GState::Blocked(reason);
        s.counters.blocks += 1;
        // A failed tick decided the outcome: nothing is granted, the host tears down.
        s.tick();
        s.schedule_next();
    }
    switch_to_host();
}

/// Yield the processor: requeue at the back of the run queue.
/// `preempt` distinguishes injected perturbation yields (`GoPreempt`)
/// from program-requested `gosched()` yields.
pub(crate) fn yield_current(ctx: &Ctx, preempt: bool, cu: Option<Cu>) {
    let kind =
        if preempt { EventKind::GoPreempt } else { EventKind::GoSched { trace_stop: false } };
    // Out-of-lock append: see `block_current`.
    ctx.rt.tb.push(ctx.gid, kind, cu);
    {
        let mut s = ctx.rt.state.lock();
        s.slot_mut(ctx.gid).state = GState::Runnable;
        s.runq.push_back(ctx.gid);
        if preempt {
            s.counters.yields_preempt += 1;
        } else {
            s.counters.yields_gosched += 1;
        }
        s.tick();
        s.schedule_next();
    }
    switch_to_host();
}

/// Common entry of every traced primitive: accounts a step, enforces the
/// watchdog and runs the injected yield handler (`goat.handler()` of
/// §III-B.2) in front of the CU.
pub(crate) fn op_enter(ctx: &Ctx, _kind: CuKind, cu: &Cu) {
    let do_yield = {
        let mut s = ctx.rt.state.lock();
        if !s.tick() {
            drop(s);
            shutdown_unwind();
        }
        s.decide_yield(ctx.gid)
    };
    if do_yield {
        yield_current(ctx, true, Some(*cu));
    }
}

/// Build a CU for a caller location, or for the running goroutine's
/// pseudo-location when it is pinned to one.
pub(crate) fn cu_here(kind: CuKind, loc: &std::panic::Location<'_>) -> Cu {
    match PINNED.get() {
        Some(site) => Cu::pseudo(site, kind),
        None => Cu::new(loc.file(), loc.line(), kind),
    }
}

// ---------------------------------------------------------------------
// Spawning
// ---------------------------------------------------------------------

type Body = Box<dyn FnOnce() + Send + 'static>;

/// Create goroutine `gid`'s coroutine on this host thread. Checking out
/// its stack can fail (the OS refuses the mapping, or the
/// `pool_checkout` faultpoint fires); the body is then dropped and the
/// harness failure surfaces as an infra-failure outcome, so the campaign
/// layer can retry the run.
fn spawn_goroutine(rt: &Arc<RtShared>, gid: Gid, body: Body) {
    let rt2 = Arc::clone(rt);
    match Coroutine::new(Box::new(move || goroutine_main(rt2, gid, body))) {
        Ok(co) => COROS.with(|c| {
            let mut coros = c.borrow_mut();
            let i = (gid.0 - 1) as usize;
            if coros.len() <= i {
                coros.resize_with(i + 1, || None);
            }
            coros[i] = Some(co);
        }),
        Err(reason) => rt.state.lock().set_outcome(RunOutcome::InfraFailure { reason }),
    }
}

/// Decode a caught panic payload into (message, forensics detail).
///
/// Go-level panics carry their own call site (deterministic); genuine
/// Rust panics read the location + backtrace the hook left in the
/// thread-local on this same thread.
fn panic_forensics(payload: Box<dyn std::any::Any + Send>) -> (String, Option<String>) {
    if let Some(gp) = payload.downcast_ref::<GoPanic>() {
        let detail = format!("go panic at {}", gp.site.location());
        (gp.msg.clone(), Some(detail))
    } else {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic".to_string()
        };
        let detail = LAST_PANIC_DETAIL.with(|d| d.borrow_mut().take());
        (msg, detail)
    }
}

/// A goroutine's whole life, run on its coroutine. The first resume is
/// the first grant of the token.
fn goroutine_main(rt: Arc<RtShared>, gid: Gid, body: Body) {
    // The granter emitted its last event before the grant, so this
    // lock-free append lands in total order.
    rt.tb.push(gid, EventKind::GoStart, None);
    let ended = panic::catch_unwind(AssertUnwindSafe(body));
    // A pinned site ends with its goroutine.
    PINNED.set(None);
    match ended {
        Ok(()) if gid == Gid::MAIN => {
            // Successful main exit: the trace-stopping yield of §III-E.1,
            // then a grace drain of runnable goroutines (schedule_next
            // declares completion and runs the goleak observation point
            // once the queue is empty).
            rt.tb.push(gid, EventKind::GoSched { trace_stop: true }, None);
            let mut s = rt.state.lock();
            s.slot_mut(gid).state = GState::Done;
            s.main_exited = true;
            s.schedule_next();
        }
        Ok(()) => {
            rt.tb.push(gid, EventKind::GoEnd, None);
            let mut s = rt.state.lock();
            s.slot_mut(gid).state = GState::Done;
            s.tick();
            s.schedule_next();
        }
        Err(payload) if payload.is::<ShutdownSignal>() => {
            rt.state.lock().slot_mut(gid).state = GState::Done;
        }
        Err(payload) => {
            let (msg, detail) = panic_forensics(payload);
            rt.tb.push(gid, EventKind::GoStop, None);
            let mut s = rt.state.lock();
            s.slot_mut(gid).state = GState::Done;
            if s.outcome.is_none() {
                s.panic_detail = detail;
            }
            s.set_outcome(RunOutcome::Panicked { g: gid, msg });
        }
    }
    debug_assert_eq!(SCHED_GUARDS.with(Cell::get), 0, "a goroutine ended holding the Sched lock");
}

/// Spawn a goroutine executing `f` (Go's `go` statement).
///
/// Must be called from inside a goroutine. The creation site becomes the
/// child's creation CU in the trace and the goroutine tree.
#[track_caller]
pub fn go<F: FnOnce() + Send + 'static>(f: F) -> Gid {
    go_impl("anonymous", None, Box::new(f), cu_here(CuKind::Go, std::panic::Location::caller()))
}

/// Spawn a named goroutine (names appear in reports and trees).
#[track_caller]
pub fn go_named<F: FnOnce() + Send + 'static>(name: &str, f: F) -> Gid {
    go_impl(name, None, Box::new(f), cu_here(CuKind::Go, std::panic::Location::caller()))
}

/// Spawn a runtime-internal goroutine pinned to the pseudo-location
/// named after it; see [`go_internal_at`].
pub fn go_internal<F: FnOnce() + Send + 'static>(name: &str, f: F) -> Gid {
    go_internal_at(name, name, f)
}

/// Spawn a runtime-internal goroutine, excluded from application-level
/// analysis (the paper's watchdog/tracer goroutines). It is part of the
/// tool, not of the program under test, so its creation and every
/// operation it performs are attributed to the fixed pseudo-location
/// `site` (see [`Cu::pseudo`]) instead of the tool's own source lines.
pub fn go_internal_at<F: FnOnce() + Send + 'static>(name: &str, site: &str, f: F) -> Gid {
    let site = Istr::new(site);
    go_impl(name, Some(site), Box::new(f), Cu::pseudo(site, CuKind::Go))
}

/// Spawn goroutine `name` created at `cu`; `pinned` marks an internal
/// goroutine and the pseudo-location all its operations report.
fn go_impl(name: &str, pinned: Option<Istr>, body: Body, cu: Cu) -> Gid {
    let internal = pinned.is_some();
    let ctx = current();
    if !internal {
        // GoAT's own helper goroutines are not perturbation targets.
        op_enter(&ctx, CuKind::Go, &cu);
    }
    let name = Istr::new(name);
    let gid = {
        let mut s = ctx.rt.state.lock();
        s.new_goroutine(name, internal)
    };
    // The child is runnable but cannot be granted the token until this
    // goroutine reaches a scheduler gate, so the creation event lands
    // before any child event.
    ctx.rt.tb.push(ctx.gid, EventKind::GoCreate { new_g: gid, name, internal }, Some(cu));
    let body: Body = match pinned {
        Some(site) => Box::new(move || {
            PINNED.set(Some(site));
            body()
        }),
        None => body,
    };
    spawn_goroutine(&ctx.rt, gid, body);
    gid
}

/// Yield the processor (Go's `runtime.Gosched()`).
#[track_caller]
pub fn gosched() {
    let ctx = current();
    yield_current(&ctx, false, None);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// The GoAT runtime: executes a program under a configuration and
/// returns its outcome, trace and statistics.
#[derive(Debug, Clone, Copy)]
pub struct Runtime;

impl Runtime {
    /// Run `f` as the main goroutine.
    ///
    /// The run is hosted on a thread of the shared run-host pool while
    /// the calling thread waits, enforcing [`Config::iter_timeout_ms`]
    /// and the teardown deadline: a goroutine stuck outside every
    /// runtime primitive wedges only its host, which is then abandoned.
    /// [`Runtime::run_here`] is the cheaper entry for runs without a
    /// watchdog.
    ///
    /// ```
    /// use goat_runtime::{Runtime, Config, go, Chan};
    /// let result = Runtime::run(Config::new(1), || {
    ///     let ch = Chan::new(0);
    ///     go(move || ch.send(41));
    ///     // `ch` was moved into the goroutine; in real programs clone
    ///     // the handle first (see Chan docs).
    /// });
    /// assert!(result.outcome.is_completed());
    /// ```
    pub fn run<F: FnOnce() + Send + 'static>(cfg: Config, f: F) -> RunResult {
        Self::run_monitored(cfg, None, f)
    }

    /// Run `f` with a [`Monitor`] observing primitive operations (how the
    /// baseline detectors of §IV-A attach), hosted on the pool as in
    /// [`Runtime::run`].
    pub fn run_monitored<F: FnOnce() + Send + 'static>(
        cfg: Config,
        monitor: Option<Arc<dyn Monitor>>,
        f: F,
    ) -> RunResult {
        let iter_timeout_ms = cfg.iter_timeout_ms;
        let (rt, body) = prepare(cfg, monitor, f);
        let host_rt = Arc::clone(&rt);
        let host = Box::new(move || {
            let _done = HostDone(&host_rt);
            host_main(&host_rt, body);
        });
        if let Err(reason) = crate::pool::global().execute(host) {
            // No host ever ran: the harness, not the program, failed.
            let mut s = rt.state.lock();
            s.set_outcome(RunOutcome::InfraFailure { reason });
            s.stop();
            s.host_done = true;
        }
        if await_host(&rt, iter_timeout_ms, teardown_timeout) {
            // The host is wedged in a goroutine stuck outside runtime
            // primitives: write it off and replace it.
            crate::pool::note_abandoned();
        }
        collect(&rt)
    }

    /// Run `f` as the main goroutine with the calling thread as the
    /// run's host: no pool checkout and no cross-thread wakeup, and the
    /// same result as [`Runtime::run`].
    ///
    /// Nothing can abandon a host that is the caller itself, so this
    /// delegates to [`Runtime::run`] when [`Config::iter_timeout_ms`] is
    /// set, and when the calling thread is already hosting a run
    /// (coroutines do not nest). Without a watchdog, a goroutine stuck
    /// outside every runtime primitive — also one that swallows the
    /// teardown unwind and then blocks — hangs the calling thread. A
    /// panic of the host loop itself ends the run as
    /// [`RunOutcome::InfraFailure`] and leaves the thread fit for its
    /// next run.
    pub fn run_here<F: FnOnce() + Send + 'static>(cfg: Config, f: F) -> RunResult {
        if cfg.iter_timeout_ms.is_some() || CURRENT.with(|c| c.borrow().is_some()) {
            return Self::run(cfg, f);
        }
        let (rt, body) = prepare(cfg, None, f);
        if panic::catch_unwind(AssertUnwindSafe(|| host_main(&rt, body))).is_err() {
            // Unwind what the broken host left suspended (best effort)
            // and leave this thread as clean as a fresh host.
            let _ = panic::catch_unwind(teardown);
            COROS.with(|c| c.borrow_mut().clear());
            TEARDOWN.with(|t| t.set(false));
            CURRENT.with(|c| *c.borrow_mut() = None);
            host_panicked(&rt);
        }
        collect(&rt)
    }
}

/// Set up a run: its scheduler with the main goroutine created (the host
/// grants it the token) and the body main will run.
fn prepare<F: FnOnce() + Send + 'static>(
    cfg: Config,
    monitor: Option<Arc<dyn Monitor>>,
    f: F,
) -> (Arc<RtShared>, Body) {
    install_panic_hook();
    let seed = cfg.seed;
    let tb = Arc::new(TraceBuf::new(cfg.trace, cfg.max_trace_events));
    let rt = Arc::new(RtShared {
        state: SchedLock(Mutex::new(Sched::new(cfg, monitor.clone(), Arc::clone(&tb)))),
        tb,
        monitor,
        done_cv: Condvar::new(),
    });
    {
        let mut s = rt.state.lock();
        s.emit(Gid::RUNTIME, EventKind::Gomaxprocs { n: 1 }, None);
        s.emit(Gid::RUNTIME, EventKind::ProcStart, None);
        let gid = s.new_goroutine(Istr::new("main"), false);
        debug_assert_eq!(gid, Gid::MAIN);
    }
    // Seed-keyed `iter` faults replace the program body wholesale,
    // exercising each watchdog escalation path deterministically.
    let body: Body = match faultpoint::seed_fault("iter", seed) {
        // Stall outside every runtime primitive: no scheduler gate is
        // ever reached, so only the hard watchdog deadline (and the
        // teardown abandonment path) can reclaim this run.
        Some(SeedFault::Wedge) => Box::new(|| std::thread::sleep(Duration::from_secs(3600))),
        // Yield forever: every gosched passes the scheduler gate, so
        // the soft deadline aborts cooperatively (or the step limit
        // fires first when no watchdog is configured).
        Some(SeedFault::Spin) => Box::new(|| loop {
            gosched();
        }),
        // The crash forensics name the fault, not a line of the tool.
        Some(SeedFault::Panic) => Box::new(|| {
            let site = Cu::pseudo(Istr::new("goat:fault(iter:panic)"), CuKind::Go);
            gopanic("injected fault: iter:panic", site)
        }),
        None => Box::new(f),
    };
    (rt, body)
}

/// Collect a finished (or abandoned) run's result. Closing the trace
/// buffer drops any straggler append from an abandoned host; the
/// collected event vector moves into the ECT wholesale (no per-event
/// re-push) and the campaign merge loop recycles it.
fn collect(rt: &RtShared) -> RunResult {
    let (trace, fingerprint) = rt.tb.take();
    let mut s = rt.state.lock();
    let outcome = s.outcome.clone().expect("outcome set before teardown");
    let ect = trace.map(Ect::from_events);
    let alive_at_end: Vec<AliveGoroutine> =
        s.alive_snapshot.take().unwrap_or_default().into_iter().filter(|a| !a.internal).collect();
    let schedule = ReplayLog { decisions: std::mem::take(&mut s.decision_log) };
    let panic_detail = s.panic_detail.take();
    let result = RunResult {
        outcome,
        panic_detail,
        ect,
        fingerprint,
        steps: s.steps,
        vclock: VTime(s.clock),
        goroutines: s.slots.iter().filter(|g| !g.internal).count() as u64,
        yields_injected: s.yields_injected,
        priority_changes: s.strategy.priority_changes(),
        alive_at_end,
        schedule,
        replay_diverged: s.replay_diverged,
        sched: s.counters,
    };
    let seed = s.cfg.seed;
    drop(s);
    if goat_metrics::enabled() {
        report_run_telemetry(seed, &result);
    }
    result
}

/// Wait for the pooled host to tear the run down. With a wall-clock
/// watchdog configured the wait escalates twice: at the soft deadline it
/// requests a cooperative abort through the scheduler gate, and at the
/// hard deadline (soft + grace) it decides the outcome itself — the only
/// way out when the running goroutine is stuck outside runtime
/// primitives. Once the outcome is decided, the host gets the `teardown`
/// deadline to finish (asked for only then, so a run whose host is done
/// in time never reads it). Returns true when that deadline passed and
/// the host was abandoned; the run is then stopped here, so its trace
/// ends in `ProcStop` however late the host would have stopped it.
fn await_host(
    rt: &RtShared,
    iter_timeout_ms: Option<u64>,
    teardown: impl Fn() -> Duration,
) -> bool {
    let mut s = rt.state.lock();
    let started = s.started;
    let watchdog = iter_timeout_ms.map(|ms| {
        let soft = started + Duration::from_millis(ms);
        (soft, soft + Duration::from_millis((ms / 4).clamp(10, 1_000)))
    });
    while !s.host_done {
        let now = Instant::now();
        let wake = if let Some(at) = s.outcome_at {
            let deadline = at + teardown();
            if now >= deadline {
                s.stop();
                return true;
            }
            deadline
        } else if let Some((soft, hard)) = watchdog {
            if now >= hard {
                let elapsed_ms = started.elapsed().as_millis() as u64;
                if let Some(m) = s.monitor() {
                    m.on_timeout(TimeoutPhase::Wedged, elapsed_ms);
                }
                s.set_outcome(RunOutcome::TimedOut { phase: TimeoutPhase::Wedged, elapsed_ms });
                s.stop();
                continue;
            }
            if now >= soft {
                s.timeout_requested = true;
                hard
            } else {
                soft
            }
        } else {
            // No watchdog: the host signals only after teardown, so poll
            // to start the teardown clock once the outcome is decided.
            now + OUTCOME_POLL
        };
        rt.done_cv.wait_for(&mut s.0, wake - now);
    }
    false
}

/// How often a caller without a watchdog checks whether its pooled run's
/// outcome is decided, which starts the teardown deadline.
const OUTCOME_POLL: Duration = Duration::from_millis(50);

/// How long a pooled run's host may take to tear down once the outcome
/// is decided before the caller abandons it (`GOAT_TEARDOWN_TIMEOUT_MS`,
/// default 5 s; read once per process, by the first run that waits on
/// it).
fn teardown_timeout() -> Duration {
    static TEARDOWN_TIMEOUT: OnceLock<Duration> = OnceLock::new();
    *TEARDOWN_TIMEOUT.get_or_init(|| {
        Duration::from_millis(
            std::env::var("GOAT_TEARDOWN_TIMEOUT_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(5_000),
        )
    })
}

/// The run's host loop, on its host thread: resume whichever goroutine
/// the scheduler granted until the outcome is decided, then stop the
/// run and tear it down.
fn host_main(rt: &Arc<RtShared>, main_body: Body) {
    debug_assert!(COROS.with(|c| c.borrow().is_empty()), "host thread reused mid-run");
    CURRENT.with(|c| *c.borrow_mut() = Some(Ctx { rt: Arc::clone(rt), gid: Gid::MAIN }));
    spawn_goroutine(rt, Gid::MAIN, main_body);
    rt.state.lock().schedule_next();
    loop {
        let g = {
            let mut s = rt.state.lock();
            if s.outcome.is_some() {
                s.stop();
                break;
            }
            s.granted.take().expect("a goroutine reaches the host only after a grant or an outcome")
        };
        resume(g);
    }
    teardown();
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// The host loop itself panicked (a broken runtime invariant: goroutines
/// catch their own panics). Unless the run already had its outcome, it
/// ends as an infra failure, which the campaign layer retries, rather
/// than as a panic of the thread that waits for it.
fn host_panicked(rt: &RtShared) {
    let mut s = rt.state.lock();
    s.set_outcome(RunOutcome::InfraFailure { reason: "run host panicked".to_string() });
    s.stop();
}

/// Signals the waiting caller once the pooled host is done with its run
/// — also if the host loop itself panicked, so the caller gets an
/// infra failure instead of waiting forever.
struct HostDone<'a>(&'a RtShared);

impl Drop for HostDone<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            host_panicked(self.0);
        }
        self.0.state.lock().host_done = true;
        self.0.done_cv.notify_one();
    }
}

/// Switch from the running goroutine to the host loop; returns when the
/// host resumes it with the token, and unwinds it when the host resumes
/// it to tear the run down.
fn switch_to_host() {
    debug_assert_eq!(
        SCHED_GUARDS.with(Cell::get),
        0,
        "a goroutine switched to the host while holding the Sched lock"
    );
    // The goroutines resumed meanwhile must not report this one's site.
    let pinned = PINNED.take();
    coro::suspend();
    PINNED.set(pinned);
    if TEARDOWN.with(Cell::get) {
        shutdown_unwind();
    }
}

/// Run goroutine `g`'s coroutine until it switches back to the host.
fn resume(g: Gid) {
    let i = (g.0 - 1) as usize;
    let mut co =
        COROS.with(|c| c.borrow_mut()[i].take()).expect("granted goroutine has a coroutine");
    CURRENT.with(|c| c.borrow_mut().as_mut().expect("host context").gid = g);
    if !co.resume() {
        COROS.with(|c| c.borrow_mut()[i] = Some(co));
    }
}

/// Unwind every goroutine still suspended mid-body through
/// [`shutdown_unwind`], so each drops what it captured, and drop the
/// bodies of those that never ran. A goroutine that swallows the unwind
/// and blocks again is resumed (and unwound) again.
fn teardown() {
    TEARDOWN.with(|t| t.set(true));
    loop {
        let coros = COROS.with(|c| std::mem::take(&mut *c.borrow_mut()));
        if coros.is_empty() {
            break;
        }
        for (i, co) in coros.into_iter().enumerate() {
            let Some(mut co) = co else { continue };
            if co.started() {
                CURRENT.with(|c| {
                    c.borrow_mut().as_mut().expect("host context").gid = Gid(i as u64 + 1)
                });
                while !co.resume() {}
            }
        }
    }
    TEARDOWN.with(|t| t.set(false));
}

/// Per-run scheduler summary exported to the JSONL telemetry stream.
#[derive(serde::Serialize)]
struct SchedulerEvent {
    kind: &'static str,
    seed: u64,
    outcome: String,
    steps: u64,
    vclock_ns: u64,
    goroutines: u64,
    yields_injected: u32,
    picks: u64,
    random_picks: u64,
    blocks: u64,
    unblocks: u64,
    yields_preempt: u64,
    yields_gosched: u64,
    timer_fires: u64,
    select_choices: u64,
}

/// Per-run worker-pool snapshot exported to the JSONL telemetry stream.
#[derive(serde::Serialize)]
struct PoolEvent {
    kind: &'static str,
    threads_spawned: u64,
    jobs_reused: u64,
    idle_now: usize,
    workers_retired: u64,
    abandoned: u64,
    workers_replaced: u64,
}

/// Report one finished run into the global registry and the JSONL sink.
/// Off the hot path: called once per run teardown, and only when
/// [`goat_metrics::enabled`].
#[cold]
fn report_run_telemetry(seed: u64, r: &RunResult) {
    let label = goat_metrics::context();
    let reg = goat_metrics::global();
    reg.counter_with("runtime.runs", label.as_deref()).inc();
    reg.counter_with("sched.picks", label.as_deref()).add(r.sched.picks);
    reg.counter_with("sched.random_picks", label.as_deref()).add(r.sched.random_picks);
    reg.counter_with("sched.blocks", label.as_deref()).add(r.sched.blocks);
    reg.counter_with("sched.unblocks", label.as_deref()).add(r.sched.unblocks);
    reg.counter_with("sched.yields_injected", label.as_deref()).add(r.yields_injected as u64);
    match &r.outcome {
        RunOutcome::TimedOut { .. } => {
            reg.counter_with("supervision.timeouts", label.as_deref()).inc()
        }
        RunOutcome::InfraFailure { .. } => {
            reg.counter_with("supervision.infra_failures", label.as_deref()).inc()
        }
        _ => {}
    }
    reg.histogram("run.steps").record(r.steps);
    goat_metrics::emit(&SchedulerEvent {
        kind: "scheduler",
        seed,
        outcome: r.outcome.to_string(),
        steps: r.steps,
        vclock_ns: r.vclock.0,
        goroutines: r.goroutines,
        yields_injected: r.yields_injected,
        picks: r.sched.picks,
        random_picks: r.sched.random_picks,
        blocks: r.sched.blocks,
        unblocks: r.sched.unblocks,
        yields_preempt: r.sched.yields_preempt,
        yields_gosched: r.sched.yields_gosched,
        timer_fires: r.sched.timer_fires,
        select_choices: r.sched.select_choices,
    });
    let p = crate::pool::stats();
    goat_metrics::emit(&PoolEvent {
        kind: "pool",
        threads_spawned: p.threads_spawned,
        jobs_reused: p.jobs_reused,
        idle_now: p.idle_now,
        workers_retired: p.workers_retired,
        abandoned: p.abandoned,
        workers_replaced: p.workers_replaced,
    });
    goat_metrics::flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_main_completes() {
        let r = Runtime::run(Config::new(0), || {});
        assert!(r.outcome.is_completed());
        assert!(r.clean());
        assert_eq!(r.goroutines, 1);
        let ect = r.ect.expect("traced");
        assert!(ect.well_formed().is_ok(), "{:?}", ect.well_formed());
        // main's final event is the trace-stopping GoSched
        let last = ect.last_event_of(Gid::MAIN).expect("main events");
        assert_eq!(last.kind, EventKind::GoSched { trace_stop: true });
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            Runtime::run(Config::new(seed), || {
                for _ in 0..3 {
                    gosched();
                }
            })
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.ect.unwrap().render(), b.ect.unwrap().render());
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn spawned_goroutine_runs_and_ends() {
        let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
            go_named("child", || {});
            // give the child a chance to run (cooperative scheduling)
            gosched();
        });
        assert!(r.outcome.is_completed());
        assert!(r.clean());
        let ect = r.ect.unwrap();
        assert!(ect.well_formed().is_ok());
        let child = ect
            .goroutines()
            .iter()
            .copied()
            .find(|g| *g != Gid::MAIN && *g != Gid::RUNTIME)
            .expect("child in trace");
        assert_eq!(ect.last_event_of(child).unwrap().kind, EventKind::GoEnd);
    }

    #[test]
    fn runnable_children_drain_after_main_exits() {
        let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
            go_named("late-finisher", || {});
            // main returns immediately; the grace drain still lets the
            // runnable child run to completion (as Go's real scheduler
            // would have, racing main's exit).
        });
        assert!(r.outcome.is_completed());
        assert!(r.clean(), "{:?}", r.alive_at_end);
    }

    #[test]
    fn blocked_child_is_reported_alive() {
        let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
            let (never_tx, never_rx) = {
                let ch = crate::chan::Chan::<u8>::new(0);
                (ch.clone(), ch)
            };
            go_named("leaker", move || {
                never_rx.recv(); // blocks forever
            });
            gosched();
            drop(never_tx);
        });
        assert!(r.outcome.is_completed());
        assert_eq!(r.alive_at_end.len(), 1);
        assert_eq!(r.alive_at_end[0].name, "leaker");
        assert!(r.alive_at_end[0].state.contains("recv"), "{:?}", r.alive_at_end);
        assert!(!r.clean());
    }

    #[test]
    fn user_panic_becomes_panicked_outcome() {
        let r = Runtime::run(Config::new(0), || {
            gopanic("boom", Cu::new(file!(), line!(), CuKind::Go));
        });
        match r.outcome {
            RunOutcome::Panicked { g, ref msg } => {
                assert_eq!(g, Gid::MAIN);
                assert_eq!(msg, "boom");
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn panic_in_child_crashes_program() {
        let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
            go(|| gopanic("child-crash", Cu::new(file!(), line!(), CuKind::Go)));
            gosched();
            gosched();
        });
        assert!(matches!(r.outcome, RunOutcome::Panicked { .. }));
    }

    #[test]
    fn step_limit_catches_infinite_yield_loop() {
        let r = Runtime::run(Config::new(0).with_max_steps(500), || loop {
            gosched();
        });
        assert_eq!(r.outcome, RunOutcome::StepLimit);
    }

    #[test]
    fn yields_injected_respect_bound() {
        for d in [0u32, 1, 2, 4] {
            // Budgeted yield injection is native-strategy behaviour.
            let cfg = Config::new(3)
                .with_delay_bound(d)
                .with_yield_prob(1.0)
                .with_strategy(StrategyKind::Native);
            let r = Runtime::run(cfg, || {
                for _ in 0..10 {
                    go(|| {});
                }
                gosched();
            });
            assert!(r.yields_injected <= d, "injected {} > bound {d}", r.yields_injected);
            if d > 0 {
                assert!(r.yields_injected > 0, "bound {d} should inject at least one yield");
            }
        }
    }

    #[test]
    fn trace_disabled_produces_no_ect() {
        let r = Runtime::run(Config::new(0).with_trace(false), || {});
        assert!(r.ect.is_none());
        assert!(r.outcome.is_completed());
    }

    #[test]
    fn replay_reproduces_the_exact_interleaving() {
        use crate::chan::Chan;
        let program = || {
            let ch: Chan<u32> = Chan::new(0);
            let tx = ch.clone();
            go_named("tx", move || tx.send(1));
            let ch2: Chan<u32> = Chan::new(0);
            let tx2 = ch2.clone();
            go_named("tx2", move || tx2.send(2));
            ch.recv();
            ch2.recv();
        };
        let original = Runtime::run(Config::new(11).with_delay_bound(2), program);
        assert!(original.clean());
        let log = original.schedule.clone();
        assert!(!log.is_empty());
        // Replay with a DIFFERENT seed: the log, not the RNG, must drive.
        let replayed =
            Runtime::run(Config::new(999_999).with_delay_bound(2).with_replay(log), program);
        assert!(!replayed.replay_diverged, "same program must follow its log");
        assert_eq!(
            original.ect.unwrap().render(),
            replayed.ect.unwrap().render(),
            "replay must reproduce the exact trace"
        );
    }

    #[test]
    fn replay_divergence_is_detected_and_survivable() {
        let log = Runtime::run(Config::new(1), || {
            go_named("a", || {});
            gosched();
        })
        .schedule;
        // Replay the log against a different program.
        let r = Runtime::run(Config::new(1).with_replay(log), || {
            go_named("a", || {});
            go_named("b", || {});
            gosched();
            gosched();
            gosched();
        });
        assert!(r.replay_diverged);
        assert!(r.outcome.is_completed(), "divergence falls back to native scheduling");
    }

    #[test]
    fn uniform_random_policy_explores_more() {
        use crate::config::SchedPolicy;
        let fingerprints: std::collections::BTreeSet<String> = (0..10u64)
            .map(|seed| {
                let r =
                    Runtime::run(Config::new(seed).with_policy(SchedPolicy::UniformRandom), || {
                        for _ in 0..4 {
                            go_named("w", || gosched());
                        }
                        gosched();
                        gosched();
                    });
                assert!(r.outcome.is_completed());
                r.ect.unwrap().render()
            })
            .collect();
        assert!(fingerprints.len() > 1, "random policy must vary schedules");
    }

    #[test]
    fn decision_log_is_recorded_on_every_run() {
        let r = Runtime::run(Config::new(0), || {
            go_named("w", || {});
            gosched();
        });
        // At least: pick(main), yield decisions for go/gosched, pick(w)…
        assert!(r.schedule.len() >= 3, "{:?}", r.schedule);
        assert!(!r.replay_diverged);
    }

    #[test]
    fn goroutine_tree_from_runtime_trace() {
        let r = Runtime::run(Config::new(2).with_native_preempt_prob(0.0), || {
            go_named("worker", || {
                go_named("nested", || {});
                gosched();
            });
            gosched();
            gosched();
            gosched();
        });
        let ect = r.ect.unwrap();
        let tree = goat_trace::GTree::from_ect(&ect);
        let worker = tree.nodes().find(|n| n.name == "worker").expect("worker node");
        assert_eq!(worker.parent, Some(Gid::MAIN));
        let nested = tree.nodes().find(|n| n.name == "nested").expect("nested");
        assert_eq!(nested.parent, Some(worker.g));
    }

    /// A panic of the host loop itself (here: main switches to the host
    /// without a grant or an outcome, which breaks the loop's invariant)
    /// ends the run as an infra failure on either entry, and on the
    /// inline one the calling thread hosts its next run normally.
    #[test]
    fn host_loop_panic_is_an_infra_failure() {
        let cfg = || Config::new(0).with_iter_timeout_ms(None);
        for r in [Runtime::run_here(cfg(), switch_to_host), Runtime::run(cfg(), switch_to_host)] {
            match &r.outcome {
                RunOutcome::InfraFailure { reason } => assert_eq!(reason, "run host panicked"),
                other => panic!("expected an infra failure, got {other:?}"),
            }
            let events = r.ect.expect("traced");
            assert_eq!(events.events().last().map(|e| &e.kind), Some(&EventKind::ProcStop));
        }
        assert!(CURRENT.with(|c| c.borrow().is_none()) && COROS.with(|c| c.borrow().is_empty()));
        let next = Runtime::run_here(cfg(), || {
            go_named("child", || {});
            gosched();
        });
        assert!(next.outcome.is_completed() && next.clean(), "{:?}", next.outcome);
    }

    /// A host descheduled between deciding the outcome and stopping the
    /// run is abandoned at the teardown deadline, and the trace the
    /// caller takes still ends in exactly one `ProcStop`. A zero deadline
    /// returns without spinning on the run lock.
    #[test]
    fn abandoned_host_still_ends_the_trace_in_proc_stop() {
        for teardown_ms in [0, 1] {
            let cfg = Config::new(0);
            let tb = Arc::new(TraceBuf::new(true, cfg.max_trace_events));
            let rt = Arc::new(RtShared {
                state: SchedLock(Mutex::new(Sched::new(cfg, None, Arc::clone(&tb)))),
                tb,
                monitor: None,
                done_cv: Condvar::new(),
            });
            rt.state.lock().emit(Gid::RUNTIME, EventKind::ProcStart, None);
            let (release, stalled) = std::sync::mpsc::channel::<()>();
            let host_rt = Arc::clone(&rt);
            let host = std::thread::spawn(move || {
                host_rt.state.lock().set_outcome(RunOutcome::Completed);
                // Stalled until the caller has given up on this host.
                stalled.recv().expect("caller releases the host");
                let _done = HostDone(&host_rt);
                host_rt.state.lock().stop();
            });
            let abandoned = await_host(&rt, None, || Duration::from_millis(teardown_ms));
            let (trace, _) = rt.tb.take();
            release.send(()).expect("host waits for release");
            host.join().expect("host thread");
            assert!(abandoned, "teardown {teardown_ms} ms: a stalled host must be abandoned");
            let events = trace.expect("traced");
            assert_eq!(events.last().map(|e| &e.kind), Some(&EventKind::ProcStop));
            assert_eq!(events.iter().filter(|e| e.kind == EventKind::ProcStop).count(), 1);
        }
    }
}
