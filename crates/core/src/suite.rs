//! The campaign executor, and suite-scale orchestration on top of it:
//! one global work-stealing iteration queue over every selected kernel.
//!
//! A lone campaign ([`Goat::test`], `goat -target K`) and the paper's
//! whole-benchmark evaluation ([`run_suite`], `-eval_conf … -freq`) do
//! the same work: run seed-indexed iterations and merge them in
//! iteration order. Both run on the one executor in this module; a lone
//! campaign is a suite of one kernel with
//! `jobs = `[`GoatConfig::parallelism`].
//!
//! * **Global work stealing** — every kernel becomes a claimable
//!   *iteration stream* (`next`/`merged`/`cutoff` plus a claim window)
//!   and `jobs` long-lived workers claim batches from whichever stream
//!   has work, preferring the stream they last ran (affinity) and
//!   stealing across kernels otherwise. One kernel's saturation tail
//!   no longer serializes the suite. The calling thread is one of the
//!   workers and also coordinates (emits results, opens the barrier),
//!   so a one-worker campaign spawns no thread at all.
//! * **Determinism** — per-kernel results are byte-identical at any
//!   `jobs` value: every iteration's seed is fixed up front
//!   (`seed0 + i`), merging is the only stateful step and each kernel's
//!   merges happen in strict iteration order behind a per-kernel
//!   reorder buffer. Cross-kernel interleaving touches no per-kernel
//!   state. Guided campaigns keep the claim window capped at the
//!   bandit's feedback lag, so the rewards an arm selection reads are
//!   always merged before its iteration can be claimed. Results reach
//!   the `emit` callback through a *kernel-granularity* reorder buffer:
//!   it always fires in kernel order.
//! * **Adaptive budget reallocation** (`GOAT_SUITE_REALLOC`) — kernels
//!   that stop early (bug with `stop_on_bug`, or coverage saturation)
//!   release their unspent base budget into a pool. Once *every* kernel
//!   has completed its base budget (a deterministic barrier), the pool
//!   is split evenly — remainder to the earliest kernel indices, capped
//!   at one extra base budget per kernel — across the still-exploring
//!   kernels (full budget spent, nothing detected), whose streams then
//!   re-open for the extension. Grants depend only on the per-kernel
//!   base-phase results and the kernel order, both deterministic, so
//!   reallocated suites are also byte-identical across `jobs`. A
//!   recipient's extended campaign equals a standalone campaign that
//!   had `base + grant` iterations from the start.
//! * **Warm shared resources** — each worker hosts its runs itself
//!   (with a watchdog they go to the process-wide run-host pool, which
//!   is then prewarmed), and the trace-buffer pool is process-wide and
//!   stays warm by nature;
//!   the executor additionally recycles the per-campaign analysis
//!   scratch ([`EctBuffers`]) from finished kernels into later ones
//!   (scratch contents never affect results — it is cleared per pass)
//!   and, under `GOAT_ISOLATE=proc`, a suite keeps sandboxed workers
//!   pooled across kernels instead of draining per campaign (checkouts
//!   re-`Init` per campaign, so reuse is sound), draining once at suite
//!   end. The analysis *memo* is deliberately **not** shared: its keys
//!   are schedule fingerprints, which only identify a run within one
//!   kernel.
//! * **Suite-level resume** — each kernel keeps its own checkpoint
//!   sidecar (see [`per_kernel_checkpoint`]); a suite-level manifest
//!   sidecar (`<base>.suite.<ext>`) records the kernel list and, once
//!   the barrier has passed, the grants. A SIGKILLed suite resumes
//!   mid-suite: finished kernels replay from their sidecars without
//!   re-running, in-flight kernels continue from their last write, and
//!   recorded grants are reused verbatim so extension budgets survive
//!   the crash.
//!
//! Observability: the orchestrator reports `suite.*` metrics — kernels
//! in flight, cross-kernel steals, budget donated/granted, warm-pool
//! reuse — and a `suite` JSONL event when telemetry is on.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

use goat_metrics::Histogram;
use goat_runtime::faultpoint;
use goat_runtime::RunResult;

use crate::bandit::{Arm, Bandit, GUIDED_LAG};
use crate::checkpoint;
use crate::plane::EctBuffers;
use crate::program::Program;
use crate::runner::{CampaignResult, Checkpointer, Goat, GoatConfig, MergeState};

/// Environment knob for the executor's worker count, the default of
/// both [`SuiteConfig::jobs`] and [`GoatConfig::parallelism`].
pub const JOBS_ENV: &str = "GOAT_JOBS";
/// Environment knob enabling adaptive budget reallocation.
pub const REALLOC_ENV: &str = "GOAT_SUITE_REALLOC";
/// Schema version of the suite manifest sidecar.
pub const SUITE_MANIFEST_VERSION: u32 = 1;

/// The worker count from `GOAT_JOBS`; 1 when unset or invalid.
pub(crate) fn default_jobs() -> usize {
    std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n >= 1)
        .unwrap_or(1)
}

/// Suite-level orchestration knobs, separate from the per-campaign
/// [`GoatConfig`] they multiplex.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Workers claiming iterations across kernels (`-jobs`/`GOAT_JOBS`;
    /// 1 when unset). Results are identical at any value.
    pub jobs: usize,
    /// Adaptive budget reallocation (`GOAT_SUITE_REALLOC`): early
    /// stoppers donate unspent base budget to still-exploring kernels.
    /// Off by default — it extends some kernels' budgets, which changes
    /// (deterministically) what the suite reports.
    pub realloc: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            jobs: default_jobs(),
            realloc: matches!(
                std::env::var(REALLOC_ENV).ok().as_deref(),
                Some("1") | Some("on") | Some("true") | Some("yes")
            ),
        }
    }
}

impl SuiteConfig {
    /// Set the cross-kernel worker count (overrides `GOAT_JOBS`).
    pub fn with_jobs(mut self, n: usize) -> Self {
        assert!(n >= 1, "jobs must be at least 1");
        self.jobs = n;
        self
    }

    /// Enable or disable adaptive budget reallocation.
    pub fn with_realloc(mut self, on: bool) -> Self {
        self.realloc = on;
        self
    }
}

/// End-of-suite orchestration counters (also exported as `suite.*`
/// metrics and a `suite` JSONL event).
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct SuiteStats {
    /// Kernels the suite ran.
    pub kernels: usize,
    /// Cross-kernel workers used.
    pub jobs: usize,
    /// Claims where a worker switched to a different kernel's stream.
    pub steals: u64,
    /// Peak number of kernels with claimed-but-unmerged iterations.
    pub kernels_inflight_max: usize,
    /// Unspent base-budget iterations released by early stoppers.
    pub budget_donated: usize,
    /// Extension iterations granted to still-exploring kernels.
    pub budget_granted: usize,
    /// Campaigns that started on another kernel's recycled analysis
    /// scratch instead of growing their own.
    pub warm_bufs_reused: u64,
    /// Isolated-worker checkouts served by the warm cross-kernel pool
    /// during the suite (`isolate.workers_reused` delta).
    pub isolate_workers_reused: u64,
}

/// Derive a kernel-specific checkpoint sidecar from the base path the
/// user supplied: `cp.json` → `cp.<kernel>.json` (no extension:
/// `cp` → `cp.<kernel>`). One shared sidecar across kernels would
/// fingerprint-mismatch on every kernel (program name differs) and each
/// campaign would overwrite the previous kernel's state; per-kernel
/// sidecars are what make suite-mode resume actually resume.
pub fn per_kernel_checkpoint(base: &Path, kernel: &str) -> PathBuf {
    match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => base.with_extension(format!("{kernel}.{ext}")),
        None => base.with_extension(kernel),
    }
}

/// The suite manifest's sidecar path for a given base checkpoint path
/// (`cp.json` → `cp.suite.json`). No benchmark kernel is named `suite`.
pub fn suite_manifest_path(base: &Path) -> PathBuf {
    per_kernel_checkpoint(base, "suite")
}

/// Suite-level checkpoint manifest: which kernels the suite runs and —
/// once the reallocation barrier has passed — the extension grants.
/// Per-kernel progress lives in the per-kernel sidecars; the manifest
/// makes the *grants* durable so a suite killed mid-extension resumes
/// with the same budgets it was running.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SuiteManifest {
    /// Schema version ([`SUITE_MANIFEST_VERSION`]).
    pub version: u32,
    /// Suite fingerprint: base-config fingerprint + kernel list +
    /// realloc flag. A mismatch invalidates the manifest.
    pub fingerprint: String,
    /// Kernel names, in suite order.
    pub kernels: Vec<String>,
    /// Per-kernel extension grants, indexed like `kernels`; `None`
    /// until the reallocation barrier has passed.
    pub grants: Option<Vec<usize>>,
}

impl SuiteManifest {
    /// Atomically persist to `path` (`path.tmp` + rename), mirroring
    /// [`crate::checkpoint::CampaignCheckpoint::store`]. Failure costs
    /// durability, not correctness.
    pub fn store(&self, path: &Path) {
        let json = match serde_json::to_string(self) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("goat: suite manifest serialize failed ({e}); suite continues");
                return;
            }
        };
        let tmp = path.with_extension("tmp");
        let write =
            std::fs::write(&tmp, json.as_bytes()).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("goat: suite manifest write failed ({e}); suite continues");
        }
    }

    /// Load and validate a manifest; `None` when absent, unreadable or
    /// fingerprint-mismatched (starting fresh is always sound).
    pub fn load(path: &Path, fingerprint: &str) -> Option<SuiteManifest> {
        let data = std::fs::read_to_string(path).ok()?;
        let man: SuiteManifest = match serde_json::from_str(&data) {
            Ok(m) => m,
            Err(e) => {
                eprintln!(
                    "goat: ignoring unusable suite manifest {}: {e}; starting over",
                    path.display()
                );
                return None;
            }
        };
        (man.version == SUITE_MANIFEST_VERSION && man.fingerprint == fingerprint).then_some(man)
    }
}

/// The suite's identity: the base campaign fingerprint (which already
/// excludes the iteration budget, so grants stay compatible) plus the
/// kernel list and the realloc mode.
fn suite_fingerprint(base: &GoatConfig, names: &[String], realloc: bool) -> String {
    format!(
        "suite-v{SUITE_MANIFEST_VERSION}:{}:k={}:realloc={}",
        checkpoint::fingerprint("__suite__", base),
        names.join(","),
        realloc
    )
}

/// One kernel's claimable iteration stream, guarded by the queue's
/// lock.
struct Stream {
    /// Next unclaimed iteration index.
    next: usize,
    /// Iterations merged so far (claims stay < `merged + window`).
    merged: usize,
    /// One past the last claimable index; grows on an extension grant.
    cutoff: usize,
    /// Claim window (see [`claim_window`]).
    window: usize,
    /// Iterations per claim ([`GoatConfig::effective_batch`]).
    batch: usize,
    /// An early stop fired (bug/threshold/quarantine/saturation): no
    /// further claims, outstanding results are speculative discards.
    halted: bool,
    /// The stream reached `cutoff` or halted; cleared when an extension
    /// grant re-opens it.
    complete: bool,
    /// Completed its base budget without stopping and awaits the
    /// reallocation barrier.
    pending: bool,
    /// Claimed-but-undelivered iterations (drives the kernels-in-flight
    /// gauge).
    inflight: usize,
    /// Unspent base budget donated when the stream halts (early
    /// stoppers only).
    released: usize,
}

fn claimable(s: &Stream) -> bool {
    !s.complete && !s.halted && s.next < s.cutoff && s.next < s.merged + s.window
}

/// How far claims may run ahead of the merge point: four claims per
/// worker, and never less than one batch — a smaller window would clip
/// every claim below the `-ipc-batch` it was asked for. Guided
/// campaigns cap it at the bandit's feedback lag, which
/// [`GoatConfig::effective_batch`] already respects.
fn claim_window(jobs: usize, cfg: &GoatConfig) -> usize {
    let window = (jobs * 4).max(cfg.effective_batch());
    if cfg.guided {
        window.min(GUIDED_LAG)
    } else {
        window
    }
}

struct QueueState {
    streams: Vec<Stream>,
    /// Rotating scan start so concurrent workers spread across kernels.
    cursor: usize,
    /// Fully finalized kernels; all of them means shutdown.
    finalized: usize,
    /// The reallocation barrier has passed (immediately true when
    /// realloc is off or grants were preset by a resumed manifest).
    barrier_open: bool,
    shutdown: bool,
    steals: u64,
    inflight_max: usize,
    budget_donated: usize,
    budget_granted: usize,
    /// Workers blocked in [`SuiteQueue::claim`]; with none, a state
    /// change wakes nobody and skips the notify.
    waiting: usize,
}

impl QueueState {
    /// Every stream has completed its base budget while the
    /// reallocation barrier is still closed.
    fn barrier_ready(&self) -> bool {
        !self.barrier_open && self.streams.iter().all(|s| s.complete)
    }
}

/// What a worker does next.
#[derive(Debug, PartialEq, Eq)]
enum Claim {
    /// Run iterations `lo..hi` of stream `k`, as `(k, lo, hi)`.
    Batch(usize, usize, usize),
    /// The coordinating worker has results to emit or the reallocation
    /// barrier to open.
    Coordinate,
    /// Every campaign is finalized.
    Shutdown,
}

/// The global work-stealing queue: one lock and one condvar, on which
/// workers wait for claimable work and the coordinating worker also for
/// completions.
struct SuiteQueue {
    state: StdMutex<QueueState>,
    cv: Condvar,
}

impl SuiteQueue {
    fn new(streams: Vec<Stream>, barrier_open: bool) -> Self {
        SuiteQueue {
            state: StdMutex::new(QueueState {
                streams,
                cursor: 0,
                finalized: 0,
                barrier_open,
                shutdown: false,
                steals: 0,
                inflight_max: 0,
                budget_donated: 0,
                budget_granted: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Wake every blocked worker to re-check `st`; with none blocked
    /// (always, with one worker) this costs no syscall.
    fn wake(&self, st: &QueueState) {
        if st.waiting > 0 {
            self.cv.notify_all();
        }
    }

    /// Claim up to one batch of contiguous iterations from some
    /// kernel's stream, preferring `last` (the worker's previous
    /// kernel) and stealing from the next claimable stream otherwise.
    /// The coordinating worker passes the finalize count it has
    /// `seen` and is sent to coordinate first whenever there is more.
    /// Blocks while there is nothing to do.
    fn claim(&self, last: Option<usize>, seen: Option<usize>) -> Claim {
        let mut st = self.state.lock().expect("suite queue");
        loop {
            if st.shutdown {
                return Claim::Shutdown;
            }
            // Finalize bumps `finalized` under this lock after storing
            // its result, so checking the count here loses no wakeup.
            if seen.is_some_and(|seen| st.finalized != seen || st.barrier_ready()) {
                return Claim::Coordinate;
            }
            let n = st.streams.len();
            let mut pick = last.filter(|&k| claimable(&st.streams[k]));
            if pick.is_none() {
                for off in 0..n {
                    let k = (st.cursor + off) % n;
                    if claimable(&st.streams[k]) {
                        pick = Some(k);
                        break;
                    }
                }
            }
            if let Some(k) = pick {
                if last != Some(k) {
                    // A fresh worker's first claim is placement, not
                    // theft; switching kernels mid-suite is a steal.
                    st.cursor = (k + 1) % n;
                    if last.is_some() {
                        st.steals += 1;
                    }
                }
                let s = &mut st.streams[k];
                let lo = s.next;
                let hi = (s.merged + s.window).min(s.cutoff).min(lo + s.batch);
                s.next = hi;
                s.inflight += hi - lo;
                let inflight_now = st.streams.iter().filter(|s| s.inflight > 0).count();
                st.inflight_max = st.inflight_max.max(inflight_now);
                return Claim::Batch(k, lo, hi);
            }
            st.waiting += 1;
            st = self.cv.wait(st).expect("suite queue");
            st.waiting -= 1;
        }
    }
}

/// Everything one kernel's merge thread-of-record owns, behind the
/// slot's lock: the campaign merge state, the iteration-order reorder
/// buffer, and the checkpoint writer.
struct SlotMerge {
    m: MergeState,
    /// Results awaiting their turn: entry `j` holds iteration
    /// `expect + j`. Its capacity survives across batches, so in-order
    /// delivery allocates nothing.
    reorder: VecDeque<Option<RunResult>>,
    /// Next iteration index to merge.
    expect: usize,
    /// Mirror of the stream's halt, readable under the slot lock.
    halted: bool,
    /// The warm-scratch adoption window has passed (it is only sound
    /// before the first merge grows this campaign's own scratch).
    warmed: bool,
    ckpt: Option<Checkpointer>,
    reorder_depth_max: usize,
    t0: Option<Instant>,
}

/// One campaign of the executor: its program, configured campaign
/// engine, live merge state and (after finalize) its result, awaiting
/// in-order emission.
struct Slot {
    name: String,
    program: Arc<dyn Program>,
    goat: Goat,
    guided: Option<Arc<StdMutex<Bandit>>>,
    live: StdMutex<Option<SlotMerge>>,
    done: StdMutex<Option<CampaignResult>>,
    iter_wall: Histogram,
    claim_wait: Histogram,
}

impl Slot {
    /// Build one campaign's slot and its claimable stream: static
    /// model, bandit, checkpoint resume. This is the one place a
    /// campaign is set up, for [`Goat::test`] and every suite kernel
    /// alike. `grant` extends the budget (a resumed suite's recorded
    /// reallocation grant).
    ///
    /// Resume happens here, before any worker runs: a campaign whose
    /// sidecar says it already stopped (or already spent its budget)
    /// starts complete, re-running nothing — that is what keeps resume
    /// byte-identical to the uninterrupted campaign.
    fn new(
        program: Arc<dyn Program>,
        cfg: GoatConfig,
        jobs: usize,
        grant: usize,
    ) -> (Slot, Stream) {
        let t0 = goat_metrics::enabled().then(Instant::now);
        // The campaign's telemetry reports the workers it really ran on.
        let goat = Goat::new(cfg.with_parallelism(jobs));
        let cfg = goat.config();
        let mut m = MergeState::new(Goat::static_model(program.as_ref()));
        // The bandit must exist before resume so a checkpoint's reward
        // history lands back in it.
        m.guided = cfg.guided.then(|| {
            Arc::new(StdMutex::new(Bandit::new(cfg.seed0, cfg.strategy, cfg.delay_bound)))
        });
        let ckpt = Checkpointer::new(cfg, program.name());
        let start = ckpt.as_ref().map_or(0, |c| c.resume(&mut m));
        let resumed_stopped = m.quarantined.is_some()
            || m.saturated.is_some()
            || (cfg.stop_on_bug && m.bug.is_some())
            || cfg
                .coverage_threshold
                .is_some_and(|th| start > 0 && m.covered.percent(&m.universe) >= th);
        let cutoff = cfg.iterations + grant;
        let stream = Stream {
            next: start,
            merged: start,
            cutoff,
            window: claim_window(jobs, cfg),
            batch: cfg.effective_batch(),
            halted: resumed_stopped,
            complete: resumed_stopped || start >= cutoff,
            pending: false,
            inflight: 0,
            // A kernel resumed as already stopped donates here, since
            // no delivery will ever record it.
            released: if resumed_stopped { released_budget(cfg, &m) } else { 0 },
        };
        let slot = Slot {
            name: program.name().to_string(),
            guided: m.guided.clone(),
            live: StdMutex::new(Some(SlotMerge {
                m,
                reorder: VecDeque::new(),
                expect: start,
                halted: resumed_stopped,
                warmed: false,
                ckpt,
                reorder_depth_max: 0,
                t0,
            })),
            done: StdMutex::new(None),
            iter_wall: Histogram::default(),
            claim_wait: Histogram::default(),
            program,
            goat,
        };
        (slot, stream)
    }
}

/// Analysis scratch recycled from finished kernels into later ones.
#[derive(Default)]
struct WarmPool {
    bufs: StdMutex<Vec<EctBuffers>>,
    reused: AtomicU64,
}

/// End-of-suite orchestration summary on the JSONL telemetry stream.
#[derive(serde::Serialize)]
struct SuiteEvent {
    kind: &'static str,
    suite: SuiteStats,
}

/// The calling thread's duties besides running iterations: emit
/// finished campaigns in slot order and open the reallocation barrier.
struct Coordinator<'a> {
    emit: &'a mut dyn FnMut(usize, &str, CampaignResult),
    realloc: Option<PersistGrants<'a>>,
    next_emit: usize,
    /// The queue's `finalized` count as of the last step.
    seen: usize,
}

impl Coordinator<'_> {
    fn step(&mut self, slots: &[Slot], queue: &SuiteQueue, warm: &WarmPool) {
        let barrier = {
            let st = queue.state.lock().expect("suite queue");
            self.seen = st.finalized;
            st.barrier_ready()
        };
        if barrier {
            apply_realloc(slots, queue, warm, self.realloc.expect("closed barrier"));
        }
        while self.next_emit < slots.len() {
            let taken = slots[self.next_emit].done.lock().expect("slot result").take();
            let Some(r) = taken else { break };
            faultpoint::delay("suite_emit");
            (self.emit)(self.next_emit, &slots[self.next_emit].name, r);
            self.next_emit += 1;
        }
    }
}

/// One executor worker: claim a batch, run it, deliver its results,
/// until the queue shuts down. The calling thread's worker carries the
/// `coord` duties too, so a one-worker campaign runs on the calling
/// thread alone.
fn work(
    slots: &[Slot],
    queue: &SuiteQueue,
    warm: &WarmPool,
    mut coord: Option<&mut Coordinator<'_>>,
) {
    let telemetry_on = goat_metrics::enabled();
    let mut last: Option<usize> = None;
    loop {
        let t_claim = telemetry_on.then(Instant::now);
        let (k, lo, hi) = match queue.claim(last, coord.as_ref().map(|c| c.seen)) {
            Claim::Batch(k, lo, hi) => (k, lo, hi),
            Claim::Coordinate => {
                coord.as_deref_mut().expect("coordinator").step(slots, queue, warm);
                continue;
            }
            Claim::Shutdown => break,
        };
        let slot = &slots[k];
        if let Some(t) = t_claim {
            slot.claim_wait.record(t.elapsed().as_nanos() as u64);
        }
        last = Some(k);
        faultpoint::delay("suite_claim");
        // Arm selection happens at claim time in iteration order; the
        // lag-capped window guarantees the rewards `select(i)` reads
        // are already merged.
        let arms: Vec<Option<Arm>> = (lo..hi).map(|i| Goat::select_arm(&slot.guided, i)).collect();
        let t_iter = telemetry_on.then(Instant::now);
        let results = slot.goat.run_batch_supervised(lo, &slot.program, &arms);
        if let Some(t) = t_iter {
            // Per-iteration share of the batch wall time: keeps the
            // histogram at one sample per iteration, which the
            // telemetry schema pins.
            let per = t.elapsed().as_nanos() as u64 / arms.len() as u64;
            for _ in 0..arms.len() {
                slot.iter_wall.record(per);
            }
        }
        deliver(slots, queue, warm, k, lo, results);
    }
    if let Some(c) = coord {
        c.step(slots, queue, warm);
    }
}

/// Deliver one claimed batch's results: insert into the kernel's
/// reorder buffer, merge everything now in order, then update the
/// stream's accounting and finalize the kernel if it just completed.
fn deliver(
    slots: &[Slot],
    queue: &SuiteQueue,
    warm: &WarmPool,
    k: usize,
    lo: usize,
    results: Vec<RunResult>,
) {
    let delivered = results.len();
    let mut merged_now = 0usize;
    let mut halted_now = false;
    let mut released = 0usize;
    {
        let mut live = slots[k].live.lock().expect("slot merge");
        if let Some(sm) = live.as_mut() {
            // Every delivered iteration is still unmerged, so it sits at
            // or past `expect`.
            let first = lo - sm.expect;
            if sm.reorder.len() < first + results.len() {
                sm.reorder.resize_with(first + results.len(), || None);
            }
            for (off, r) in results.into_iter().enumerate() {
                sm.reorder[first + off] = Some(r);
            }
            let depth = sm.reorder.iter().flatten().count();
            sm.reorder_depth_max = sm.reorder_depth_max.max(depth);
            while let Some(r) = sm.reorder.front_mut().and_then(Option::take) {
                sm.reorder.pop_front();
                if !sm.halted {
                    if !sm.warmed {
                        // First merge for this kernel: adopt a finished
                        // kernel's grown scratch if one is available.
                        // Scratch is cleared per analysis pass, so this
                        // changes allocation behaviour, never results.
                        sm.warmed = true;
                        if let Some(b) = warm.bufs.lock().expect("warm pool").pop() {
                            sm.m.bufs = b;
                            warm.reused.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let stop = sm.m.merge_one(slots[k].goat.config(), sm.expect, r);
                    if let Some(c) = sm.ckpt.as_mut() {
                        c.note_merged(&sm.m);
                    }
                    merged_now += 1;
                    if stop {
                        sm.halted = true;
                        halted_now = true;
                    }
                }
                // Past a halt the remaining in-order results were
                // speculative claims: discarded unmerged.
                sm.expect += 1;
            }
            if halted_now {
                released = released_budget(slots[k].goat.config(), &sm.m);
            }
        }
        // A `None` slot was already finalized: these results are
        // speculative leftovers from a pre-halt claim — dropped.
    }
    let finalize = {
        let mut st = queue.state.lock().expect("suite queue");
        let barrier_open = st.barrier_open;
        let s = &mut st.streams[k];
        s.inflight -= delivered;
        s.merged += merged_now;
        if halted_now {
            s.halted = true;
            // Recorded under the lock that marks the stream complete,
            // so the barrier never sees a donor whose budget is not yet
            // in the pool. Extension-phase stops never re-donate:
            // redistribution is a single deterministic round.
            if !barrier_open {
                s.released = released;
            }
        }
        let mut finalize = false;
        if !s.complete && (s.halted || s.merged >= s.cutoff) {
            s.complete = true;
            if s.halted || barrier_open {
                finalize = true;
            } else {
                // Budget exhausted pre-barrier with realloc on: park
                // until every kernel's base phase is done, then either
                // receive an extension or finalize with grant 0.
                s.pending = true;
            }
        }
        queue.wake(&st);
        finalize
    };
    if finalize {
        faultpoint::delay("suite_finalize");
        finalize_slot(slots, queue, warm, k);
    }
}

/// The base budget a kernel that stopped early leaves unspent, which it
/// donates to the realloc pool. Only bug and saturation stops donate: a
/// quarantined kernel's skipped iterations are forfeited, not banked.
fn released_budget(cfg: &GoatConfig, m: &MergeState) -> usize {
    let early_stop = (cfg.stop_on_bug && m.bug.is_some()) || m.saturated.is_some();
    if early_stop {
        cfg.iterations.saturating_sub(m.records.len())
    } else {
        0
    }
}

/// Close out one kernel: final checkpoint write, recycle the analysis
/// scratch into the warm pool, package the [`CampaignResult`] for
/// in-order emission and account the completion — the last finalize
/// shuts the queue down.
fn finalize_slot(slots: &[Slot], queue: &SuiteQueue, warm: &WarmPool, k: usize) {
    let slot = &slots[k];
    let Some(mut sm) = slot.live.lock().expect("slot merge").take() else { return };
    if let Some(c) = sm.ckpt.as_mut() {
        c.finalize(&sm.m);
    }
    warm.bufs.lock().expect("warm pool").push(std::mem::take(&mut sm.m.bufs));
    if goat_metrics::enabled() {
        goat_metrics::set_context(Some(&slot.name));
    }
    let result = slot.goat.finish_campaign(
        sm.m,
        slot.program.as_ref(),
        sm.t0,
        &slot.iter_wall,
        &slot.claim_wait,
        sm.reorder_depth_max,
    );
    *slot.done.lock().expect("slot result") = Some(result);
    let mut st = queue.state.lock().expect("suite queue");
    st.streams[k].halted = true;
    st.streams[k].complete = true;
    st.finalized += 1;
    if st.finalized == st.streams.len() {
        st.shutdown = true;
    }
    queue.wake(&st);
}

/// Deterministically split the donated pool across `recipients`
/// (ascending kernel indices): even shares, remainder to the earliest
/// indices, each grant capped at `cap` (one extra base budget). Pool
/// beyond the caps is dropped — redistribution is one round.
fn split_pool(n: usize, recipients: &[usize], pool: usize, cap: usize) -> Vec<usize> {
    let mut grants = vec![0usize; n];
    if recipients.is_empty() || pool == 0 {
        return grants;
    }
    let share = pool / recipients.len();
    let extra = pool % recipients.len();
    for (j, &k) in recipients.iter().enumerate() {
        grants[k] = (share + usize::from(j < extra)).min(cap);
    }
    grants
}

/// Persists the grants computed at the reallocation barrier.
type PersistGrants<'a> = &'a dyn Fn(&[usize]);

/// The reallocation barrier: every stream has completed its base
/// budget. Compute grants from the (deterministic) base-phase results,
/// hand them to `persist`, then re-open the recipients' streams and
/// finalize the rest.
fn apply_realloc(slots: &[Slot], queue: &SuiteQueue, warm: &WarmPool, persist: PersistGrants<'_>) {
    let (pool, pending): (usize, Vec<usize>) = {
        let st = queue.state.lock().expect("suite queue");
        (
            st.streams.iter().map(|s| s.released).sum(),
            st.streams.iter().enumerate().filter(|(_, s)| s.pending).map(|(k, _)| k).collect(),
        )
    };
    // Recipients: pending streams (ran the full base budget without
    // stopping) that are still exploring — detected kernels under
    // `keep_running` are done, not starving.
    let recipients: Vec<usize> = pending
        .iter()
        .copied()
        .filter(|&k| {
            let live = slots[k].live.lock().expect("slot merge");
            live.as_ref().is_some_and(|sm| sm.m.first_detection.is_none())
        })
        .collect();
    // Every kernel shares the suite's base config, so any slot's budget
    // is the one-extra-base-budget cap.
    let grants = split_pool(slots.len(), &recipients, pool, slots[0].goat.config().iterations);
    persist(&grants);
    let to_finalize: Vec<usize> = {
        let mut st = queue.state.lock().expect("suite queue");
        st.barrier_open = true;
        st.budget_donated = pool;
        st.budget_granted = grants.iter().sum();
        let mut finalize = Vec::new();
        for &k in &pending {
            let s = &mut st.streams[k];
            s.pending = false;
            if grants[k] > 0 {
                s.cutoff += grants[k];
                s.complete = false;
            } else {
                finalize.push(k);
            }
        }
        queue.wake(&st);
        finalize
    };
    for k in to_finalize {
        finalize_slot(slots, queue, warm, k);
    }
}

/// The one campaign executor: run `slots` (with their `streams`) on
/// `jobs` workers and hand each finished campaign to `emit` **in slot
/// order**. With `realloc` set, streams that spend their base budget
/// wait at the reallocation barrier, and the grants computed there are
/// passed to `realloc` to persist; without it the barrier is open from
/// the start. Returns the executor's counters (everything in
/// [`SuiteStats`] but the isolated-worker reuse).
fn execute(
    slots: &[Slot],
    mut streams: Vec<Stream>,
    jobs: usize,
    realloc: Option<PersistGrants<'_>>,
    emit: &mut dyn FnMut(usize, &str, CampaignResult),
) -> SuiteStats {
    let barrier_open = realloc.is_none();
    let mut init_finalize = Vec::new();
    for (k, s) in streams.iter_mut().enumerate() {
        // A stream that starts complete without having stopped spent
        // its budget before a resume: it waits at a closed barrier like
        // any other.
        s.pending = s.complete && !s.halted && !barrier_open;
        if s.complete && !s.pending {
            init_finalize.push(k);
        }
    }
    let queue = SuiteQueue::new(streams, barrier_open);
    let warm = WarmPool::default();
    for k in init_finalize {
        finalize_slot(slots, &queue, &warm, k);
    }

    // The calling thread is one of the `jobs` workers and the
    // coordinator.
    let mut coord = Coordinator { emit, realloc, next_emit: 0, seen: 0 };
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(|| work(slots, &queue, &warm, None));
        }
        work(slots, &queue, &warm, Some(&mut coord));
    });

    let st = queue.state.into_inner().expect("suite queue");
    SuiteStats {
        kernels: slots.len(),
        jobs,
        steals: st.steals,
        kernels_inflight_max: st.inflight_max,
        budget_donated: st.budget_donated,
        budget_granted: st.budget_granted,
        warm_bufs_reused: warm.reused.into_inner(),
        ..SuiteStats::default()
    }
}

/// Run one campaign on the executor as a suite of one:
/// `jobs = `[`GoatConfig::parallelism`], the checkpoint path used
/// verbatim, no reallocation and no pool prewarm.
pub(crate) fn run_campaign(goat: &Goat, program: Arc<dyn Program>) -> CampaignResult {
    let jobs = goat.config().parallelism.max(1);
    let (slot, stream) = Slot::new(program, goat.config().clone(), jobs, 0);
    let mut result = None;
    execute(&[slot], vec![stream], jobs, None, &mut |_, _, r| result = Some(r));
    result.expect("the executor emits every slot")
}

/// Run every kernel in `kernels` as one suite over a global
/// work-stealing iteration queue, invoking `emit` once per kernel **in
/// kernel order** with its finished [`CampaignResult`] (the bug trace
/// is recycled after `emit` returns).
///
/// Per-kernel results are byte-identical to running the kernels
/// sequentially with [`Goat::test`], at any [`SuiteConfig::jobs`]
/// value; see the module docs for the determinism argument. With
/// [`GoatConfig::checkpoint`] set, per-kernel sidecars plus a suite
/// manifest make a SIGKILLed suite resume mid-suite.
pub fn run_suite(
    base: &GoatConfig,
    suite: &SuiteConfig,
    kernels: &[Arc<dyn Program>],
    emit: &mut dyn FnMut(usize, &str, &mut CampaignResult),
) -> SuiteStats {
    let jobs = suite.jobs.max(1);
    if kernels.is_empty() {
        return SuiteStats { jobs, ..SuiteStats::default() };
    }
    let reg = goat_metrics::global();
    let isolate_reused_before = reg.counter("isolate.workers_reused").get();
    // Runs are hosted by the workers themselves unless a watchdog sends
    // them to the run-host pool; only then pre-spawn parked hosts, so
    // the first claims of a cold process do not all pay thread creation.
    if base.iter_timeout_ms.is_some() {
        goat_runtime::pool::prewarm(jobs);
    }

    let names: Vec<String> = kernels.iter().map(|p| p.name().to_string()).collect();
    let fingerprint = suite_fingerprint(base, &names, suite.realloc);
    let manifest_path = base.checkpoint.as_ref().map(|p| suite_manifest_path(p));
    let preset_grants: Option<Vec<usize>> = if suite.realloc {
        manifest_path
            .as_ref()
            .and_then(|p| SuiteManifest::load(p, &fingerprint))
            .and_then(|m| m.grants)
            .filter(|g| g.len() == kernels.len())
    } else {
        None
    };
    let store_manifest = |grants: Option<&[usize]>| {
        if let Some(path) = &manifest_path {
            SuiteManifest {
                version: SUITE_MANIFEST_VERSION,
                fingerprint: fingerprint.clone(),
                kernels: names.clone(),
                grants: grants.map(<[usize]>::to_vec),
            }
            .store(path);
        }
    };
    if preset_grants.is_none() {
        store_manifest(None);
    }

    let (slots, streams): (Vec<Slot>, Vec<Stream>) = kernels
        .iter()
        .enumerate()
        .map(|(k, program)| {
            let mut cfg = base.clone();
            if let Some(bp) = &base.checkpoint {
                cfg.checkpoint = Some(per_kernel_checkpoint(bp, &names[k]));
            }
            let grant = preset_grants.as_ref().map_or(0, |g| g[k]);
            Slot::new(Arc::clone(program), cfg, jobs, grant)
        })
        .unzip();
    // Recorded grants are adopted verbatim: the barrier is open from the
    // start and the streams already carry their extensions.
    let persist = |grants: &[usize]| store_manifest(Some(grants));
    let realloc =
        (suite.realloc && preset_grants.is_none()).then_some(&persist as PersistGrants<'_>);
    let mut stats = execute(&slots, streams, jobs, realloc, &mut |k, name, mut r| {
        emit(k, name, &mut r);
        // Suite mode renders no per-bug trace report, so the bug trace
        // (if any) goes straight back to the recycling pool.
        r.recycle_bug_trace();
    });
    if let Some(g) = &preset_grants {
        stats.budget_granted = g.iter().sum();
    }

    if goat_metrics::enabled() {
        goat_metrics::set_context(None);
    }
    stats.isolate_workers_reused =
        reg.counter("isolate.workers_reused").get().saturating_sub(isolate_reused_before);
    // The suite is over: the cross-kernel sandbox pool has served its
    // purpose (a lone `-target <kernel>` run drains at campaign end
    // instead — see `drain_idle_workers`).
    crate::isolate::drain_idle_workers();

    reg.gauge("suite.kernels").set(stats.kernels as i64);
    reg.gauge("suite.jobs").set(stats.jobs as i64);
    reg.counter("suite.steals").add(stats.steals);
    reg.gauge("suite.kernels_inflight_max").set(stats.kernels_inflight_max as i64);
    reg.counter("suite.budget_donated").add(stats.budget_donated as u64);
    reg.counter("suite.budget_granted").add(stats.budget_granted as u64);
    reg.counter("suite.warm_bufs_reused").add(stats.warm_bufs_reused);
    reg.counter("suite.isolate_workers_reused").add(stats.isolate_workers_reused);
    if goat_metrics::enabled() {
        goat_metrics::emit(&SuiteEvent { kind: "suite", suite: stats.clone() });
        goat_metrics::flush();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FnProgram;
    use goat_runtime::{go, Chan};

    fn leak_kernel(name: &str) -> Arc<dyn Program> {
        Arc::new(FnProgram::new(name, || {
            let ch: Chan<u8> = Chan::new(0);
            go(move || {
                ch.recv();
            });
            goat_runtime::gosched();
        }))
    }

    fn clean_kernel(name: &str) -> Arc<dyn Program> {
        Arc::new(FnProgram::new(name, || {
            let ch: Chan<u8> = Chan::new(1);
            let tx = ch.clone();
            go(move || {
                tx.send(7);
            });
            ch.recv();
        }))
    }

    /// Leaks the sender unless it is already blocked when main polls,
    /// which depends on the schedule: a bug some iterations find and
    /// others miss.
    fn racy_kernel(name: &str) -> Arc<dyn Program> {
        Arc::new(FnProgram::new(name, || {
            let ch: Chan<u8> = Chan::new(0);
            let tx = ch.clone();
            go(move || tx.send(1));
            goat_runtime::gosched();
            let _ = goat_runtime::Select::new().recv(&ch, |v| v).default(|| None).run();
        }))
    }

    fn summary_json(r: &mut CampaignResult) -> String {
        r.recycle_bug_trace();
        serde_json::to_string(&r.summary()).expect("summary json")
    }

    fn suite_lines(
        base: &GoatConfig,
        suite: &SuiteConfig,
        kernels: &[Arc<dyn Program>],
    ) -> (Vec<String>, SuiteStats) {
        let mut lines = Vec::new();
        let stats = run_suite(base, suite, kernels, &mut |idx, name, result| {
            lines.push(format!(
                "{idx} {name} det={:?} sat={:?} quarantined={:?} n={} cov={:.3} bug={}",
                result.first_detection,
                result.saturated,
                result.quarantined,
                result.records.len(),
                result.coverage_percent(),
                result.bug.as_ref().map(|b| b.to_string()).unwrap_or_default(),
            ));
        });
        (lines, stats)
    }

    fn mixed_kernels() -> Vec<Arc<dyn Program>> {
        vec![
            leak_kernel("suite-leak-a"),
            clean_kernel("suite-clean-b"),
            leak_kernel("suite-leak-c"),
            clean_kernel("suite-clean-d"),
            leak_kernel("suite-leak-e"),
        ]
    }

    #[test]
    fn jobs_do_not_change_suite_output() {
        let base = GoatConfig::default().with_iterations(8).with_delay_bound(1);
        let kernels = mixed_kernels();
        let (seq, _) = suite_lines(&base, &SuiteConfig::default().with_jobs(1), &kernels);
        let (par, stats) = suite_lines(&base, &SuiteConfig::default().with_jobs(4), &kernels);
        assert_eq!(seq, par, "jobs=4 suite output diverged from jobs=1");
        assert_eq!(stats.kernels, kernels.len());
        // The detecting kernels must have detected in both.
        assert!(seq.iter().filter(|l| l.contains("det=Some")).count() >= 3, "{seq:?}");
    }

    #[test]
    fn suite_matches_sequential_goat_test() {
        let base = GoatConfig::default().with_iterations(6).with_delay_bound(1);
        let kernels = mixed_kernels();
        let mut reference = Vec::new();
        for p in &kernels {
            let mut r = Goat::new(base.clone()).test(Arc::clone(p));
            r.recycle_bug_trace();
            reference.push(serde_json::to_string(&r.summary()).expect("summary json"));
        }
        let mut suite_json = Vec::new();
        run_suite(&base, &SuiteConfig::default().with_jobs(3), &kernels, &mut |_, _, result| {
            suite_json.push(serde_json::to_string(&result.summary()).expect("summary json"));
        });
        assert_eq!(reference, suite_json, "suite summaries diverged from Goat::test");
    }

    #[test]
    fn realloc_extends_still_exploring_kernels_deterministically() {
        // Early stoppers (stop_on_bug leaks) donate; the clean kernels
        // run their full budget and split the pool.
        let base = GoatConfig::default().with_iterations(10).with_delay_bound(1);
        let kernels = mixed_kernels();
        let suite1 = SuiteConfig::default().with_jobs(1).with_realloc(true);
        let suite4 = SuiteConfig::default().with_jobs(4).with_realloc(true);
        let (seq, s1) = suite_lines(&base, &suite1, &kernels);
        let (par, s4) = suite_lines(&base, &suite4, &kernels);
        assert_eq!(seq, par, "realloc suite output diverged across jobs");
        assert_eq!(s1.budget_donated, s4.budget_donated);
        assert_eq!(s1.budget_granted, s4.budget_granted);
        assert!(s1.budget_donated > 0, "leak kernels should stop early and donate");
        assert!(s1.budget_granted > 0, "clean kernels should draw from the pool");
        // A recipient's extension shows up as records beyond the base
        // budget on the clean kernels.
        let extended = seq.iter().filter(|l| l.contains("clean") && !l.contains(" n=10 ")).count();
        assert!(extended > 0, "no clean kernel ran an extension: {seq:?}");
    }

    #[test]
    fn realloc_pool_counts_a_donor_still_finalizing_at_the_barrier() {
        // Hold every halted kernel in the gap between its stream turning
        // complete and its finalize. The last kernel, a leak that stops
        // on its first iteration, is the one that opens the barrier.
        // When a helper worker holds it, the calling thread (the
        // coordinator) reallocates while that donor is still in the
        // gap; its unspent budget must be in the pool all the same.
        // With one worker the donor and the coordinator share a thread,
        // and which worker takes the last donor varies, so the gap is
        // probed with four workers, three times.
        let _g = goat_runtime::faultpoint::scoped("suite_finalize:delay:50");
        let base = GoatConfig::default().with_iterations(10).with_delay_bound(1);
        for jobs in [1, 4, 4, 4] {
            let suite = SuiteConfig::default().with_jobs(jobs).with_realloc(true);
            let mut unspent = 0;
            let stats = run_suite(&base, &suite, &mixed_kernels(), &mut |_, name, result| {
                if name.contains("leak") {
                    unspent += 10 - result.records.len();
                }
            });
            assert!(unspent > 0, "leak kernels should stop early");
            assert_eq!(stats.budget_donated, unspent, "a donor's budget is missing at jobs={jobs}");
        }
    }

    #[test]
    fn realloc_grant_equals_standalone_bigger_budget() {
        // One donor, one recipient: the recipient's extended campaign
        // must be byte-identical to a standalone campaign whose budget
        // was base + grant from the start.
        let base = GoatConfig::default().with_iterations(9).with_delay_bound(1);
        let kernels: Vec<Arc<dyn Program>> =
            vec![leak_kernel("realloc-donor"), clean_kernel("realloc-recipient")];
        let mut grant = None;
        let mut extended_summary = None;
        run_suite(
            &base,
            &SuiteConfig::default().with_jobs(2).with_realloc(true),
            &kernels,
            &mut |idx, _, result| {
                if idx == 1 {
                    grant = Some(result.records.len() - 9);
                    extended_summary =
                        Some(serde_json::to_string(&result.summary()).expect("json"));
                }
            },
        );
        let grant = grant.expect("recipient emitted");
        assert!(grant > 0, "recipient should have been granted budget");
        let mut standalone =
            Goat::new(base.clone().with_iterations(9 + grant)).test(Arc::clone(&kernels[1]));
        standalone.recycle_bug_trace();
        assert_eq!(
            extended_summary.unwrap(),
            serde_json::to_string(&standalone.summary()).expect("json"),
            "extension diverged from a standalone campaign with the same total budget"
        );
    }

    #[test]
    fn warm_scratch_is_recycled_across_kernels() {
        // Recycled scratch moves allocations, never results: every
        // kernel's summary must equal its own `Goat::test` campaign,
        // which has no earlier kernel to inherit scratch from.
        let base = GoatConfig::default().with_iterations(4).with_delay_bound(1);
        let kernels = mixed_kernels();
        let mut warm = Vec::new();
        let stats =
            run_suite(&base, &SuiteConfig::default().with_jobs(1), &kernels, &mut |_, _, r| {
                warm.push(summary_json(r));
            });
        assert!(
            stats.warm_bufs_reused >= 1,
            "sequential suite should chain scratch across kernels, got {}",
            stats.warm_bufs_reused
        );
        let alone: Vec<String> = kernels
            .iter()
            .map(|p| summary_json(&mut Goat::new(base.clone()).test(Arc::clone(p))))
            .collect();
        assert_eq!(warm, alone, "recycled scratch changed a kernel's result");
    }

    #[test]
    fn emit_order_is_kernel_order_regardless_of_completion_order() {
        let base = GoatConfig::default().with_iterations(12).with_delay_bound(1);
        let kernels = mixed_kernels();
        let mut order = Vec::new();
        run_suite(&base, &SuiteConfig::default().with_jobs(4), &kernels, &mut |idx, _, _| {
            order.push(idx);
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn suite_resume_from_sidecars_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("goat-suite-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let ckpt = dir.join("cp.json");
        let kernels = mixed_kernels();
        let base = GoatConfig::default().with_iterations(8).with_delay_bound(1);
        let (reference, _) = suite_lines(&base, &SuiteConfig::default().with_jobs(2), &kernels);
        // First pass with checkpointing: writes every kernel's sidecar
        // plus the suite manifest.
        let with_ckpt = base.clone().with_checkpoint(&ckpt).with_checkpoint_every(1);
        let (first, _) = suite_lines(&with_ckpt, &SuiteConfig::default().with_jobs(2), &kernels);
        assert_eq!(reference, first);
        assert!(suite_manifest_path(&ckpt).exists(), "suite manifest missing");
        // Second pass resumes everything as already-complete and must
        // replay the identical output without re-running.
        let (resumed, _) = suite_lines(&with_ckpt, &SuiteConfig::default().with_jobs(4), &kernels);
        assert_eq!(reference, resumed, "resumed suite output diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn claim_never_clips_an_ipc_batch() {
        // One worker, `-ipc-batch 8`: the first claim must ship all 8
        // runs, not the 4 a `jobs * 4` window would allow.
        let cfg = GoatConfig::default()
            .with_iterations(20)
            .with_guided(false)
            .with_isolate(crate::isolate::IsolateMode::Proc)
            .with_ipc_batch(8);
        let stream = Stream {
            next: 0,
            merged: 0,
            cutoff: cfg.iterations,
            window: claim_window(1, &cfg),
            batch: cfg.effective_batch(),
            halted: false,
            complete: false,
            pending: false,
            inflight: 0,
            released: 0,
        };
        let queue = SuiteQueue::new(vec![stream], true);
        assert_eq!(queue.claim(None, None), Claim::Batch(0, 0, 8));
        // Guided campaigns stay capped at the feedback lag.
        assert_eq!(claim_window(64, &cfg.with_guided(true)), GUIDED_LAG);
    }

    #[test]
    fn executor_output_is_byte_identical_under_seam_delays() {
        // Hold every claim before its run, or every finished campaign
        // before its emit, at several worker counts: a lone campaign
        // (stopping on its bug, and running its full budget) and a
        // 6-kernel suite must match the undelayed single-worker run.
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = GoatConfig::default().with_iterations(16).with_delay_bound(1);
        let mut kernels = mixed_kernels();
        kernels.push(racy_kernel("suite-racy-f"));
        let run = |jobs: usize| {
            let racy = racy_kernel("torture-racy");
            let mut out = vec![
                summary_json(
                    &mut Goat::new(stop.clone().with_parallelism(jobs)).test(Arc::clone(&racy)),
                ),
                summary_json(
                    &mut Goat::new(stop.clone().keep_running().with_parallelism(jobs)).test(racy),
                ),
            ];
            let suite = SuiteConfig::default().with_jobs(jobs).with_realloc(false);
            run_suite(&stop, &suite, &kernels, &mut |_, _, r| out.push(summary_json(r)));
            out
        };
        let reference = {
            // An empty plan keeps other tests' scoped faults out.
            let _g = goat_runtime::faultpoint::scoped("");
            run(1)
        };
        for seam in ["suite_claim", "suite_emit"] {
            let _g = goat_runtime::faultpoint::scoped(&format!("{seam}:delay:2"));
            for jobs in [1, nproc, 4 * nproc] {
                assert_eq!(reference, run(jobs), "{seam} delay at jobs={jobs}");
            }
        }
    }

    #[test]
    fn split_pool_is_even_capped_and_ordered() {
        // 3 recipients, pool 11: 4/4/3 with the remainder to the
        // earliest indices.
        assert_eq!(split_pool(5, &[0, 2, 4], 11, 100), vec![4, 0, 4, 0, 3]);
        // Caps clamp each grant; excess is dropped.
        assert_eq!(split_pool(3, &[1, 2], 50, 10), vec![0, 10, 10]);
        // Degenerate cases.
        assert_eq!(split_pool(2, &[], 7, 10), vec![0, 0]);
        assert_eq!(split_pool(2, &[0], 0, 10), vec![0, 0]);
    }

    #[test]
    fn per_kernel_checkpoint_paths_are_distinct() {
        let base = Path::new("/tmp/cp.json");
        assert_eq!(per_kernel_checkpoint(base, "moby28462"), Path::new("/tmp/cp.moby28462.json"));
        let bare = Path::new("/tmp/cp");
        assert_eq!(per_kernel_checkpoint(bare, "etcd6873"), Path::new("/tmp/cp.etcd6873"));
        assert_ne!(
            per_kernel_checkpoint(base, "moby28462"),
            per_kernel_checkpoint(base, "etcd6873")
        );
        assert_eq!(suite_manifest_path(base), Path::new("/tmp/cp.suite.json"));
    }

    #[test]
    fn steal_accounting_counts_kernel_switches() {
        // One worker over several kernels must switch streams as each
        // completes: every switch after the first claim is a steal.
        let base = GoatConfig::default().with_iterations(4).with_delay_bound(1);
        let kernels = mixed_kernels();
        let (_, stats) = suite_lines(&base, &SuiteConfig::default().with_jobs(1), &kernels);
        assert!(
            stats.steals >= kernels.len() as u64 - 1,
            "expected at least one steal per kernel transition, got {}",
            stats.steals
        );
        assert!(stats.kernels_inflight_max >= 1);
    }

    #[test]
    fn quarantined_kernels_neither_donate_nor_receive() {
        // Under `keep_running`, a kernel whose every iteration panics
        // is quarantined after 2 consecutive crashes: it halts early
        // but must donate nothing (its skips are forfeited, not
        // banked), and the detected leak kernel must receive nothing —
        // so the realloc pool stays empty and no stream extends.
        let crash = Arc::new(FnProgram::new("suite-crash", || {
            panic!("deliberate suite test crash");
        })) as Arc<dyn Program>;
        let kernels: Vec<Arc<dyn Program>> =
            vec![leak_kernel("q-detected"), crash, clean_kernel("q-clean")];
        let base = GoatConfig::default()
            .with_iterations(8)
            .with_delay_bound(1)
            .keep_running()
            .with_quarantine_crashes(2);
        let (seq, s1) =
            suite_lines(&base, &SuiteConfig::default().with_jobs(1).with_realloc(true), &kernels);
        let (par, s4) =
            suite_lines(&base, &SuiteConfig::default().with_jobs(3).with_realloc(true), &kernels);
        assert_eq!(seq, par);
        assert!(seq[1].contains("quarantined=Some"), "{:?}", seq[1]);
        assert_eq!(s1.budget_donated, 0, "quarantine skips must not be donated");
        assert_eq!(s1.budget_donated, s4.budget_donated);
        assert_eq!(s1.budget_granted, 0, "empty pool must grant nothing");
        // Nobody extended: full-budget kernels report exactly 8 records.
        assert!(seq[0].contains(" n=8 "), "{:?}", seq[0]);
        assert!(seq[2].contains(" n=8 "), "{:?}", seq[2]);
    }
}
