//! Suite-scale orchestration: one global work-stealing iteration queue
//! over every selected kernel.
//!
//! The paper's whole-benchmark evaluation (`-eval_conf … -freq`) runs a
//! *suite* of campaigns, and historically the CLI ran them strictly
//! sequentially: each kernel finished — saturation tail included —
//! before the next one started. [`run_suite`] turns the suite itself
//! into the unit of execution:
//!
//! * **Global work stealing** — every kernel becomes a claimable
//!   *iteration stream* (`next`/`merged`/`cutoff` plus the familiar
//!   lag-capped claim window) and `jobs` long-lived workers claim
//!   batches from whichever stream has work, preferring the stream they
//!   last ran (affinity) and stealing across kernels otherwise. One
//!   kernel's saturation tail no longer serializes the suite.
//! * **Determinism** — per-kernel results are byte-identical to the
//!   sequential suite at any `jobs` value: every iteration's seed is
//!   fixed up front (`seed0 + i`), merging is the only stateful step
//!   and each kernel's merges happen in strict iteration order behind a
//!   per-kernel reorder buffer. Cross-kernel interleaving touches no
//!   per-kernel state. Guided campaigns keep the claim window capped at
//!   the bandit's feedback lag, the same argument as the streaming
//!   executor's. Report lines render through a *kernel-granularity*
//!   reorder buffer: the `emit` callback always fires in kernel order.
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
//! * **Warm shared resources** — the goroutine worker-thread pool and
//!   the trace-buffer pool are process-wide and stay warm by nature;
//!   this module additionally recycles the per-campaign analysis
//!   scratch ([`EctBuffers`]) from finished kernels into later ones
//!   (scratch contents never affect results — it is cleared per pass)
//!   and, under `GOAT_ISOLATE=proc`, keeps sandboxed workers pooled
//!   across kernels instead of draining per campaign (checkouts
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

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

use goat_metrics::Histogram;
use goat_runtime::RunResult;

use crate::bandit::{Arm, Bandit, GUIDED_LAG};
use crate::checkpoint;
use crate::plane::EctBuffers;
use crate::program::Program;
use crate::runner::{CampaignResult, Checkpointer, Goat, GoatConfig, MergeState};

/// Environment knob for the suite's cross-kernel worker count.
pub const JOBS_ENV: &str = "GOAT_JOBS";
/// Environment knob enabling adaptive budget reallocation.
pub const REALLOC_ENV: &str = "GOAT_SUITE_REALLOC";
/// Schema version of the suite manifest sidecar.
pub const SUITE_MANIFEST_VERSION: u32 = 1;

/// Suite-level orchestration knobs, separate from the per-campaign
/// [`GoatConfig`] they multiplex.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Workers claiming iterations across kernels (`-jobs`/`GOAT_JOBS`;
    /// defaults to `GOAT_PARALLELISM`, then 1). Results are identical
    /// at any value.
    pub jobs: usize,
    /// Adaptive budget reallocation (`GOAT_SUITE_REALLOC`): early
    /// stoppers donate unspent base budget to still-exploring kernels.
    /// Off by default — it extends some kernels' budgets, which changes
    /// (deterministically) what the suite reports.
    pub realloc: bool,
    /// Keep shared resources warm across kernels: pre-spawn the
    /// goroutine pool and recycle analysis scratch between campaigns.
    /// On by default; the bench's cold leg turns it off.
    pub warm: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        let env_jobs = |name: &str| {
            std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok()).filter(|n| *n >= 1)
        };
        SuiteConfig {
            jobs: env_jobs(JOBS_ENV).or_else(|| env_jobs("GOAT_PARALLELISM")).unwrap_or(1),
            realloc: matches!(
                std::env::var(REALLOC_ENV).ok().as_deref(),
                Some("1") | Some("on") | Some("true") | Some("yes")
            ),
            warm: true,
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

    /// Enable or disable warm-resource reuse across kernels.
    pub fn with_warm(mut self, on: bool) -> Self {
        self.warm = on;
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

/// One kernel's claimable iteration stream, guarded by the suite
/// queue's lock.
struct Stream {
    /// Next unclaimed iteration index.
    next: usize,
    /// Iterations merged so far (claims stay < `merged + window`).
    merged: usize,
    /// One past the last claimable index; grows on an extension grant.
    cutoff: usize,
    /// Claim window (capped at [`GUIDED_LAG`] for guided campaigns).
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
}

/// The global work-stealing queue: one lock, two condvars (workers wait
/// for claimable work; the coordinator waits for completions).
struct SuiteQueue {
    state: StdMutex<QueueState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl SuiteQueue {
    /// Claim up to one batch of contiguous iterations from some
    /// kernel's stream, preferring `last` (the worker's previous
    /// kernel) and stealing from the next claimable stream otherwise.
    /// Blocks while nothing is claimable; `None` once the suite is
    /// over.
    fn claim(&self, last: Option<usize>) -> Option<(usize, usize, usize)> {
        let mut st = self.state.lock().expect("suite queue");
        loop {
            if st.shutdown {
                return None;
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
                return Some((k, lo, hi));
            }
            st = self.work_cv.wait(st).expect("suite queue");
        }
    }
}

/// Everything one kernel's merge thread-of-record owns, behind the
/// slot's lock: the campaign merge state, the iteration-order reorder
/// buffer, and the checkpoint writer.
struct SlotMerge {
    m: MergeState,
    reorder: BTreeMap<usize, RunResult>,
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

/// One kernel of the suite: its program, configured campaign engine,
/// live merge state and (after finalize) its result, awaiting in-order
/// emission.
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

/// Analysis scratch recycled from finished kernels into later ones.
struct WarmPool {
    bufs: StdMutex<Vec<EctBuffers>>,
    reused: AtomicU64,
    enabled: bool,
}

/// End-of-suite orchestration summary on the JSONL telemetry stream.
#[derive(serde::Serialize)]
struct SuiteEvent {
    kind: &'static str,
    suite: SuiteStats,
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
            for (off, r) in results.into_iter().enumerate() {
                sm.reorder.insert(lo + off, r);
            }
            sm.reorder_depth_max = sm.reorder_depth_max.max(sm.reorder.len());
            while let Some(r) = sm.reorder.remove(&sm.expect) {
                if !sm.halted {
                    if warm.enabled && !sm.warmed {
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
                // speculative claims: discarded, exactly like the
                // streaming executor's post-stop claims.
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
        queue.work_cv.notify_all();
        queue.done_cv.notify_all();
        finalize
    };
    if finalize {
        goat_runtime::faultpoint::delay("suite_finalize");
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
    if warm.enabled {
        warm.bufs.lock().expect("warm pool").push(std::mem::take(&mut sm.m.bufs));
    }
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
        queue.work_cv.notify_all();
    }
    queue.done_cv.notify_all();
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

/// The reallocation barrier: every stream has completed its base
/// budget. Compute grants from the (deterministic) base-phase results —
/// or adopt the grants a resumed manifest recorded — persist them, then
/// re-open the recipients' streams and finalize the rest.
#[allow(clippy::too_many_arguments)]
fn apply_realloc(
    slots: &[Slot],
    queue: &SuiteQueue,
    warm: &WarmPool,
    base_iters: usize,
    preset: Option<&Vec<usize>>,
    manifest_path: Option<&PathBuf>,
    fingerprint: &str,
    names: &[String],
) {
    let (pool, pending): (usize, Vec<usize>) = {
        let st = queue.state.lock().expect("suite queue");
        (
            st.streams.iter().map(|s| s.released).sum(),
            st.streams.iter().enumerate().filter(|(_, s)| s.pending).map(|(k, _)| k).collect(),
        )
    };
    let grants = match preset {
        Some(g) => g.clone(),
        None => {
            // Recipients: pending streams (ran the full base budget
            // without stopping) that are still exploring — detected
            // kernels under `keep_running` are done, not starving.
            let recipients: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&k| {
                    let live = slots[k].live.lock().expect("slot merge");
                    live.as_ref().is_some_and(|sm| sm.m.first_detection.is_none())
                })
                .collect();
            let grants = split_pool(slots.len(), &recipients, pool, base_iters);
            if let Some(path) = manifest_path {
                SuiteManifest {
                    version: SUITE_MANIFEST_VERSION,
                    fingerprint: fingerprint.to_string(),
                    kernels: names.to_vec(),
                    grants: Some(grants.clone()),
                }
                .store(path);
            }
            grants
        }
    };
    let to_finalize: Vec<usize> = {
        let mut st = queue.state.lock().expect("suite queue");
        st.barrier_open = true;
        st.budget_donated = pool;
        st.budget_granted = grants.iter().sum();
        let mut finalize = Vec::new();
        for &k in &pending {
            if grants[k] > 0 {
                let s = &mut st.streams[k];
                s.cutoff += grants[k];
                s.complete = false;
                s.pending = false;
            } else {
                st.streams[k].pending = false;
                finalize.push(k);
            }
        }
        queue.work_cv.notify_all();
        finalize
    };
    for k in to_finalize {
        finalize_slot(slots, queue, warm, k);
    }
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
    let mut stats = SuiteStats { kernels: kernels.len(), jobs, ..SuiteStats::default() };
    if kernels.is_empty() {
        return stats;
    }
    let telemetry_on = goat_metrics::enabled();
    let reg = goat_metrics::global();
    let isolate_reused_before = reg.counter("isolate.workers_reused").get();
    if suite.warm {
        // Pre-spawn parked goroutine-pool workers so the first claims
        // of a cold process do not all pay thread-creation cost.
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
    if let Some(path) = &manifest_path {
        if preset_grants.is_none() {
            SuiteManifest {
                version: SUITE_MANIFEST_VERSION,
                fingerprint: fingerprint.clone(),
                kernels: names.clone(),
                grants: None,
            }
            .store(path);
        }
    }

    let warm = WarmPool {
        bufs: StdMutex::new(Vec::new()),
        reused: AtomicU64::new(0),
        enabled: suite.warm,
    };

    // Build every kernel's slot and stream. Resume happens here, before
    // any worker runs: a kernel whose sidecar says it already stopped
    // (or already spent its budget) starts complete, re-running
    // nothing — that is what keeps suite resume byte-identical.
    let mut slots: Vec<Slot> = Vec::with_capacity(kernels.len());
    let mut streams: Vec<Stream> = Vec::with_capacity(kernels.len());
    let mut init_finalize: Vec<usize> = Vec::new();
    for (k, program) in kernels.iter().enumerate() {
        let name = names[k].clone();
        let mut cfg = base.clone();
        if let Some(bp) = &base.checkpoint {
            cfg.checkpoint = Some(per_kernel_checkpoint(bp, &name));
        }
        let goat = Goat::new(cfg);
        let cfg = goat.config();
        let table = Goat::static_model(program.as_ref());
        let mut m = MergeState::new(table);
        // The bandit must exist before resume so a checkpoint's reward
        // history lands back in it.
        m.guided = cfg.guided.then(|| {
            Arc::new(StdMutex::new(Bandit::new(cfg.seed0, cfg.strategy, cfg.delay_bound)))
        });
        let guided = m.guided.clone();
        let ckpt = Checkpointer::new(cfg, &name);
        let start = ckpt.as_ref().map_or(0, |c| c.resume(&mut m));
        let resumed_stopped = m.quarantined.is_some()
            || m.saturated.is_some()
            || (cfg.stop_on_bug && m.bug.is_some())
            || cfg
                .coverage_threshold
                .is_some_and(|th| start > 0 && m.covered.percent(&m.universe) >= th);
        let mut window = jobs * 4;
        if cfg.guided {
            window = window.min(GUIDED_LAG);
        }
        let cutoff = cfg.iterations + preset_grants.as_ref().map_or(0, |g| g[k]);
        let stream = Stream {
            next: start,
            merged: start,
            cutoff,
            window: window.max(1),
            batch: cfg.effective_batch(),
            halted: resumed_stopped,
            complete: resumed_stopped || start >= cutoff,
            pending: !resumed_stopped
                && start >= cutoff
                && suite.realloc
                && preset_grants.is_none(),
            inflight: 0,
            // A kernel resumed as already stopped donates here, since
            // no delivery will ever record it.
            released: if resumed_stopped { released_budget(cfg, &m) } else { 0 },
        };
        let t0 = telemetry_on.then(Instant::now);
        slots.push(Slot {
            name,
            program: Arc::clone(program),
            goat,
            guided,
            live: StdMutex::new(Some(SlotMerge {
                m,
                reorder: BTreeMap::new(),
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
        });
        if stream.complete && !stream.pending {
            init_finalize.push(k);
        }
        streams.push(stream);
    }

    let queue = SuiteQueue {
        state: StdMutex::new(QueueState {
            streams,
            cursor: 0,
            finalized: 0,
            barrier_open: !suite.realloc || preset_grants.is_some(),
            shutdown: false,
            steals: 0,
            inflight_max: 0,
            budget_donated: 0,
            budget_granted: preset_grants.as_ref().map_or(0, |g| g.iter().sum()),
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    };
    for k in init_finalize {
        finalize_slot(&slots, &queue, &warm, k);
    }

    let slots_ref = &slots;
    let queue_ref = &queue;
    let warm_ref = &warm;
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(move || {
                let mut last: Option<usize> = None;
                loop {
                    let t_claim = telemetry_on.then(Instant::now);
                    let Some((k, lo, hi)) = queue_ref.claim(last) else { return };
                    let slot = &slots_ref[k];
                    if let Some(t) = t_claim {
                        slot.claim_wait.record(t.elapsed().as_nanos() as u64);
                    }
                    last = Some(k);
                    // Arm selection happens at claim time in iteration
                    // order; the lag-capped window guarantees the
                    // rewards `select(i)` reads are already merged.
                    let arms: Vec<Option<Arm>> =
                        (lo..hi).map(|i| Goat::select_arm(&slot.guided, i)).collect();
                    let t_iter = telemetry_on.then(Instant::now);
                    let results = slot.goat.run_batch_supervised(lo, &slot.program, &arms);
                    if let Some(t) = t_iter {
                        let per = t.elapsed().as_nanos() as u64 / arms.len() as u64;
                        for _ in 0..arms.len() {
                            slot.iter_wall.record(per);
                        }
                    }
                    deliver(slots_ref, queue_ref, warm_ref, k, lo, results);
                }
            });
        }

        // Coordinator: emit finished kernels in kernel order, open the
        // reallocation barrier when every base phase is done, stop when
        // everything is finalized.
        let mut next_emit = 0usize;
        loop {
            while next_emit < slots.len() {
                let taken = slots[next_emit].done.lock().expect("slot result").take();
                let Some(mut r) = taken else { break };
                emit(next_emit, &slots[next_emit].name, &mut r);
                // Suite mode renders no per-bug trace report, so the
                // bug trace (if any) goes straight back to the
                // recycling pool.
                r.recycle_bug_trace();
                next_emit += 1;
            }
            let st = queue.state.lock().expect("suite queue");
            if st.finalized == slots.len() {
                break;
            }
            if !st.barrier_open && st.streams.iter().all(|s| s.complete) {
                drop(st);
                apply_realloc(
                    slots_ref,
                    queue_ref,
                    warm_ref,
                    base.iterations,
                    preset_grants.as_ref(),
                    manifest_path.as_ref(),
                    &fingerprint,
                    &names,
                );
                continue;
            }
            drop(queue.done_cv.wait(st).expect("suite queue"));
        }
        while next_emit < slots.len() {
            let taken = slots[next_emit].done.lock().expect("slot result").take();
            let mut r = taken.expect("every kernel finalized");
            emit(next_emit, &slots[next_emit].name, &mut r);
            r.recycle_bug_trace();
            next_emit += 1;
        }
    });

    if telemetry_on {
        goat_metrics::set_context(None);
    }
    {
        let st = queue.state.lock().expect("suite queue");
        stats.steals = st.steals;
        stats.kernels_inflight_max = st.inflight_max;
        stats.budget_donated = st.budget_donated;
        stats.budget_granted = st.budget_granted;
    }
    stats.warm_bufs_reused = warm.reused.load(Ordering::Relaxed);
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
    if telemetry_on {
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
        // complete and its finalize. With one worker the last kernel,
        // a leak that stops on its first iteration, is the one that
        // opens the barrier, so the coordinator reallocates while that
        // donor is still in the gap. Its unspent budget must be in the
        // pool all the same.
        let _g = goat_runtime::faultpoint::scoped("suite_finalize:delay:50");
        let base = GoatConfig::default().with_iterations(10).with_delay_bound(1);
        let suite = SuiteConfig::default().with_jobs(1).with_realloc(true);
        let mut unspent = 0;
        let stats = run_suite(&base, &suite, &mixed_kernels(), &mut |_, name, result| {
            if name.contains("leak") {
                unspent += 10 - result.records.len();
            }
        });
        assert!(unspent > 0, "leak kernels should stop early");
        assert_eq!(stats.budget_donated, unspent, "a donor's budget is missing from the pool");
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
        let base = GoatConfig::default().with_iterations(4).with_delay_bound(1);
        let kernels = mixed_kernels();
        let (_, warm) = suite_lines(&base, &SuiteConfig::default().with_jobs(1), &kernels);
        assert!(
            warm.warm_bufs_reused >= 1,
            "sequential suite should chain scratch across kernels, got {}",
            warm.warm_bufs_reused
        );
        let (_, cold) =
            suite_lines(&base, &SuiteConfig::default().with_jobs(1).with_warm(false), &kernels);
        assert_eq!(cold.warm_bufs_reused, 0, "cold suite must not touch the warm pool");
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
