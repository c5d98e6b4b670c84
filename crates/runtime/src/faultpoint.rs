//! Deterministic fault injection for supervision testing.
//!
//! The campaign supervision layer (watchdog, retry, quarantine,
//! checkpoint) exists to survive faults that are rare in healthy runs:
//! a wedged OS thread, a failed worker checkout, a full disk under the
//! telemetry sink. This module makes every one of those paths
//! exercisable *on demand and deterministically*, so tests and CI can
//! prove the supervision machinery works without waiting for real
//! infrastructure to misbehave.
//!
//! A fault plan is a comma-separated list of `site:action[:param]`
//! specs, read from the `GOAT_FAULT` environment variable (or installed
//! programmatically by tests via [`scoped`]):
//!
//! ```text
//! GOAT_FAULT=pool_checkout:err:0.3,iter:wedge:seed=17
//! ```
//!
//! Sites and actions understood by the runtime:
//!
//! | site            | action  | param       | effect                                        |
//! |-----------------|---------|-------------|-----------------------------------------------|
//! | `pool_checkout` | `err`   | probability | a goroutine's stack checkout fails → `InfraFailure` outcome |
//! | `iter`          | `wedge` | `seed=N`    | run N's main stalls **outside** runtime primitives (hard watchdog path) |
//! | `iter`          | `spin`  | `seed=N`    | run N's main yields forever **inside** the scheduler (cooperative watchdog path) |
//! | `iter`          | `panic` | `seed=N`    | run N's main panics (kernel-crash path)       |
//! | `worker`        | `kill`  | `<sig>[@seed=N]` | isolated worker raises signal `<sig>` on run N (worker-death forensics path) |
//! | `worker`        | `wedge` | `seed=N`    | isolated worker stops heartbeating on run N (outside-SIGKILL path) |
//! | `worker`        | `garbage-frame` | `seed=N` | isolated worker answers run N with a corrupt frame (protocol-recovery path) |
//! | `suite_finalize` | `delay` | `<ms>`     | a suite worker sleeps between marking a halted kernel complete and finalizing it (realloc-barrier race) |
//! | `suite_claim`   | `delay` | `<ms>`      | an executor worker sleeps between claiming a batch and running it |
//! | `suite_emit`    | `delay` | `<ms>`      | the coordinating worker sleeps between taking a finalized campaign and emitting it |
//!
//! (`sink:err[:after=N]` is honoured by `goat-metrics`' JSONL sink,
//! which sits below this crate; the grammar is shared.)
//!
//! Probability draws come from a dedicated RNG seeded by
//! `GOAT_FAULT_SEED` (default 0), so a fault profile replays exactly.
//! When no plan is installed the per-call cost is one relaxed atomic
//! load, mirroring `goat_metrics::enabled`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Environment variable naming the fault plan.
pub const FAULT_ENV: &str = "GOAT_FAULT";

/// Environment variable seeding the probability-draw RNG.
pub const FAULT_SEED_ENV: &str = "GOAT_FAULT_SEED";

/// A seed-keyed fault fired at the start of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedFault {
    /// Stall the main goroutine outside all runtime primitives — the
    /// watchdog's hard-abandonment path.
    Wedge,
    /// Yield forever inside the scheduler — the watchdog's cooperative
    /// abort path.
    Spin,
    /// Panic — the kernel-crash path.
    Panic,
}

/// A fault fired inside an isolated worker process (`GOAT_ISOLATE=proc`)
/// when it receives the run whose seed matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Raise the given signal on the worker process (worker-death path).
    Kill(i32),
    /// Stop heartbeating without answering — the orchestrator's
    /// no-heartbeat deadline must SIGKILL the worker from outside.
    Wedge,
    /// Answer with a corrupt frame (protocol-recovery path).
    Garbage,
}

#[derive(Debug, Clone)]
enum Action {
    /// Fail with the given probability per draw.
    Err { prob: f64 },
    /// Fire a [`SeedFault`] on the run whose seed matches.
    OnSeed { fault: SeedFault, seed: Option<u64> },
    /// Isolated worker raises `sig` on itself for the matching run.
    WorkerKill { sig: i32, seed: Option<u64> },
    /// Isolated worker answers the matching run with a corrupt frame.
    GarbageFrame { seed: Option<u64> },
    /// Sleep for `ms` milliseconds at the site: widens a race window so
    /// a test hits it on every run.
    Delay { ms: u64 },
}

#[derive(Debug, Clone)]
struct Spec {
    site: String,
    action: Action,
}

struct Plan {
    specs: Vec<Spec>,
    /// The raw spec string the plan was parsed from, so an orchestrator
    /// can propagate the active plan into isolated worker subprocesses
    /// via their environment (see [`current_spec`]).
    raw: String,
    rng: Mutex<SmallRng>,
}

/// Tri-state mirror of the install state so the disabled fast path is
/// one relaxed load: 0 = unresolved, 1 = no plan, 2 = plan installed.
static STATE: AtomicU8 = AtomicU8::new(0);
static PLAN: Mutex<Option<&'static Plan>> = Mutex::new(None);
static INJECTED: AtomicU64 = AtomicU64::new(0);

fn parse_spec(one: &str) -> Option<Spec> {
    let mut parts = one.splitn(3, ':');
    let site = parts.next()?.trim();
    let action = parts.next()?.trim();
    let param = parts.next().map(str::trim);
    if site.is_empty() {
        return None;
    }
    let action = match action {
        "err" => {
            let prob = match param {
                None => 1.0,
                Some(p) => p.strip_prefix("after=").map_or_else(
                    // `after=N` is the sink's grammar; treat it as
                    // always-on here so shared profiles stay valid.
                    || p.parse::<f64>().ok().filter(|p| (0.0..=1.0).contains(p)).unwrap_or(-1.0),
                    |_| 1.0,
                ),
            };
            if prob < 0.0 {
                return None;
            }
            Action::Err { prob }
        }
        "wedge" | "spin" | "panic" => {
            let fault = match action {
                "wedge" => SeedFault::Wedge,
                "spin" => SeedFault::Spin,
                _ => SeedFault::Panic,
            };
            let seed = match param {
                None => None,
                Some(p) => Some(p.strip_prefix("seed=").unwrap_or(p).parse::<u64>().ok()?),
            };
            Action::OnSeed { fault, seed }
        }
        "kill" => {
            // `worker:kill:<sig>` or `worker:kill:<sig>@seed=N`.
            let p = param?;
            let (sig, seed) = match p.split_once("@seed=") {
                Some((sig, seed)) => (sig.trim(), Some(seed.parse::<u64>().ok()?)),
                None => (p, None),
            };
            let sig = sig.parse::<i32>().ok().filter(|&s| (1..=64).contains(&s))?;
            Action::WorkerKill { sig, seed }
        }
        "garbage-frame" => {
            let seed = match param {
                None => None,
                Some(p) => Some(p.strip_prefix("seed=").unwrap_or(p).parse::<u64>().ok()?),
            };
            Action::GarbageFrame { seed }
        }
        "delay" => Action::Delay { ms: param?.parse::<u64>().ok()? },
        _ => return None,
    };
    Some(Spec { site: site.to_string(), action })
}

fn parse_plan(raw: &str) -> Plan {
    let mut specs = Vec::new();
    for one in raw.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match parse_spec(one) {
            Some(s) => specs.push(s),
            None => eprintln!("goat-runtime: ignoring malformed {FAULT_ENV} spec {one:?}"),
        }
    }
    let seed = std::env::var(FAULT_SEED_ENV).ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    Plan { specs, raw: raw.to_string(), rng: Mutex::new(SmallRng::seed_from_u64(seed)) }
}

fn install_locked(slot: &mut Option<&'static Plan>, plan: Option<Plan>) {
    let leaked = plan.filter(|p| !p.specs.is_empty()).map(|p| &*Box::leak(Box::new(p)));
    *slot = leaked;
    STATE.store(if leaked.is_some() { 2 } else { 1 }, Ordering::Relaxed);
}

fn install_plan(plan: Option<Plan>) {
    install_locked(&mut PLAN.lock().expect("fault plan"), plan);
}

#[cold]
fn resolve() -> bool {
    // Re-check the state under the plan lock: a scoped plan installed
    // concurrently with this first-ever active() call (STATE 0 → 2)
    // must not be overwritten by the lazy environment resolution, or
    // the injected faults would silently vanish while the FaultGuard
    // is still alive. Losing the race the other way is harmless: the
    // loser sees STATE != 0 and leaves the installed plan untouched.
    let mut slot = PLAN.lock().expect("fault plan");
    if STATE.load(Ordering::Relaxed) == 0 {
        let plan = std::env::var(FAULT_ENV).ok().filter(|v| !v.is_empty()).map(|v| parse_plan(&v));
        install_locked(&mut slot, plan);
    }
    STATE.load(Ordering::Relaxed) == 2
}

/// Is any fault plan installed for this process?
#[inline]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => resolve(),
        1 => false,
        _ => true,
    }
}

fn with_plan<R>(f: impl FnOnce(&'static Plan) -> R) -> Option<R> {
    if !active() {
        return None;
    }
    let plan = (*PLAN.lock().expect("fault plan"))?;
    Some(f(plan))
}

/// Account one injected fault: bump the process counter and, when
/// telemetry is enabled, the `supervision.faults_injected` registry
/// counter plus a JSONL supervision event.
fn note_injected(site: &str, detail: &str) {
    INJECTED.fetch_add(1, Ordering::Relaxed);
    if goat_metrics::enabled() {
        goat_metrics::counter("supervision.faults_injected").inc();
        goat_metrics::emit(&FaultEvent {
            kind: "supervision",
            op: "fault_injected",
            site: site.to_string(),
            detail: detail.to_string(),
        });
    }
}

/// JSONL record of one injected fault (kind `supervision`).
#[derive(serde::Serialize)]
struct FaultEvent {
    kind: &'static str,
    op: &'static str,
    site: String,
    detail: String,
}

/// Total faults injected by this process since start (all sites).
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Probability-keyed fault draw for `site`; `Some(reason)` when the
/// fault fires this time.
pub fn should_fail(site: &str) -> Option<String> {
    with_plan(|plan| {
        for spec in &plan.specs {
            if spec.site != site {
                continue;
            }
            if let Action::Err { prob } = spec.action {
                let hit = prob >= 1.0
                    || (prob > 0.0 && plan.rng.lock().expect("fault rng").gen_bool(prob));
                if hit {
                    let reason = format!("injected fault: {site}:err");
                    note_injected(site, &reason);
                    return Some(reason);
                }
            }
        }
        None
    })
    .flatten()
}

/// Sleep at `site` when the plan holds a `<site>:delay:<ms>` spec. The
/// seam between two steps of a concurrent protocol calls this, so a
/// test can hold one thread in the gap while the others run on.
pub fn delay(site: &str) {
    let ms = with_plan(|plan| {
        plan.specs.iter().find_map(|spec| match spec.action {
            Action::Delay { ms } if spec.site == site => Some(ms),
            _ => None,
        })
    })
    .flatten();
    if let Some(ms) = ms {
        note_injected(site, &format!("injected fault: {site}:delay:{ms}"));
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Seed-keyed fault for `site` (a spec without `seed=` fires on every
/// run); `Some` when the run with this seed must misbehave.
pub fn seed_fault(site: &str, seed: u64) -> Option<SeedFault> {
    with_plan(|plan| {
        for spec in &plan.specs {
            if spec.site != site {
                continue;
            }
            if let Action::OnSeed { fault, seed: want } = spec.action {
                if want.is_none_or(|w| w == seed) {
                    note_injected(site, &format!("injected fault: {site}:{fault:?} seed={seed}"));
                    return Some(fault);
                }
            }
        }
        None
    })
    .flatten()
}

/// Seed-keyed worker fault for isolated runs (a spec without a seed
/// fires on every run); `Some` when the worker hosting this seed must
/// die, wedge, or corrupt its answer. Consulted by the worker itself on
/// receipt of a run request, so the fault fires deterministically inside
/// the sandbox regardless of which pool slot picked the run up.
pub fn worker_fault(seed: u64) -> Option<WorkerFault> {
    with_plan(|plan| {
        for spec in &plan.specs {
            if spec.site != "worker" {
                continue;
            }
            let (fault, want) = match spec.action {
                Action::WorkerKill { sig, seed: want } => (WorkerFault::Kill(sig), want),
                Action::OnSeed { fault: SeedFault::Wedge, seed: want } => {
                    (WorkerFault::Wedge, want)
                }
                Action::GarbageFrame { seed: want } => (WorkerFault::Garbage, want),
                _ => continue,
            };
            if want.is_none_or(|w| w == seed) {
                note_injected("worker", &format!("injected fault: worker:{fault:?} seed={seed}"));
                return Some(fault);
            }
        }
        None
    })
    .flatten()
}

/// The raw spec string of the active fault plan, whether it came from
/// `GOAT_FAULT` or a [`scoped`] installation. Orchestrators use this to
/// re-inject the plan into isolated worker subprocesses (which otherwise
/// would not see a test's in-process scoped plan).
pub fn current_spec() -> Option<String> {
    with_plan(|plan| plan.raw.clone())
}

/// Serializes scoped fault installations: two [`scoped`] plans are never
/// installed at once. An installed plan is still process-wide, so code
/// running concurrently *without* a guard (and any isolated worker it
/// spawns, which inherits the plan through its environment) sees it; a
/// test that must run plan-free holds `scoped("")` for its whole run.
static SCOPE: Mutex<()> = Mutex::new(());

/// Clears the scoped fault plan on drop.
pub struct FaultGuard {
    _scope: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        install_plan(None);
    }
}

/// Install a fault plan for the lifetime of the returned guard (test
/// hook). Guards serialize on a process-wide lock, so parallel tests
/// using faults do not interleave; code that never calls [`scoped`] is
/// unaffected.
pub fn scoped(spec: &str) -> FaultGuard {
    let scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
    install_plan(Some(parse_plan(spec)));
    FaultGuard { _scope: scope }
}

/// One-time leak sink for scoped plans: `install_plan` leaks each plan
/// (they are tiny and tests install a handful); keep clippy honest.
static _LEAK_NOTE: OnceLock<()> = OnceLock::new();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let plan = parse_plan("pool_checkout:err:0.3,iter:wedge:seed=17");
        assert_eq!(plan.specs.len(), 2);
        assert!(matches!(plan.specs[0].action, Action::Err { prob } if (prob - 0.3).abs() < 1e-9));
        assert!(matches!(
            plan.specs[1].action,
            Action::OnSeed { fault: SeedFault::Wedge, seed: Some(17) }
        ));
    }

    #[test]
    fn malformed_specs_are_dropped() {
        let plan = parse_plan("nonsense,iter:frobnicate:9,:err,iter:panic:seed=3");
        assert_eq!(plan.specs.len(), 1);
        assert!(matches!(
            plan.specs[0].action,
            Action::OnSeed { fault: SeedFault::Panic, seed: Some(3) }
        ));
    }

    #[test]
    fn scoped_plan_fires_and_clears() {
        {
            let _g = scoped("pool_checkout:err:1.0,iter:spin:seed=5");
            assert!(active());
            assert!(should_fail("pool_checkout").is_some());
            assert!(should_fail("other_site").is_none());
            assert_eq!(seed_fault("iter", 5), Some(SeedFault::Spin));
            assert_eq!(seed_fault("iter", 6), None);
        }
        assert!(should_fail("pool_checkout").is_none());
        assert_eq!(seed_fault("iter", 5), None);
    }

    #[test]
    fn parses_worker_profiles() {
        let plan = parse_plan("worker:kill:6@seed=11,worker:wedge:seed=3,worker:garbage-frame");
        assert_eq!(plan.specs.len(), 3);
        assert!(matches!(plan.specs[0].action, Action::WorkerKill { sig: 6, seed: Some(11) }));
        assert!(matches!(
            plan.specs[1].action,
            Action::OnSeed { fault: SeedFault::Wedge, seed: Some(3) }
        ));
        assert!(matches!(plan.specs[2].action, Action::GarbageFrame { seed: None }));
        // Malformed worker specs are dropped, not misparsed.
        assert!(parse_spec("worker:kill").is_none());
        assert!(parse_spec("worker:kill:notasig").is_none());
        assert!(parse_spec("worker:kill:99").is_none());
        assert!(parse_spec("worker:garbage-frame:seed=x").is_none());
    }

    #[test]
    fn parses_delay_seams() {
        for seam in ["suite_finalize", "suite_claim", "suite_emit"] {
            let spec = parse_spec(&format!("{seam}:delay:20")).expect("valid delay");
            assert_eq!(spec.site, seam);
            assert!(matches!(spec.action, Action::Delay { ms: 20 }));
        }
        assert!(parse_spec("suite_finalize:delay").is_none());
        assert!(parse_spec("suite_finalize:delay:soon").is_none());
    }

    #[test]
    fn worker_faults_fire_by_seed() {
        {
            let _g = scoped("worker:kill:9@seed=4,worker:garbage-frame:seed=7");
            assert_eq!(worker_fault(4), Some(WorkerFault::Kill(9)));
            assert_eq!(worker_fault(7), Some(WorkerFault::Garbage));
            assert_eq!(worker_fault(5), None);
            // `iter` faults never leak into the worker site.
            assert_eq!(seed_fault("iter", 4), None);
        }
        assert_eq!(worker_fault(4), None);
    }

    #[test]
    fn worker_wedge_maps_onto_worker_fault() {
        let _g = scoped("worker:wedge:seed=2");
        assert_eq!(worker_fault(2), Some(WorkerFault::Wedge));
        assert_eq!(worker_fault(3), None);
    }

    #[test]
    fn current_spec_reflects_scoped_plan() {
        {
            let _g = scoped("worker:kill:6@seed=1");
            assert_eq!(current_spec().as_deref(), Some("worker:kill:6@seed=1"));
        }
        assert_eq!(current_spec(), None);
    }

    #[test]
    fn probability_draws_are_deterministic() {
        let hits = |spec: &str| {
            let _g = scoped(spec);
            (0..64).filter(|_| should_fail("pool_checkout").is_some()).count()
        };
        let a = hits("pool_checkout:err:0.5");
        let b = hits("pool_checkout:err:0.5");
        assert_eq!(a, b, "same plan + same seed must draw identically");
        assert!(a > 0 && a < 64);
    }
}
