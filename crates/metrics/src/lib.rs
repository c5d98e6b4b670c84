//! # goat-metrics — campaign telemetry for GoAT
//!
//! A small, dependency-light observability layer shared by the
//! runtime, campaign engine and bench binaries:
//!
//! - a process-wide [`Registry`] of counters, gauges and log2-bucket
//!   [`Histogram`]s (optionally labeled by kernel/variant), rendered
//!   as a human summary table by the bench binaries' `--stats` flag;
//! - an opt-in JSONL event stream ([`sink`]) activated by
//!   `GOAT_TELEMETRY=path`, buffered and flushed on teardown *and*
//!   panic so crashed campaigns still leave parseable output;
//! - a single global on/off switch ([`enabled`]) that hot paths check
//!   with one relaxed atomic load, keeping the disabled-telemetry
//!   overhead unmeasurable.
//!
//! The crate is a leaf: it depends only on (vendored) serde and
//! serde_json, so any layer of the workspace can use it without
//! cycles.
//!
//! ## Metric-name inventory
//!
//! Names are flat dotted strings registered by the layers above; this
//! is the canonical list (grep for the literal to find the producer):
//!
//! | prefix | names |
//! |---|---|
//! | `sched.*` (per-run scheduler) | `picks`, `random_picks`, `blocks`, `unblocks`, `yields_injected` |
//! | `run.*` / `runtime.*` | `run.steps`, `runtime.runs` |
//! | `pool.*` (run-host pool) | `checkout_ns` (histogram) |
//! | `ect.*` / `coverage.*` | `ect.events`, `coverage.requirements`, `coverage.trace_events` |
//! | `campaign.*` | `iterations`, `reorder_depth_max`, `memo_hits` / `memo_misses` (duplicate-schedule analysis memo) |
//! | `supervision.*` | `timeouts`, `retries`, `infra_failures`, `quarantines`, `faults_injected`, `checkpoint_writes`, `checkpoint_resumes` |
//! | `guided.*` | `arm_pulls`, `arm_new_coverage` (labelled `arm<idx>:<strategy>`; guided campaigns only) |
//! | `isolate.*` (process-isolation worker pool) | `workers_spawned`, `workers_reused`, `workers_killed`, `workers_died`, `workers_drained` (idle pool teardown: per campaign for lone runs, per suite in suite mode), `runs`; IPC data plane: `ipc_ser_ns` / `ipc_transport_ns` / `ipc_deser_ns` (per-run encode, write→result-arrival, decode histograms), `ipc_bytes_tx` / `ipc_bytes_rx` (bytes on the wire, counters) |
//! | `suite.*` (suite orchestrator, `-target all`) | `kernels`, `jobs`, `steals` (cross-kernel claim switches), `kernels_inflight_max`, `budget_donated` / `budget_granted` (adaptive reallocation), `warm_bufs_reused` (analysis scratch recycled across kernels), `isolate_workers_reused` (sandboxed-worker checkouts served warm during the suite) |
//! | `telemetry.*` | `events_dropped` (sink back-pressure) |

#![warn(missing_docs)]

mod registry;
pub mod sink;

pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, HISTOGRAM_BUCKETS};
pub use sink::{emit, flush, TELEMETRY_ENV};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Tri-state for lazy env resolution: 0 = unresolved, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);
static FORCED: AtomicBool = AtomicBool::new(false);

/// Is telemetry collection enabled for this process?
///
/// Hot paths gate per-event work on this: one relaxed atomic load.
/// Resolves lazily on first call: on if `GOAT_TELEMETRY` names a path
/// or [`set_enabled`]`(true)` was called, off otherwise.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => resolve_enabled(),
        1 => false,
        _ => true,
    }
}

#[cold]
fn resolve_enabled() -> bool {
    let on = FORCED.load(Ordering::Relaxed)
        || std::env::var_os(sink::TELEMETRY_ENV).is_some_and(|v| !v.is_empty());
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Force telemetry collection on or off (used by `--stats` and tests).
pub fn set_enabled(on: bool) {
    FORCED.store(on, Ordering::Relaxed);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The process-wide metrics registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The current label context (kernel/variant under test).
static CONTEXT: Mutex<Option<String>> = Mutex::new(None);

/// Set the label attached to subsequently reported labeled metrics —
/// campaigns set this to the program name under test. `None` clears it.
pub fn set_context(label: Option<&str>) {
    *CONTEXT.lock().expect("metrics context") = label.map(str::to_string);
}

/// The current label context, if any.
pub fn context() -> Option<String> {
    CONTEXT.lock().expect("metrics context").clone()
}

/// Convenience: a counter in the global registry labeled with the
/// current [`context`].
pub fn counter(name: &'static str) -> std::sync::Arc<Counter> {
    global().counter_with(name, context().as_deref())
}

/// Convenience: an unlabeled histogram in the global registry.
pub fn histogram(name: &'static str) -> std::sync::Arc<Histogram> {
    global().histogram(name)
}

/// Convenience: an unlabeled gauge in the global registry.
pub fn gauge(name: &'static str) -> std::sync::Arc<Gauge> {
    global().gauge(name)
}

#[cfg(test)]
mod tests {
    #[test]
    fn set_enabled_toggles() {
        super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
    }

    #[test]
    fn context_roundtrip() {
        super::set_context(Some("etcd6708"));
        assert_eq!(super::context().as_deref(), Some("etcd6708"));
        super::set_context(None);
        assert_eq!(super::context(), None);
    }
}
