//! Shared host-thread pool for runs.
//!
//! Under the paper's campaign model a kernel is executed thousands of
//! times. Every run executes all of its goroutines as coroutines on one
//! host thread ([`crate::Runtime::run`]); this pool keeps those host
//! threads warm, so a run costs a checkout instead of a
//! `pthread_create`/`join`. A host thread is checked out per run, runs
//! it to its teardown, and returns to the idle stack.
//!
//! Properties:
//!
//! * **Global and shared** — one process-wide pool serves all runtime
//!   instances, so campaign iterations and parallel campaign workers
//!   reuse each other's host threads.
//! * **No semantic impact** — which thread hosts a run is invisible to
//!   scheduling, tracing and replay. Every run is hosted here;
//!   `GOAT_POOL_MAX_IDLE=0` retires each worker after its run, which
//!   gives every run a fresh host thread.
//! * **Bounded retention** — at most `GOAT_POOL_MAX_IDLE` workers
//!   (default 256) stay parked waiting for work; excess workers exit.
//! * **Wedge-proof** — a worker is returned only by its run finishing
//!   teardown. A host wedged by a goroutine stuck outside runtime
//!   primitives is abandoned at the run's teardown deadline (see
//!   [`Runtime::run_monitored`](crate::Runtime)) and replaced by a
//!   freshly parked worker, so one bad run cannot drain the pool.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// An idle worker, addressed by the sending half of its job channel.
struct IdleWorker {
    job_tx: Sender<Job>,
}

/// The process-wide run-host pool.
pub(crate) struct WorkerPool {
    idle: Mutex<Vec<IdleWorker>>,
    max_idle: usize,
    threads_spawned: AtomicU64,
    jobs_reused: AtomicU64,
    workers_retired: AtomicU64,
    abandoned: AtomicU64,
    workers_replaced: AtomicU64,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

/// The global pool (created on first use).
pub(crate) fn global() -> &'static WorkerPool {
    POOL.get_or_init(|| {
        let max_idle = std::env::var("GOAT_POOL_MAX_IDLE")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(256);
        WorkerPool::new(max_idle)
    })
}

/// Account one run host abandoned at a runtime teardown deadline: its
/// worker thread will not return to the idle stack in time. It is
/// replaced by a freshly parked worker (up to the idle cap), so
/// effective parallelism does not decay over a long campaign of wedged
/// runs.
pub(crate) fn note_abandoned() {
    let pool = global();
    pool.abandoned.fetch_add(1, Ordering::Relaxed);
    pool.spawn_parked_replacement();
}

impl WorkerPool {
    fn new(max_idle: usize) -> WorkerPool {
        WorkerPool {
            idle: Mutex::new(Vec::new()),
            max_idle,
            threads_spawned: AtomicU64::new(0),
            jobs_reused: AtomicU64::new(0),
            workers_retired: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            workers_replaced: AtomicU64::new(0),
        }
    }

    /// Run `job` on a pooled worker: check out an idle worker if one is
    /// parked, otherwise spawn a new one. Never blocks on pool state.
    ///
    /// Checkout fails only when the OS refuses a thread; the job is then
    /// dropped (releasing whatever it captured) and the reason is
    /// returned for the caller to surface as an infra failure.
    pub(crate) fn execute(&'static self, job: Job) -> Result<(), String> {
        // Checkout latency is only measured when telemetry is on; the
        // disabled cost is one relaxed atomic load.
        let t0 = goat_metrics::enabled().then(std::time::Instant::now);
        let mut job = job;
        loop {
            let worker = self.idle.lock().expect("pool lock").pop();
            match worker {
                Some(w) => match w.job_tx.send(job) {
                    Ok(()) => {
                        self.jobs_reused.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    // The worker died between parking and checkout
                    // (its channel is closed); take the job back and
                    // try the next one.
                    Err(mpsc::SendError(returned)) => job = returned,
                },
                None => {
                    self.spawn_worker(job)?;
                    break;
                }
            }
        }
        if let Some(t0) = t0 {
            checkout_histogram().record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn spawn_worker(&'static self, first_job: Job) -> Result<(), String> {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        std::thread::Builder::new()
            .name("goat-worker".to_string())
            .spawn(move || self.worker_loop(first_job, job_tx, job_rx))
            .map(|_| {
                self.threads_spawned.fetch_add(1, Ordering::Relaxed);
            })
            .map_err(|e| format!("failed to spawn pool worker thread: {e}"))
    }

    /// Spawn a worker that goes straight to the idle stack, replacing
    /// one lost to abandonment, unless the stack is already at capacity.
    fn spawn_parked_replacement(&'static self) {
        if self.idle.lock().expect("pool lock").len() < self.max_idle
            && self.spawn_worker(Box::new(|| {})).is_ok()
        {
            self.workers_replaced.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn worker_loop(&'static self, first_job: Job, job_tx: Sender<Job>, job_rx: Receiver<Job>) {
        let mut job = first_job;
        loop {
            // Goroutines catch their own panics on their coroutines;
            // anything escaping a run's host loop means the worker is in
            // an unknown state, so it must not be reused.
            if panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                return;
            }
            {
                let mut idle = self.idle.lock().expect("pool lock");
                if idle.len() >= self.max_idle {
                    self.workers_retired.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                idle.push(IdleWorker { job_tx: job_tx.clone() });
            }
            // Park until the next checkout; a closed channel would mean
            // the global pool was dropped, which cannot happen, but exit
            // cleanly regardless.
            match job_rx.recv() {
                Ok(next) => job = next,
                Err(_) => return,
            }
        }
    }
}

/// The pool-checkout latency histogram in the global metrics registry
/// (handle cached so the registry lock is taken once per process).
fn checkout_histogram() -> &'static goat_metrics::Histogram {
    static H: OnceLock<std::sync::Arc<goat_metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| goat_metrics::histogram("pool.checkout_ns"))
}

/// Point-in-time pool counters, for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolStats {
    /// OS threads created by the pool since process start.
    pub threads_spawned: u64,
    /// Runs served by an already-running worker.
    pub jobs_reused: u64,
    /// Workers currently parked awaiting checkout.
    pub idle_now: usize,
    /// Workers that exited because the idle stack was full.
    pub workers_retired: u64,
    /// Run hosts abandoned at a runtime teardown deadline (their worker
    /// threads did not return to the pool in time).
    pub abandoned: u64,
    /// Replacement workers spawned to cover abandoned ones.
    pub workers_replaced: u64,
}

/// Pre-spawn parked workers until at least `target` (capped at the idle
/// limit) are waiting on the idle stack, so a cold process's first
/// burst of runs does not all pay thread-creation cost.
/// Best effort — a failed spawn stops early. Returns how many workers
/// were spawned. Used by the suite orchestrator's warm-resource path.
pub fn prewarm(target: usize) -> usize {
    let pool = global();
    let want = target.min(pool.max_idle);
    let mut spawned = 0usize;
    // Workers park themselves asynchronously after running the empty
    // first job, so spawn by deficit rather than polling the stack.
    let deficit = want.saturating_sub(pool.idle.lock().expect("pool lock").len());
    for _ in 0..deficit {
        if pool.spawn_worker(Box::new(|| {})).is_err() {
            break;
        }
        spawned += 1;
    }
    spawned
}

/// Snapshot the global pool's counters.
pub fn stats() -> PoolStats {
    let pool = global();
    PoolStats {
        threads_spawned: pool.threads_spawned.load(Ordering::Relaxed),
        jobs_reused: pool.jobs_reused.load(Ordering::Relaxed),
        idle_now: pool.idle.lock().expect("pool lock").len(),
        workers_retired: pool.workers_retired.load(Ordering::Relaxed),
        abandoned: pool.abandoned.load(Ordering::Relaxed),
        workers_replaced: pool.workers_replaced.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    /// Serializes the pool tests with each other and with every scoped
    /// fault plan in this binary.
    fn no_faults() -> crate::faultpoint::FaultGuard {
        crate::faultpoint::scoped("")
    }

    fn drain_until(cond: impl Fn() -> bool) {
        for _ in 0..200 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("pool did not settle");
    }

    #[test]
    fn workers_are_reused_sequentially() {
        let _serial = no_faults();
        // A private pool: every other test in this binary checks out
        // workers from the global one concurrently, so only counters no
        // other test can move make an exact assertion sound.
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool::new(256)));
        let ran = Arc::new(AtomicUsize::new(0));
        for i in 0..10 {
            let inner = Arc::clone(&ran);
            pool.execute(Box::new(move || {
                inner.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("checkout");
            // Serialize jobs so each finds the previous worker idle.
            drain_until(|| {
                ran.load(Ordering::SeqCst) > i && pool.idle.lock().expect("pool lock").len() == 1
            });
        }
        assert_eq!(ran.load(Ordering::SeqCst), 10);
        // Ten sequential jobs ran on one thread.
        assert_eq!(pool.threads_spawned.load(Ordering::Relaxed), 1);
        assert_eq!(pool.jobs_reused.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn prewarm_parks_idle_workers() {
        let _serial = no_faults();
        assert_eq!(prewarm(0), 0);
        prewarm(2);
        // Pre-spawned workers run an empty job then park; other tests
        // may park workers too, so only assert the floor.
        drain_until(|| stats().idle_now >= 1);
        // A warm stack satisfies a repeat prewarm without spawning.
        drain_until(|| prewarm(1) == 0);
    }

    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let _serial = no_faults();
        let ran = Arc::new(AtomicUsize::new(0));
        global().execute(Box::new(|| panic!("deliberate test panic"))).expect("checkout");
        let ran2 = Arc::clone(&ran);
        global()
            .execute(Box::new(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("checkout");
        drain_until(|| ran.load(Ordering::SeqCst) == 1);
    }
}
