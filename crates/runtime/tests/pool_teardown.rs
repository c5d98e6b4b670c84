//! Host-pool regression tests that need their own process: the pool
//! is a process-global created on first use, and these tests pin its
//! environment knobs (`GOAT_POOL_MAX_IDLE`, `GOAT_TEARDOWN_TIMEOUT_MS`)
//! before that first use. Everything lives in ONE `#[test]` so the env
//! is set exactly once, ahead of any pool activity.

use goat_runtime::{go, go_named, pool, Chan, Config, Runtime, WaitGroup};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const MAX_IDLE: usize = 4;
const TEARDOWN_MS: u64 = 300;

fn settle(cond: impl Fn() -> bool) {
    for _ in 0..200 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("pool did not settle");
}

#[test]
fn idle_bound_holds_and_wedged_workers_are_abandoned() {
    // Must precede the first pool checkout anywhere in this process.
    std::env::set_var("GOAT_POOL_MAX_IDLE", MAX_IDLE.to_string());
    std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", TEARDOWN_MS.to_string());

    // -- no idle-thread leak past GOAT_POOL_MAX_IDLE ------------------
    // 12 runs (3× the idle cap) from 12 OS threads, each holding its
    // host until all 12 are hosted at once, all complete; afterwards at
    // most MAX_IDLE workers may stay parked and the surplus must have
    // retired.
    let runs = 3 * MAX_IDLE;
    let all_hosted = Arc::new(Barrier::new(runs));
    let callers: Vec<_> = (0..runs as u64)
        .map(|seed| {
            let all_hosted = Arc::clone(&all_hosted);
            std::thread::spawn(move || {
                Runtime::run(Config::new(seed), move || {
                    all_hosted.wait();
                    let wg = WaitGroup::new();
                    wg.add(1);
                    let wg2 = wg.clone();
                    go(move || wg2.done());
                    wg.wait();
                })
            })
        })
        .collect();
    for caller in callers {
        let r = caller.join().expect("caller thread");
        assert!(r.clean(), "{:?}", r.outcome);
    }

    // Hosts re-park just after they signal their run's caller, so poll
    // until the pool fully quiesces — every spawned worker has either
    // retired or landed on the idle stack. (Checking
    // only `idle_now <= MAX_IDLE` races: a straggler still between job
    // completion and park would re-park during the next phase and top
    // the idle stack back up to the cap.)
    settle(|| {
        let s = pool::stats();
        s.threads_spawned == s.workers_retired + s.idle_now as u64
    });
    let s = pool::stats();
    assert!(
        s.idle_now <= MAX_IDLE,
        "idle stack leaked past GOAT_POOL_MAX_IDLE: {} > {MAX_IDLE}",
        s.idle_now
    );
    assert!(s.threads_spawned > MAX_IDLE as u64, "scenario must oversubscribe the cap");
    assert!(s.workers_retired >= 1, "surplus workers must retire, stats: {s:?}");

    // -- wedged worker abandoned at the teardown deadline -------------
    // The goroutine swallows the shutdown unwind and then stalls its
    // host outside all runtime primitives — the historical hang. The
    // caller must give up on the host after GOAT_TEARDOWN_TIMEOUT_MS
    // and write its worker off, not wait for it to return to the idle
    // stack.
    let abandoned_before = pool::stats().abandoned;
    let t0 = Instant::now();
    let r = Runtime::run(Config::new(2), || {
        let ch: Chan<u8> = Chan::new(0);
        go_named("wedger", move || {
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                ch.recv(); // parks forever; unwound at shutdown
            }));
            // Wedged: off the scheduler, blocking the whole host thread.
            std::thread::sleep(Duration::from_secs(10));
        });
        goat_runtime::gosched();
    });
    let elapsed = t0.elapsed();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    assert_eq!(r.alive_at_end.len(), 1, "the wedger must be reported leaked");
    assert!(
        elapsed < Duration::from_secs(3),
        "teardown must abandon the wedged worker within the deadline, took {elapsed:?}"
    );
    let s = pool::stats();
    assert!(
        s.abandoned > abandoned_before,
        "abandoned counter must record the written-off worker, stats: {s:?}"
    );

    // -- abandoned workers are replaced -------------------------------
    // The pool must not bleed capacity: writing off a wedged worker
    // spawns a parked replacement (up to the idle cap), so the next
    // checkout still finds a warm thread.
    assert!(s.workers_replaced >= 1, "pool must replace the abandoned worker, stats: {s:?}");
    assert!(
        (1..=MAX_IDLE).contains(&s.idle_now),
        "replacement must land on the idle stack within the cap, stats: {s:?}"
    );
    // And the replacement is actually usable: a fresh run checks out a
    // host without spawning beyond what the scenario needs.
    let r = Runtime::run(Config::new(3), || {
        let wg = WaitGroup::new();
        wg.add(1);
        let wg2 = wg.clone();
        go(move || wg2.done());
        wg.wait();
    });
    assert!(r.clean(), "{:?}", r.outcome);
}
