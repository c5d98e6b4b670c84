//! Teardown of goroutines still alive when a run ends: every one is
//! unwound (or, if it never ran, dropped) on its run's host thread, so
//! everything it captured is dropped exactly once, and a run never
//! costs more than its one host thread.
//!
//! The tests share the process-global host pool and assert on its
//! counters, so they serialize on one lock.

use goat_runtime::{go, go_named, gosched, pool, time, Chan, Cond, Config, RunOutcome, Runtime};
use goat_runtime::{Mutex, Select, WaitGroup};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts its drops.
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn counters(n: usize) -> Vec<Arc<AtomicUsize>> {
    (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect()
}

fn drops(cs: &[Arc<AtomicUsize>]) -> Vec<usize> {
    cs.iter().map(|c| c.load(Ordering::SeqCst)).collect()
}

#[test]
fn goroutines_blocked_at_exit_drop_what_they_hold_exactly_once() {
    let _serial = serial();
    let cs = counters(6);
    let held: Vec<Counted> = cs.iter().map(|c| Counted(Arc::clone(c))).collect();
    let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), move || {
        let mut held = held.into_iter();
        let mut hold = move || held.next().expect("one value per goroutine");

        let ch: Chan<u8> = Chan::new(0);
        let (rx, sel_rx) = (ch.clone(), ch.clone());
        let c = hold();
        go_named("chan-recv", move || {
            let _c = c;
            rx.recv();
        });

        let mu = Mutex::new();
        mu.lock();
        let mu2 = mu.clone();
        let c = hold();
        go_named("mutex", move || {
            let _c = c;
            mu2.lock();
        });

        let wg = WaitGroup::new();
        wg.add(1);
        let wg2 = wg.clone();
        let c = hold();
        go_named("waitgroup", move || {
            let _c = c;
            wg2.wait();
        });

        let c = hold();
        go_named("select", move || {
            let _c = c;
            let never: Chan<u8> = Chan::new(0);
            Select::new().recv(&sel_rx, |_| ()).recv(&never, |_| ()).run();
        });

        let cmu = Mutex::new();
        let cv = Cond::new(&cmu);
        let c = hold();
        go_named("cond", move || {
            let _c = c;
            cmu.lock();
            cv.wait();
        });

        let c = hold();
        go_named("sleep", move || {
            let _c = c;
            time::sleep(Duration::from_secs(3600));
        });

        // FIFO run queue, no preemption: each goroutine runs once and
        // blocks before main returns.
        for _ in 0..8 {
            gosched();
        }
    });
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    let mut alive: Vec<&str> = r.alive_at_end.iter().map(|a| a.name.as_str()).collect();
    alive.sort_unstable();
    assert_eq!(alive, ["chan-recv", "cond", "mutex", "select", "sleep", "waitgroup"]);
    assert_eq!(drops(&cs), [1; 6], "every blocked goroutine's capture dropped exactly once");
}

#[test]
fn goroutines_that_never_ran_drop_their_bodies_exactly_once() {
    let _serial = serial();
    let cs = counters(3);
    let held: Vec<Counted> = cs.iter().map(|c| Counted(Arc::clone(c))).collect();
    let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), move || {
        for c in held {
            go(move || drop(c));
        }
        // A Go-level panic before any child is scheduled decides the
        // outcome; the children are still runnable and never start.
        let ch: Chan<u8> = Chan::new(1);
        ch.close();
        ch.send(0);
    });
    assert!(matches!(r.outcome, RunOutcome::Panicked { .. }), "{:?}", r.outcome);
    assert_eq!(drops(&cs), [1; 3]);
}

#[test]
fn two_hundred_blocked_goroutines_share_one_host_thread() {
    let _serial = serial();
    const N: usize = 200;
    let run = |seed: u64| {
        let cs = counters(N);
        let held: Vec<Counted> = cs.iter().map(|c| Counted(Arc::clone(c))).collect();
        let r = Runtime::run(Config::new(seed).with_native_preempt_prob(0.0), move || {
            let ch: Chan<u8> = Chan::new(0);
            for c in held {
                let rx = ch.clone();
                go(move || {
                    let _c = c;
                    rx.recv();
                });
            }
            gosched();
        });
        assert!(r.outcome.is_completed(), "{:?}", r.outcome);
        assert_eq!(r.alive_at_end.len(), N);
        assert!(drops(&cs).iter().all(|&d| d == 1), "every goroutine unwound exactly once");
    };
    // Warm-up: two idle hosts, so a run never has to wait for the
    // previous run's host to re-park.
    pool::prewarm(2);
    run(0);
    run(1);
    let before = pool::stats().threads_spawned;
    for seed in 2..12 {
        run(seed);
    }
    let after = pool::stats().threads_spawned;
    assert_eq!(before, after, "200-goroutine runs must not spawn threads once warm");
}
