//! Supervision still reaches the campaign path now that runs without a
//! watchdog are hosted by the calling thread: with `iter_timeout_ms`
//! set, `Goat::test` hands each run to the run-host pool, so a host
//! wedged in teardown is abandoned instead of hanging the campaign.
//!
//! Its own test binary: the teardown deadline is read once per process
//! and must be short here.

use goat::core::{Goat, GoatConfig, IsolateMode, Program};
use goat::runtime::{go_named, gosched, pool, Chan};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A goroutine that swallows the shutdown unwind and then stalls its
/// host outside every runtime primitive.
struct TeardownSwallower;

impl Program for TeardownSwallower {
    fn name(&self) -> &str {
        "teardown_swallower"
    }
    fn main(&self) {
        let ch: Chan<u8> = Chan::new(0);
        go_named("swallower", move || {
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                ch.recv(); // parks forever; unwound at shutdown
            }));
            std::thread::sleep(Duration::from_secs(3600));
        });
        gosched();
    }
}

#[test]
fn watchdog_campaign_abandons_a_host_wedged_in_teardown() {
    // Must precede the first run in this process.
    std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", "200");
    let before = pool::stats().abandoned;
    let t0 = Instant::now();
    let (done, finished) = std::sync::mpsc::channel();
    // A campaign that hosted this run inline would hang, so wait on it
    // from here with a deadline instead of calling it directly.
    std::thread::spawn(move || {
        let cfg = GoatConfig::default()
            .with_iterations(1)
            .with_isolate(IsolateMode::Off)
            .with_iter_timeout_ms(Some(80));
        let _ = done.send(Goat::new(cfg).test(Arc::new(TeardownSwallower)));
    });
    let result =
        finished.recv_timeout(Duration::from_secs(20)).expect("the wedged campaign never returned");
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(5), "the campaign took {elapsed:?}");
    assert_eq!(result.records.len(), 1);
    assert!(
        pool::stats().abandoned > before,
        "the wedged host must be abandoned: {:?}",
        pool::stats()
    );
}
