//! A goroutine that overflows its coroutine stack hits the stack's
//! guard page and the process dies by SIGSEGV (or SIGBUS): it never
//! exits cleanly, corrupts a neighbouring stack, or hangs.
//!
//! The overflow runs in a child process: the test re-executes its own
//! binary, filtered to itself, with [`CHILD_ENV`] set.

use goat_runtime::{go, gosched, Config, Runtime};
use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const CHILD_ENV: &str = "GOAT_GUARD_PAGE_CHILD";
const TEST_NAME: &str = "unbounded_recursion_dies_on_the_guard_page";

/// Recurse without bound. The frame's buffer escapes and is read after
/// the call, so no optimization can turn the recursion into a loop.
#[allow(unconditional_recursion)]
fn recurse(depth: u64) -> u64 {
    let mut frame = [depth; 32];
    black_box(&mut frame);
    let below = recurse(depth + 1);
    black_box(&frame)[0] + below
}

#[test]
fn unbounded_recursion_dies_on_the_guard_page() {
    if std::env::var_os(CHILD_ENV).is_some() {
        Runtime::run(Config::new(1), || {
            go(|| {
                black_box(recurse(0));
            });
            gosched();
        });
        // Unreachable when the guard page works; exit cleanly so the
        // parent sees the failure.
        std::process::exit(0);
    }
    let mut child = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", TEST_NAME, "--test-threads=1", "--nocapture"])
        .env(CHILD_ENV, "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("re-exec the test binary");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for child") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("stack overflow hung the child instead of killing it");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    const SIGBUS: i32 = 7;
    const SIGSEGV: i32 = 11;
    assert!(
        matches!(status.signal(), Some(SIGSEGV | SIGBUS)),
        "overflow must kill the child by SIGSEGV/SIGBUS, got {status:?}"
    );
}
