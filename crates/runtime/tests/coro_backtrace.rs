//! Backtraces on coroutine stacks. With `RUST_BACKTRACE=1`, a genuine
//! panic in a nested goroutine makes the panic hook walk that
//! goroutine's coroutine stack down to its base. The walk must stop
//! cleanly there (the entry trampoline ends the chain), and the run
//! must report the panic with its truncated backtrace.
//!
//! One test in its own binary: backtrace capture reads the variable
//! once per process, so it is set before anything can panic.

use goat_runtime::{go_named, gosched, Config, RunOutcome, Runtime};
use std::backtrace::Backtrace;
use std::sync::{Arc, Mutex};

#[test]
fn genuine_panic_in_a_nested_goroutine_reports_a_truncated_backtrace() {
    std::env::set_var("RUST_BACKTRACE", "1");

    // A full walk from inside a nested goroutine ends at the entry
    // trampoline at the base of every coroutine stack.
    let walked = Arc::new(Mutex::new(String::new()));
    let out = Arc::clone(&walked);
    let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), move || {
        go_named("outer", move || {
            go_named("inner", move || {
                *out.lock().unwrap() = Backtrace::force_capture().to_string();
            });
            gosched();
        });
        gosched();
        gosched();
    });
    assert!(r.clean(), "{:?}", r.outcome);
    let walked = walked.lock().unwrap().clone();
    let last_fn =
        walked.lines().rfind(|l| !l.trim_start().starts_with("at ")).expect("non-empty backtrace");
    assert!(last_fn.contains("coro::trampoline"), "walk must end at the stack base:\n{walked}");

    let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
        go_named("outer", || {
            go_named("inner", || panic!("genuine failure in a nested goroutine"));
            gosched();
        });
        gosched();
        gosched();
    });
    match &r.outcome {
        RunOutcome::Panicked { msg, .. } => {
            assert_eq!(msg, "genuine failure in a nested goroutine");
        }
        other => panic!("expected a panicked outcome, got {other:?}"),
    }
    let detail = r.panic_detail.expect("genuine panics carry forensics");
    assert!(detail.starts_with("panicked at "), "{detail}");
    assert!(detail.contains("coro_backtrace.rs"), "location of the panic: {detail}");
    // The location line, then at most 16 backtrace lines: either the
    // whole walk, ending at the trampoline, or a cut-off walk with a
    // note saying how much was dropped (debug builds print file lines).
    let lines: Vec<&str> = detail.lines().collect();
    assert!(lines.len() > 1, "backtrace captured: {detail}");
    let last = lines[lines.len() - 1];
    if last.contains("more backtrace lines)") {
        assert_eq!(lines.len(), 1 + 16 + 1, "backtrace truncated to 16 lines: {detail}");
    } else {
        assert!(lines.len() <= 1 + 16, "backtrace truncated to 16 lines: {detail}");
        assert!(last.contains("coro::trampoline"), "walk ends at the stack base: {detail}");
    }
}
