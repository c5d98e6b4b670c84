//! Which thread hosts a run. Without a watchdog, every run of a
//! campaign is hosted by the executor worker that claimed it and the
//! process-wide run-host pool is never touched; with one, every run goes
//! to the pool so a wedged host can be abandoned. The reports are the
//! same either way.
//!
//! This is its own test binary with a single test, so nothing else moves
//! the pool's process-wide counters while it reads them.

use goat::core::{run_suite, Goat, GoatConfig, IsolateMode, Program, SuiteConfig};
use goat::runtime::pool;
use std::sync::Arc;

struct KernelProgram(&'static goat::goker::BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

fn kernel(name: &str) -> Arc<dyn Program> {
    Arc::new(KernelProgram(goat::goker::by_name(name).expect("kernel")))
}

/// Runs the pool has hosted so far, on new or reused threads.
fn pool_hosted() -> u64 {
    let s = pool::stats();
    s.threads_spawned + s.jobs_reused
}

/// One lone campaign and one two-kernel suite, both on two workers;
/// their summaries in emit order.
fn campaigns(watchdog: Option<u64>) -> Vec<String> {
    let base = GoatConfig::default()
        .with_delay_bound(2)
        .with_iterations(30)
        .with_seed0(7)
        .keep_running()
        .with_isolate(IsolateMode::Off)
        .with_iter_timeout_ms(watchdog);
    let lone = Goat::new(base.clone().with_parallelism(2)).test(kernel("moby28462"));
    let mut summaries = vec![lone.to_json_summary().expect("summary")];
    let suite = SuiteConfig::default().with_jobs(2).with_realloc(false);
    run_suite(&base, &suite, &[kernel("etcd6857"), kernel("etcd6708")], &mut |_, _, r| {
        summaries.push(r.to_json_summary().expect("summary"))
    });
    summaries
}

#[test]
fn default_campaigns_never_touch_the_run_host_pool() {
    let before = pool_hosted();
    let inline = campaigns(None);
    assert_eq!(pool_hosted(), before, "a campaign without a watchdog used the run-host pool");
    assert_eq!(inline.len(), 3);

    let pooled = campaigns(Some(60_000));
    assert!(pool_hosted() > before, "a watchdog must send the runs to the run-host pool");
    assert_eq!(inline, pooled, "the inline and the pooled host reported differently");
}
