//! Determinism and replay guarantees: identical seeds must reproduce
//! identical traces across the entire benchmark — the property that
//! makes GoAT's "minimum executions to expose" experiments meaningful
//! and failing schedules replayable.

use goat::core::Program;
use goat::runtime::{Config, Runtime};

fn trace_fingerprint(kernel: &'static goat::goker::BugKernel, seed: u64, d: u32) -> String {
    let cfg = Config::new(seed).with_delay_bound(d);
    let r = Runtime::run(cfg, move || Program::main(kernel));
    format!("{:?}|{}|{}", r.outcome, r.steps, r.ect.map(|e| e.render()).unwrap_or_default())
}

#[test]
fn every_kernel_replays_identically_for_a_fixed_seed() {
    for kernel in goat::goker::all_kernels() {
        for d in [0u32, 2] {
            let a = trace_fingerprint(kernel, 42, d);
            let b = trace_fingerprint(kernel, 42, d);
            assert_eq!(a, b, "{} is not deterministic at D{d}", kernel.name);
        }
    }
}

#[test]
fn different_seeds_explore_different_schedules() {
    // On a schedule-dependent kernel, iterating seeds must explore
    // different interleavings (otherwise iterating executions would be
    // pointless). Deterministic kernels may legitimately produce
    // identical traces across seeds.
    let kernel = goat::goker::by_name("moby28462").expect("kernel");
    let distinct: std::collections::BTreeSet<String> =
        (0..30u64).map(|s| trace_fingerprint(kernel, s, 0)).collect();
    assert!(distinct.len() >= 3, "30 seeds explored only {} distinct schedules", distinct.len());
}

// ---------------------------------------------------------------------
// Campaign-executor equivalence: the streaming parallel executor and the
// run-host pool are pure performance features — a campaign's
// machine-readable summary must be byte-identical no matter how many
// worker threads ran it or whether its runs were hosted by the pool.
// ---------------------------------------------------------------------

use goat::core::{Goat, GoatConfig};
use proptest::prelude::*;
use std::sync::Arc;

struct KernelProgram(&'static goat::goker::BugKernel);

/// Held for the whole of every campaign that runs without a fault plan
/// and may run isolated (explicitly, or through `GOAT_ISOLATE`): it
/// serializes the campaign with every scoped plan in this binary, whose
/// isolated workers inherit the active plan through their environment —
/// a concurrently running test's plan would otherwise reach them.
fn no_plan() -> goat::runtime::faultpoint::FaultGuard {
    goat::runtime::faultpoint::scoped("")
}

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

fn campaign_summary_json(
    kernel: &'static goat::goker::BugKernel,
    d: u32,
    seed0: u64,
    iterations: usize,
    stop_on_bug: bool,
    parallelism: usize,
    pool: bool,
) -> String {
    let _plan = no_plan();
    let mut cfg = GoatConfig::default()
        .with_delay_bound(d)
        .with_iterations(iterations)
        .with_seed0(seed0)
        .with_parallelism(parallelism)
        .with_pool(pool);
    if !stop_on_bug {
        cfg = cfg.keep_running();
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]
    #[test]
    fn campaign_summaries_identical_across_parallelism_and_pool(
        kidx in 0usize..12,
        d in 0u32..3,
        seed0 in 1u64..500,
        iterations in 4usize..10,
        stop_on_bug in any::<bool>(),
    ) {
        let kernels = goat::goker::all_kernels();
        let kernel = kernels[kidx % kernels.len()];
        let base = campaign_summary_json(kernel, d, seed0, iterations, stop_on_bug, 1, true);
        for parallelism in [1usize, 2, 8] {
            for pool in [true, false] {
                let json =
                    campaign_summary_json(kernel, d, seed0, iterations, stop_on_bug, parallelism, pool);
                prop_assert_eq!(
                    &base, &json,
                    "summary diverged: kernel={} d={} stop={} p={} pool={}",
                    kernel.name, d, stop_on_bug, parallelism, pool
                );
            }
        }
    }
}

#[test]
fn stop_on_bug_early_exit_matches_across_executors() {
    // A kernel that detects deterministically on iteration 1: the
    // stop_on_bug cutoff is exercised on every executor configuration,
    // and the parallel executor must not merge speculative iterations
    // past the cutoff.
    let kernel = goat::goker::by_name("moby28462").expect("kernel");
    let base = campaign_summary_json(kernel, 2, 7, 40, true, 1, true);
    for parallelism in [2usize, 8] {
        for pool in [true, false] {
            let json = campaign_summary_json(kernel, 2, 7, 40, true, parallelism, pool);
            assert_eq!(base, json, "early-exit diverged at p={parallelism} pool={pool}");
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint/resume crash safety: a campaign SIGKILLed mid-flight and
// resumed from its `GOAT_CHECKPOINT` sidecar must produce a report
// byte-identical to the uninterrupted campaign, no matter where the
// kill landed (before the first checkpoint, mid-write, or after the
// last iteration).
// ---------------------------------------------------------------------

// A budget big enough that the per-iteration checkpoint writes keep
// the child busy well past the kill point: the SIGKILL lands mid-flight
// (typically with a few hundred iterations persisted), not after the
// child already finished.
const KILL_KERNEL: &str = "etcd6708";
const KILL_ITERATIONS: usize = 2_000;
const KILL_SEED0: u64 = 9;

fn kill_resume_campaign(checkpoint: Option<&std::path::Path>) -> String {
    let _plan = no_plan();
    let kernel = goat::goker::by_name(KILL_KERNEL).expect("kernel");
    let mut cfg = GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(KILL_ITERATIONS)
        .with_seed0(KILL_SEED0)
        .keep_running()
        .with_checkpoint_every(1);
    if let Some(path) = checkpoint {
        cfg = cfg.with_checkpoint(path);
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn sigkilled_campaign_resumes_byte_identically() {
    // Child mode: run the checkpointing campaign until the parent kills
    // us (or to completion, if the kill is late — both must resume
    // correctly).
    if std::env::var("GOAT_DETERMINISM_CHILD").is_ok() {
        let path = std::env::var("GOAT_DETERMINISM_CKPT").expect("checkpoint path");
        kill_resume_campaign(Some(std::path::Path::new(&path)));
        return;
    }

    let dir = std::env::temp_dir().join(format!("goat-kill-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let ckpt = dir.join("campaign.json");
    let _ = std::fs::remove_file(&ckpt);

    // Reference: the identical campaign, uninterrupted, no checkpoint.
    let reference = kill_resume_campaign(None);

    let exe = std::env::current_exe().expect("test binary");
    let mut child = std::process::Command::new(exe)
        .args(["sigkilled_campaign_resumes_byte_identically", "--exact", "--nocapture"])
        .env("GOAT_DETERMINISM_CHILD", "1")
        .env("GOAT_DETERMINISM_CKPT", &ckpt)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");
    std::thread::sleep(std::time::Duration::from_millis(250));
    child.kill().expect("SIGKILL the campaign"); // SIGKILL on unix
    let _ = child.wait();

    // Resume from whatever the child managed to persist.
    let resumed = kill_resume_campaign(Some(&ckpt));
    assert_eq!(
        reference, resumed,
        "campaign resumed after SIGKILL must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Execution-hot-path equivalence: the duplicate-schedule analysis memo
// is a pure performance feature — a campaign's machine-readable summary
// must be byte-identical with memoization off, on, or in self-checking
// `verify` mode.
// ---------------------------------------------------------------------

use goat::core::MemoMode;

fn hot_path_summary_json(kernel: &'static goat::goker::BugKernel, memo: MemoMode) -> String {
    let _plan = no_plan();
    let cfg = GoatConfig::default()
        .with_delay_bound(2)
        .with_iterations(24)
        .with_seed0(3)
        .keep_running()
        .with_memo(memo);
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn campaign_summaries_identical_across_memo_modes() {
    for name in ["moby28462", "etcd6708", "cockroach1462"] {
        let kernel = goat::goker::by_name(name).expect("kernel");
        let base = hot_path_summary_json(kernel, MemoMode::Off);
        for memo in [MemoMode::On, MemoMode::Verify] {
            let json = hot_path_summary_json(kernel, memo);
            assert_eq!(
                base, json,
                "{name}: summary diverged at memo={memo:?} — the memo must be invisible to \
                 campaign reports"
            );
        }
    }
}

#[test]
fn memo_verify_mode_passes_across_kernels() {
    // GOAT_MEMO=verify re-analyzes every duplicate schedule and asserts
    // the stored products equal the fresh ones; surviving campaigns on
    // kernels with plenty of duplicate schedules is the memoization
    // soundness check. D=0 maximizes duplicates (no injected yields),
    // so these campaigns actually exercise the hit path.
    for name in ["moby28462", "etcd6708", "grpc1424"] {
        let kernel = goat::goker::by_name(name).expect("kernel");
        let cfg = GoatConfig::default()
            .with_iterations(30)
            .with_seed0(11)
            .keep_running()
            .with_memo(MemoMode::Verify);
        let _plan = no_plan();
        let r = Goat::new(cfg).test(Arc::new(KernelProgram(kernel)));
        assert_eq!(r.records.len(), 30, "{name}: verify campaign ran to budget");
    }
}

#[test]
fn traces_are_well_formed_across_the_suite() {
    for kernel in goat::goker::all_kernels() {
        for seed in [1u64, 99] {
            let r =
                Runtime::run(Config::new(seed).with_delay_bound(1), move || Program::main(kernel));
            if let Some(ect) = &r.ect {
                ect.well_formed().unwrap_or_else(|e| {
                    panic!("{} seed {seed}: malformed trace: {e}", kernel.name)
                });
            }
            goat::core::crosscheck(&r).unwrap_or_else(|e| {
                panic!("{} seed {seed}: trace/runtime disagree: {e}", kernel.name)
            });
        }
    }
}

// ---------------------------------------------------------------------
// Process-isolation equivalence: `GOAT_ISOLATE=proc` is a robustness
// feature, not a semantic one — the full Config travels in the Run
// frame, so a sandboxed worker must return bit-for-bit the result an
// in-process run produces, and campaign reports must not change.
// ---------------------------------------------------------------------

use goat::core::IsolateMode;

fn isolated_summary_json(
    kernel: &'static goat::goker::BugKernel,
    d: u32,
    seed0: u64,
    iterations: usize,
    stop_on_bug: bool,
    isolate: IsolateMode,
) -> String {
    let _plan = no_plan();
    let mut cfg = GoatConfig::default()
        .with_delay_bound(d)
        .with_iterations(iterations)
        .with_seed0(seed0)
        .with_isolate(isolate)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    if !stop_on_bug {
        cfg = cfg.keep_running();
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn campaign_summaries_identical_with_process_isolation() {
    for (name, d, seed0, iterations, stop_on_bug) in [
        ("moby28462", 2u32, 7u64, 12usize, true),
        ("etcd6708", 1, 11, 12, false),
        ("grpc1424", 0, 3, 10, false),
    ] {
        let kernel = goat::goker::by_name(name).expect("kernel");
        let off =
            isolated_summary_json(kernel, d, seed0, iterations, stop_on_bug, IsolateMode::Off);
        let proc_ =
            isolated_summary_json(kernel, d, seed0, iterations, stop_on_bug, IsolateMode::Proc);
        assert_eq!(
            off, proc_,
            "{name}: campaign report must be byte-identical across isolation modes"
        );
    }
}

// ---------------------------------------------------------------------
// Checkpoint/resume under isolation: SIGKILLing the *orchestrator* of
// an isolated campaign mid-flight (workers and all) and resuming from
// its sidecar must still produce a byte-identical report.
// ---------------------------------------------------------------------

const ISO_KILL_ITERATIONS: usize = 400;

fn iso_kill_campaign(checkpoint: Option<&std::path::Path>) -> String {
    let _plan = no_plan();
    let kernel = goat::goker::by_name(KILL_KERNEL).expect("kernel");
    let mut cfg = GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(ISO_KILL_ITERATIONS)
        .with_seed0(KILL_SEED0)
        .keep_running()
        .with_checkpoint_every(1)
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    if let Some(path) = checkpoint {
        cfg = cfg.with_checkpoint(path);
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn sigkilled_isolated_campaign_resumes_byte_identically() {
    // Child mode: run the isolated checkpointing campaign until the
    // parent SIGKILLs us (taking our workers down too).
    if std::env::var("GOAT_DETERMINISM_ISO_CHILD").is_ok() {
        let path = std::env::var("GOAT_DETERMINISM_CKPT").expect("checkpoint path");
        iso_kill_campaign(Some(std::path::Path::new(&path)));
        return;
    }

    let dir = std::env::temp_dir().join(format!("goat-iso-kill-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let ckpt = dir.join("campaign.json");
    let _ = std::fs::remove_file(&ckpt);

    // Reference: the identical isolated campaign, uninterrupted.
    let reference = iso_kill_campaign(None);

    let exe = std::env::current_exe().expect("test binary");
    let mut child = std::process::Command::new(exe)
        .args(["sigkilled_isolated_campaign_resumes_byte_identically", "--exact", "--nocapture"])
        .env("GOAT_DETERMINISM_ISO_CHILD", "1")
        .env("GOAT_DETERMINISM_CKPT", &ckpt)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");
    std::thread::sleep(std::time::Duration::from_millis(400));
    child.kill().expect("SIGKILL the campaign"); // SIGKILL on unix
    let _ = child.wait();

    // Resume from whatever the child persisted; the fingerprint covers
    // the isolation mode, so the sidecar is accepted only by a proc-mode
    // resume of the same campaign.
    let resumed = iso_kill_campaign(Some(&ckpt));
    assert_eq!(
        reference, resumed,
        "isolated campaign resumed after SIGKILL must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// IPC data-plane equivalence: the frame codec (`GOAT_IPC`) and run
// batching (`GOAT_IPC_BATCH`) are transport choices — campaign reports
// must be byte-identical whichever of them carries the runs.
// ---------------------------------------------------------------------

use goat::core::IpcMode;

fn ipc_summary_json(
    kernel: &'static goat::goker::BugKernel,
    d: u32,
    seed0: u64,
    iterations: usize,
    stop_on_bug: bool,
    ipc: IpcMode,
    batch: usize,
) -> String {
    let _plan = no_plan();
    let mut cfg = GoatConfig::default()
        .with_delay_bound(d)
        .with_iterations(iterations)
        .with_seed0(seed0)
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"))
        .with_ipc(ipc)
        .with_ipc_batch(batch);
    if !stop_on_bug {
        cfg = cfg.keep_running();
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn campaign_summaries_identical_across_ipc_modes() {
    for (name, d, seed0, iterations, stop_on_bug) in
        [("etcd6708", 1u32, 11u64, 12usize, false), ("moby28462", 2, 7, 12, true)]
    {
        let kernel = goat::goker::by_name(name).expect("kernel");
        let off =
            isolated_summary_json(kernel, d, seed0, iterations, stop_on_bug, IsolateMode::Off);
        for (leg, ipc, batch) in [
            ("proc+json", IpcMode::Json, 1usize),
            ("proc+bin", IpcMode::Bin, 1),
            ("proc+bin+batch4", IpcMode::Bin, 4),
        ] {
            let got = ipc_summary_json(kernel, d, seed0, iterations, stop_on_bug, ipc, batch);
            assert_eq!(
                off, got,
                "{name}/{leg}: campaign report must be byte-identical across IPC modes"
            );
        }
    }
}

// A worker that violates the binary protocol (emits a garbage frame
// instead of a result) must be treated as broken infrastructure: the
// orchestrator retries, exhausts the budget into InfraFailure verdicts,
// and quarantines — it must never attribute the violation to the kernel.
#[test]
fn binary_garbage_frames_degrade_to_retried_infra_failures() {
    use goat::core::GoatVerdict;
    use goat::runtime::faultpoint;

    let kernel = goat::goker::by_name("grpc1424").expect("kernel");
    let _plan = faultpoint::scoped("worker:garbage-frame");
    let cfg = GoatConfig::default()
        .with_iterations(8)
        .with_seed0(3)
        .keep_running()
        .with_isolate(IsolateMode::Proc)
        .with_ipc(IpcMode::Bin)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"))
        .with_max_retries(1)
        .with_quarantine_after(2);
    let result = Goat::new(cfg).test(Arc::new(KernelProgram(kernel)));

    assert!(
        result.quarantined.is_some(),
        "a worker that only ever speaks garbage must quarantine the kernel"
    );
    assert!(!result.records.is_empty(), "the failing iterations are on record");
    for rec in &result.records {
        assert!(
            matches!(rec.verdict, GoatVerdict::InfraFailure { .. }),
            "protocol violations must surface as infra failures, got {:?}",
            rec.verdict
        );
    }
    assert!(result.bug.is_none(), "a protocol violation is never evidence about the program");
}

// ---------------------------------------------------------------------
// Suite-orchestrator equivalence: `-target all -jobs N` multiplexes all
// kernels over one global work-stealing iteration queue, but the
// per-kernel summary lines render through a kernel-granularity reorder
// buffer — stdout must be byte-identical to the sequential suite at any
// jobs value, in both isolation modes, and a SIGKILLed suite must
// resume from its per-kernel sidecars plus suite manifest to the same
// bytes.
// ---------------------------------------------------------------------

/// The `goat` CLI with a scrubbed suite environment: tests control the
/// suite knobs via flags only.
fn goat_cmd() -> std::process::Command {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_goat"));
    cmd.env_remove("GOAT_JOBS")
        .env_remove("GOAT_SUITE_REALLOC")
        .env_remove("GOAT_ISOLATE")
        .env_remove("GOAT_CHECKPOINT");
    cmd
}

fn suite_stdout(cmd: &mut std::process::Command) -> String {
    let out = cmd.output().expect("run goat suite");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn suite_stdout_identical_across_jobs_and_isolation() {
    for isolate in ["off", "proc"] {
        let baseline = suite_stdout(
            goat_cmd()
                .args(["-target", "all", "-d", "1", "-freq", "2"])
                .env("GOAT_ISOLATE", isolate),
        );
        assert!(
            baseline.contains("/68 at D=1 within 2 iterations"),
            "suite footer missing ({isolate}): {baseline:?}"
        );
        for jobs in ["2", "4"] {
            let parallel = suite_stdout(
                goat_cmd()
                    .args(["-target", "all", "-d", "1", "-freq", "2", "-jobs", jobs])
                    .env("GOAT_ISOLATE", isolate),
            );
            assert_eq!(
                baseline, parallel,
                "suite stdout diverged at -jobs {jobs} (GOAT_ISOLATE={isolate})"
            );
        }
    }
}

#[test]
fn sigkilled_suite_resumes_byte_identically() {
    let dir = std::env::temp_dir().join(format!("goat-suite-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let ckpt = dir.join("cp.json");
    let args = |with_ckpt: bool| {
        let mut v = vec![
            "-target".to_string(),
            "all".to_string(),
            "-d".to_string(),
            "1".to_string(),
            "-freq".to_string(),
            "120".to_string(),
            "-jobs".to_string(),
            "4".to_string(),
            "-realloc".to_string(),
        ];
        if with_ckpt {
            v.push("-checkpoint".to_string());
            v.push(ckpt.display().to_string());
        }
        v
    };

    // Reference: the identical suite, uninterrupted, no checkpoint.
    let reference = suite_stdout(goat_cmd().args(args(false)));

    let mut child = goat_cmd()
        .args(args(true))
        .env("GOAT_CHECKPOINT_EVERY", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn suite");
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().expect("SIGKILL the suite"); // SIGKILL on unix
    let _ = child.wait();

    // The suite manifest and at least the first kernel's sidecar are
    // derived from the base path (`cp.json` → `cp.<kernel>.json`).
    assert!(dir.join("cp.suite.json").exists(), "suite manifest missing after kill");
    let sidecars = std::fs::read_dir(&dir)
        .expect("read tmpdir")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with("cp.") && n.ends_with(".json") && n != "cp.json" && n != "cp.suite.json"
        })
        .count();
    assert!(sidecars > 0, "no per-kernel sidecar was persisted before the kill");

    // Resume from whatever the suite persisted: finished kernels replay
    // from their sidecars, in-flight ones continue, and the final
    // stdout must match the uninterrupted run byte for byte.
    let resumed = suite_stdout(goat_cmd().args(args(true)).env("GOAT_CHECKPOINT_EVERY", "1"));
    assert_eq!(
        reference, resumed,
        "suite resumed after SIGKILL must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// Regression guard for stale per-checkout Init caching: a pooled worker
// Init'ed with one base config must be re-Init'ed (not silently reused)
// when a later campaign changes a base field that does not travel in the
// per-run Run delta. `max_steps` is such a field — a stale 200k-step
// Init would never report the tiny budget's hangs.
#[test]
fn pooled_workers_reinit_when_the_base_config_changes() {
    let kernel = goat::goker::by_name("etcd6708").expect("kernel");

    // Prime the pool with workers Init'ed at the default step budget.
    let prime = GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(6)
        .with_seed0(11)
        .keep_running()
        .with_isolate(IsolateMode::Proc)
        .with_ipc(IpcMode::Bin)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    let _ = {
        let _plan = no_plan();
        Goat::new(prime).test(Arc::new(KernelProgram(kernel)))
    };

    // Same pool geometry, different base config: an 8-step budget every
    // run exhausts. The checked-in worker is eligible for reuse, so only
    // an Init-hash mismatch stands between it and running with the stale
    // 200k budget.
    let tiny_budget_summary = |isolate: IsolateMode| {
        let _plan = no_plan();
        let mut cfg = GoatConfig::default()
            .with_delay_bound(1)
            .with_iterations(6)
            .with_seed0(11)
            .keep_running()
            .with_isolate(isolate)
            .with_ipc(IpcMode::Bin)
            .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
        cfg.max_steps = 8;
        Goat::new(cfg)
            .test(Arc::new(KernelProgram(kernel)))
            .to_json_summary()
            .expect("summary serializes")
    };

    let off = tiny_budget_summary(IsolateMode::Off);
    // The tiny budget must actually change behavior, or this test proves
    // nothing about Init invalidation.
    let default_budget_off = isolated_summary_json(kernel, 1, 11, 6, false, IsolateMode::Off);
    assert_ne!(off, default_budget_off, "an 8-step budget must bite on this kernel");

    let proc_ = tiny_budget_summary(IsolateMode::Proc);
    assert_eq!(
        off, proc_,
        "reused workers must refresh their cached Init when the base config changes"
    );
}
