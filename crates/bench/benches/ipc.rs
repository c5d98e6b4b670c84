//! IPC data-plane overhead: per-run serialize/transport/deserialize cost
//! and bytes-on-wire of the process-isolation channel under each codec —
//! JSON pipes (`GOAT_IPC=json`), binary pipes (`GOAT_IPC=bin`) and
//! batched binary frames (`GOAT_IPC_BATCH`). Campaigns run the real `etcd6708` kernel
//! through real worker processes; the numbers come from the
//! `isolate.ipc_*` metric deltas, so they measure exactly what the
//! orchestrator pays per run, not wall-clock noise around it.
//!
//! Custom harness (not criterion): each sample is a whole campaign, and
//! the statistic of interest is a metric-derived per-run quotient.
//! Needs a built `goat` worker binary; resolves `GOAT_WORKER_CMD`, then
//! `target/{release,debug}/goat`, and prints `SKIP` when neither exists
//! (e.g. `cargo bench` before any `cargo build`).

use goat_core::{Goat, GoatConfig, IpcMode, IsolateMode, Program};
use std::sync::Arc;

struct KernelProgram(&'static goat_goker::BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

fn worker_cmd() -> Option<String> {
    if let Ok(c) = std::env::var("GOAT_WORKER_CMD") {
        if !c.is_empty() {
            return Some(c);
        }
    }
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    for profile in ["release", "debug"] {
        let cand = root.join("target").join(profile).join("goat");
        if cand.exists() {
            return Some(cand.to_string_lossy().into_owned());
        }
    }
    None
}

#[derive(Clone, Copy)]
struct Leg {
    name: &'static str,
    ipc: IpcMode,
    batch: usize,
}

const LEGS: [Leg; 3] = [
    Leg { name: "json", ipc: IpcMode::Json, batch: 1 },
    Leg { name: "bin", ipc: IpcMode::Bin, batch: 1 },
    Leg { name: "bin+batch8", ipc: IpcMode::Bin, batch: 8 },
];

fn campaign_cfg(worker: &str, iterations: usize) -> GoatConfig {
    GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(iterations)
        .with_seed0(11)
        .keep_running()
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(worker)
}

/// Metric-delta sample of one campaign: per-run IPC overhead (ser +
/// transport + deser) in ns and bytes on the wire (tx + rx) per run.
struct Sample {
    overhead_ns_per_run: f64,
    bytes_per_run: f64,
}

fn run_leg(worker: &str, leg: Leg, iterations: usize) -> Sample {
    let reg = goat_metrics::global();
    let hists = ["isolate.ipc_ser_ns", "isolate.ipc_transport_ns", "isolate.ipc_deser_ns"];
    let before_ns: u64 = hists.iter().map(|h| reg.histogram(h).snapshot().sum).sum();
    let before_bytes =
        reg.counter("isolate.ipc_bytes_tx").get() + reg.counter("isolate.ipc_bytes_rx").get();
    let runs_before = reg.counter("isolate.runs").get();

    let cfg = campaign_cfg(worker, iterations).with_ipc(leg.ipc).with_ipc_batch(leg.batch);
    let kernel = goat_goker::by_name("etcd6708").expect("kernel");
    let r = Goat::new(cfg).test(Arc::new(KernelProgram(kernel)));
    assert_eq!(r.records.len(), iterations, "campaign ran its full budget");

    let after_ns: u64 = hists.iter().map(|h| reg.histogram(h).snapshot().sum).sum();
    let after_bytes =
        reg.counter("isolate.ipc_bytes_tx").get() + reg.counter("isolate.ipc_bytes_rx").get();
    let runs = (reg.counter("isolate.runs").get() - runs_before).max(1);
    Sample {
        overhead_ns_per_run: (after_ns - before_ns) as f64 / runs as f64,
        bytes_per_run: (after_bytes - before_bytes) as f64 / runs as f64,
    }
}

fn stats(mut vals: Vec<f64>) -> (f64, f64, f64) {
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = if vals.len() % 2 == 1 {
        vals[vals.len() / 2]
    } else {
        (vals[vals.len() / 2 - 1] + vals[vals.len() / 2]) / 2.0
    };
    (vals[0], median, *vals.last().expect("nonempty"))
}

fn result_line(id: &str, vals: Vec<f64>) {
    let n = vals.len();
    let (min, median, max) = stats(vals);
    println!(
        "  {{\"id\": \"{id}\", \"min_ns\": {min:.1}, \"median_ns\": {median:.1}, \"max_ns\": {max:.1}, \"samples\": {n}}},"
    );
}

/// The spawn_pool guard leg: the batching refactor of the sequential and
/// streaming executors must not regress the pre-existing in-process
/// campaign hot path (BENCH_pool.json `streaming_p4_pooled` baseline).
fn streaming_guard() {
    use goat_runtime::{go, WaitGroup};
    let program = Arc::new(goat_core::FnProgram::new("bench", || {
        let wg = WaitGroup::new();
        for _ in 0..4 {
            wg.add(1);
            let wg = wg.clone();
            go(move || wg.done());
        }
        wg.wait();
    }));
    let mut samples = Vec::new();
    for _ in 0..10 {
        let cfg = GoatConfig::default().with_iterations(24).with_parallelism(4).keep_running();
        let t = std::time::Instant::now();
        let r = Goat::new(cfg).test(Arc::clone(&program) as Arc<dyn Program>);
        samples.push(t.elapsed().as_nanos() as f64);
        assert_eq!(r.records.len(), 24);
    }
    result_line("campaign_24_iters/streaming_p4_pooled", samples);
}

fn main() {
    // Ignore the harness args cargo bench passes (--bench, filters).
    let Some(worker) = worker_cmd() else {
        println!("SKIP: no goat worker binary (set GOAT_WORKER_CMD or run cargo build --release)");
        return;
    };
    // Sanity guard: the data plane under measurement preserves reports.
    // Runs with telemetry still off — the telemetry block embeds wall
    // times, so report identity is only meaningful without it.
    let kernel = goat_goker::by_name("etcd6708").expect("kernel");
    let off = Goat::new(campaign_cfg(&worker, 50).with_isolate(IsolateMode::Off))
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary");
    for leg in LEGS {
        let got = Goat::new(campaign_cfg(&worker, 50).with_ipc(leg.ipc).with_ipc_batch(leg.batch))
            .test(Arc::new(KernelProgram(kernel)))
            .to_json_summary()
            .expect("summary");
        assert_eq!(off, got, "{}: report changed under measurement config", leg.name);
    }

    println!("ipc bench: etcd6708 campaigns through worker `{worker}`");
    println!("\"results\": [");
    // Telemetry-off and before the worker campaigns heat the machine,
    // matching the conditions of the BENCH_pool.json baseline.
    streaming_guard();
    if std::env::var_os("GOAT_IPC_BENCH_GUARD_ONLY").is_some() {
        println!("]");
        return;
    }
    goat_metrics::set_enabled(true);
    for (iterations, reps) in [(1_000usize, 5usize), (10_000, 2)] {
        let tag = if iterations == 1_000 { "1k" } else { "10k" };
        for leg in LEGS {
            let samples: Vec<Sample> =
                (0..reps).map(|_| run_leg(&worker, leg, iterations)).collect();
            result_line(
                &format!("ipc_overhead_per_run/{}_{tag}", leg.name),
                samples.iter().map(|s| s.overhead_ns_per_run).collect(),
            );
            result_line(
                &format!("wire_bytes_per_run/{}_{tag}", leg.name),
                samples.iter().map(|s| s.bytes_per_run).collect(),
            );
        }
    }
    println!("]");
}
