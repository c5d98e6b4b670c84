//! End-to-end benchmark of the GoAT campaign pipeline.
//!
//! ```text
//! perfbench --workload sweep|detect|apps|isolated --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it times rounds of the workload for `S` seconds with
//! telemetry off and prints the end-to-end metrics; with `--trace 1` it
//! runs the traced pipeline (see `shadow`) and prints the per-layer
//! metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `perfbench --worker` serves the `isolated` workload's sandboxed runs.

mod shadow;
mod stats;
mod workload;

use goat::core::IsolateMode;
use shadow::{Counts, Layer, Render, Tracer, LAYERS};
use stats::{p50_us, quantile};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Campaign, Outcome, Round, Workload};

/// Cold set-ups timed per run; `setup_s` is their median.
const SETUP_PROBES: usize = 41;
/// Where the traced run writes its span log and layer table.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Remove every `GOAT_*` variable so that no ambient knob (a CI leg's
/// `GOAT_SPIN=0`, `GOAT_STRATEGY=pct`, …) changes the measured program.
/// Must run before any thread starts.
fn clear_goat_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GOAT_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// The resolved defaults the measured program runs with.
fn env_json(cleared: &[String]) -> String {
    let cfg = goat::core::GoatConfig::default();
    format!(
        "{{\"nproc\": {}, \"commit\": \"{}\", \"spin\": {}, \"memo\": \"{:?}\", \"jobs\": {}, \
         \"parallelism\": {}, \"strategy\": \"{}\", \"pool\": {}, \"ipc\": \"{}\", \
         \"ipc_batch\": {}, \"cleared_env\": {:?}}}",
        workload::jobs(),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        goat::runtime::Config::new(0).spin,
        cfg.memo,
        workload::jobs(),
        cfg.parallelism,
        cfg.strategy,
        cfg.pool,
        cfg.ipc,
        cfg.ipc_batch,
        cleared,
    )
}

/// One-time process set-up a CLI invocation pays before its first
/// campaign: goroutine-pool creation, then a one-iteration campaign of
/// the workload's first program (for `isolated`, that spawns a worker
/// and completes its handshake).
fn set_up(w: Workload, seed: u64) -> Result<(), String> {
    goat::runtime::pool::prewarm(workload::jobs());
    let first = workload::campaigns(w, seed).into_iter().next().expect("workloads are non-empty");
    let probe = IsolateProbe::now();
    let r = goat::core::Goat::new(first.cfg.clone().with_iterations(1)).test(first.program);
    std::hint::black_box(r.records.len());
    goat::core::isolate::drain_idle_workers();
    if w == Workload::Isolated && probe.since().spawned == 0 {
        return Err("set-up spawned no isolation worker".into());
    }
    Ok(())
}

/// The cold start every invocation pays, over `SETUP_PROBES` fresh
/// processes that each do [`set_up`] and exit: the median CPU time (of
/// this process spawning it, the probe and its isolation workers),
/// scaled by [`stats::Steal::cpu_scale`], and the median wall time.
fn measure_setup(w: Workload, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let steal = stats::Steal::now();
    let mut cpus = Vec::with_capacity(SETUP_PROBES);
    let mut walls = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let t = Instant::now();
        let c0 = stats::cpu_ns(false);
        let status = Command::new(&exe)
            .args(["--setup-probe", w.name(), &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        if !status.success() {
            return Err(format!("set-up probe failed: {status}"));
        }
        walls.push(t.elapsed().as_secs_f64());
        cpus.push((stats::cpu_ns(false) - c0) / 1e9);
    }
    let cpu = quantile(&cpus, 0.5);
    println!("# set-up: {:.6} s CPU before scaling, host steal {:.1}%", cpu, 100.0 * steal.share());
    Ok((cpu * steal.cpu_scale(), quantile(&walls, 0.5)))
}

/// Metric map in output order: name -> (value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Failures of one workload run: each is a campaign (kernel + seed) the
/// oracle, the determinism check or the isolation check rejected.
#[derive(Default)]
struct Failures {
    attempted: usize,
    lines: Vec<String>,
}

impl Failures {
    fn fail(&mut self, o: &Outcome, why: &str) {
        self.lines.push(format!(
            "FAILED {} seed0={}: {why}; replay: {}",
            o.name,
            o.seed0,
            o.replay()
        ));
    }

    /// Judge every campaign of `round`; with `reference`, each campaign's
    /// summary must also equal the reference round's byte for byte.
    fn check_round(&mut self, round: &Round, reference: Option<&Round>, what: &str) {
        self.attempted += round.outcomes.len();
        for (k, o) in round.outcomes.iter().enumerate() {
            if let Some(why) = &o.fail {
                self.fail(o, why);
            } else if let Some(r) = reference {
                if r.outcomes.get(k).map(|x| &x.summary) != Some(&o.summary) {
                    self.fail(o, &format!("summary differs from the {what}"));
                }
            }
        }
    }

    fn failed(&self) -> usize {
        self.lines.len()
    }
}

/// Counter deltas of the isolation layer over one isolated round.
struct IsolateProbe {
    spawned: u64,
    reused: u64,
    runs: u64,
}

impl IsolateProbe {
    fn now() -> IsolateProbe {
        let reg = goat::metrics::global();
        IsolateProbe {
            spawned: reg.counter("isolate.workers_spawned").get(),
            reused: reg.counter("isolate.workers_reused").get(),
            runs: reg.counter("isolate.runs").get(),
        }
    }

    fn since(&self) -> IsolateProbe {
        let now = IsolateProbe::now();
        IsolateProbe {
            spawned: now.spawned - self.spawned,
            reused: now.reused - self.reused,
            runs: now.runs - self.runs,
        }
    }
}

/// Run one round of `w`; for `isolated`, prove every iteration really
/// ran in a worker process (no silent in-process fallback).
fn checked_round(
    w: Workload,
    campaigns: &[Campaign],
    reference: Option<&Round>,
    f: &mut Failures,
) -> Round {
    let probe = IsolateProbe::now();
    let round = workload::run_round(w, campaigns);
    let what = if w == Workload::Isolated { "in-process sweep" } else { "first round" };
    f.check_round(&round, reference, what);
    if w == Workload::Isolated {
        let delta = probe.since();
        let iterations = round.iterations() as u64;
        if delta.spawned == 0 || delta.runs != iterations {
            f.attempted += 1;
            f.lines.push(format!(
                "FAILED isolation: {} worker(s) spawned, {} isolated runs for {iterations} \
                 iterations; replay: goat -target all -seed {} -d {} -freq {} -keep-running \
                 -isolate proc -jobs {}",
                delta.spawned,
                delta.runs,
                campaigns[0].cfg.seed0,
                workload::DELAY_BOUND,
                workload::KEEP_RUNNING_ITERS,
                workload::jobs()
            ));
        }
    }
    round
}

/// For `isolated`: one untimed in-process sweep round over the first
/// `len` kernels, the reference its summaries must equal byte for byte.
fn in_process_reference(w: Workload, seed: u64, len: usize) -> Option<Round> {
    (w == Workload::Isolated).then(|| {
        let mut campaigns = workload::campaigns(Workload::Sweep, seed);
        campaigns.truncate(len);
        workload::run_round(Workload::Sweep, &campaigns)
    })
}

fn end_to_end(args: &Args, f: &mut Failures) -> Result<Metrics, String> {
    let w = args.workload;
    let name = w.name();
    let (setup_s, setup_wall_s) = measure_setup(w, args.seed)?;
    set_up(w, args.seed)?;
    let campaigns = workload::campaigns(w, args.seed);
    // The run's budget includes the `isolated` reference round.
    let t0 = Instant::now();
    let reference = in_process_reference(w, args.seed, campaigns.len());
    let budget = Duration::from_secs_f64(args.seconds);
    let steal = stats::Steal::now();
    let mut peak_rss_mb = None;
    let mut rounds: Vec<Round> = Vec::new();
    // A round starts only when it should end within the budget, so a
    // run measures about `--seconds` however long one round takes.
    while rounds.last().is_none_or(|r| t0.elapsed() + r.wall <= budget) {
        let first = if w == Workload::Isolated { reference.as_ref() } else { rounds.first() };
        let round = checked_round(w, &campaigns, first, f);
        rounds.push(round);
        // Peak RSS over set-up and one round: a fixed amount of work,
        // unlike the number of rounds that fit in the budget.
        peak_rss_mb.get_or_insert_with(stats::peak_rss_mb);
    }
    let wall: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    let iterations: usize = rounds.iter().map(Round::iterations).sum();
    // Each figure is taken per round, then the median round is kept, so
    // that one round slowed by the host does not move it.
    let median_round = |per_round: &dyn Fn(&Round) -> f64| {
        quantile(&rounds.iter().map(per_round).collect::<Vec<_>>(), 0.5)
    };
    let cpu_us_per_iter = |scale: bool| {
        median_round(&|r| {
            let factor = if scale { r.cpu_scale } else { 1.0 };
            factor * r.cpu_ns / 1e3 / r.iterations() as f64
        })
    };
    let iters_per_s = median_round(&|r| r.iterations() as f64 / r.wall.as_secs_f64());
    let verdict_ms = |q: f64, cpu: bool| {
        median_round(&|r| {
            let l: Vec<f64> = r
                .outcomes
                .iter()
                .map(|o| if cpu { r.cpu_scale * o.cpu_latency_ns } else { o.latency_ns })
                .map(|ns| ns / 1e6)
                .collect();
            quantile(&l, q)
        })
    };
    let first = &rounds[0];
    let detected = first.outcomes.iter().filter(|o| o.detected && o.expect.is_bug()).count();
    let coverage =
        first.outcomes.iter().map(|o| o.coverage).sum::<f64>() / first.outcomes.len() as f64;
    println!(
        "# {name}: {} round(s), {} campaigns, {iterations} iterations in {wall:.3} s; \
         {} verdict-latency samples; failed_share = {}/{}",
        rounds.len(),
        f.attempted,
        rounds.iter().map(|r| r.outcomes.len()).sum::<usize>(),
        f.failed(),
        f.attempted
    );
    let walls: Vec<String> =
        rounds.iter().map(|r| format!("{:.3}", r.wall.as_secs_f64())).collect();
    println!("# round walls (s): {}", walls.join(" "));
    println!(
        "# host steal during the timed rounds: {:.1}%; CPU time before scaling: {:.3} us/iter",
        100.0 * steal.share(),
        cpu_us_per_iter(false)
    );
    // Wall-clock figures, for people: on a shared host they follow the
    // hypervisor's steal, so the metrics below count CPU time instead.
    println!(
        "# wall clock: {iters_per_s:.1} iterations/s, verdict p50 {:.3} ms, p95 {:.3} ms, \
         set-up {:.6} s",
        verdict_ms(0.5, false),
        verdict_ms(0.95, false),
        setup_wall_s
    );
    let mut m = Metrics::default();
    m.put("cpu_us_per_iter", cpu_us_per_iter(true), "us");
    m.put("verdict_cpu_ms_p50", verdict_ms(0.5, true), "ms");
    m.put("verdict_cpu_ms_p95", verdict_ms(0.95, true), "ms");
    m.put("detected", detected as f64, "count");
    m.put("coverage_pct", coverage, "%");
    m.put("oracle_pass_share", 1.0 - f.failed() as f64 / f.attempted.max(1) as f64, "ratio");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb.unwrap_or_default(), "MiB");
    Ok(m)
}

/// The isolation layer on a workload that does not isolate: the first
/// campaign's program, keep-running, once in-process and once in worker
/// processes. Returns the per-iteration difference in microseconds; the
/// two summaries must be identical.
fn isolation_probe(c: &Campaign, f: &mut Failures) -> f64 {
    let base = c.cfg.clone().keep_running().with_iterations(workload::KEEP_RUNNING_ITERS);
    let isolated = Campaign {
        program: c.program.clone(),
        cfg: base.clone().with_isolate(IsolateMode::Proc).with_worker_cmd(workload::worker_cmd()),
        expect: c.expect,
    };
    let in_process = Campaign { program: c.program.clone(), cfg: base, expect: c.expect };
    let a = workload::run_campaign(&in_process, false);
    let b = workload::run_campaign(&isolated, false);
    f.attempted += 1;
    if let Some(why) = &b.fail {
        f.fail(&b, why);
    } else if a.summary != b.summary {
        f.fail(&b, "isolated summary differs from the in-process one");
    }
    (b.latency_ns - a.latency_ns) / 1e3 / a.iterations.max(1) as f64
}

/// Per-layer run: the telemetry-overhead rounds, then every campaign
/// through the real runner and the traced pipeline.
fn per_layer(args: &Args, env: &str, f: &mut Failures) -> Result<Metrics, String> {
    let w = args.workload;
    set_up(w, args.seed)?;
    let mut campaigns = workload::campaigns(w, args.seed);
    let (traced_len, probe_len) = workload::traced_lens(w, campaigns.len());
    campaigns.truncate(traced_len);
    let reference = in_process_reference(w, args.seed, probe_len);
    // Telemetry overhead: the same rounds with the program's telemetry
    // off, then on.
    let probe = &campaigns[..probe_len];
    let untraced = checked_round(w, probe, reference.as_ref(), f);
    // Only the traced run turns on the program's own telemetry.
    goat::metrics::set_enabled(true);
    let iso_before = IsolateProbe::now();
    let first = reference.as_ref().unwrap_or(&untraced);
    let telemetry_round = checked_round(w, probe, Some(first), f);
    let trace_overhead_pct =
        100.0 * (telemetry_round.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0);

    // Each campaign runs once through the real runner (`Goat::test`,
    // sequential, so its wall is its own) and then through the traced
    // pipeline, back to back, so both see the same host conditions.
    let render = if w.is_suite() { Render::SuiteLine } else { Render::BugReport };
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut real_ns = 0.0;
    let (mut memo_hits, mut memo_lookups) = (0u64, 0u64);
    f.attempted += campaigns.len();
    for (k, c) in campaigns.iter().enumerate() {
        let o = workload::run_campaign(c, true);
        let tel = o.telemetry.clone().expect("telemetry is on");
        real_ns += tel.wall_ns as f64;
        memo_hits += tel.memo_hits;
        memo_lookups += tel.memo_hits + tel.memo_misses;
        let s = shadow::run(&mut tracer, k as u32, c, render, w == Workload::Isolated, &mut counts);
        if let Some(why) = &o.fail {
            f.fail(&o, why);
        } else if first.outcomes.get(k).is_some_and(|u| u.summary != o.summary) {
            f.fail(&o, "summary differs from the untraced round");
        } else if let Some(why) = shadow::record_mismatch(&o.records, &s.records) {
            f.fail(&o, &format!("traced pipeline diverged: {why}"));
        } else if s.memo_hits != tel.memo_hits || s.picks != tel.sched.picks {
            f.fail(
                &o,
                &format!(
                    "traced pipeline counted {} memo hits / {} picks, runner {} / {}",
                    s.memo_hits, s.picks, tel.memo_hits, tel.sched.picks
                ),
            );
        }
    }
    let isolate_overhead_us = match &reference {
        Some(r) => {
            (untraced.wall.as_secs_f64() - r.wall.as_secs_f64()) * 1e6
                / untraced.iterations().max(1) as f64
        }
        None => isolation_probe(&campaigns[0], f),
    };
    goat::core::isolate::drain_idle_workers();
    let iso = iso_before.since();
    let traced_wall = tracer.wall_ns();

    // Layer table: self times plus the unattributed remainder sum to
    // the traced wall exactly.
    let mut table = String::new();
    let mut covered_ns = 0u64;
    let _ = writeln!(table, "# traced wall {:.3} ms", traced_wall as f64 / 1e6);
    let mut rows = Vec::new();
    for layer in LAYERS {
        let ns = tracer.total_ns(layer);
        covered_ns += ns;
        rows.push((layer.name(), ns));
    }
    let unattributed =
        traced_wall.checked_sub(covered_ns).ok_or("layer spans exceed the traced wall")?;
    rows.push(("unattributed", unattributed));
    for (layer, ns) in &rows {
        let _ = writeln!(
            table,
            "#   {layer:<20} {:>12.3} ms  {:>6.2}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / traced_wall as f64
        );
    }
    print!("{table}");
    write_trace(w.name(), args.seed, env, &tracer, &rows, traced_wall)?;

    let share = |l: Layer| tracer.total_ns(l) as f64 / traced_wall as f64;
    let per_iter = |n: u64| n as f64 / counts.iterations.max(1) as f64;
    // The real runner's wall holds every layer but report rendering.
    let layer_ns: u64 =
        LAYERS.iter().filter(|l| **l != Layer::Report).map(|l| tracer.total_ns(*l)).sum();
    let suite = telemetry_round.suite.clone().unwrap_or_default();
    let parallel_efficiency = if w.is_suite() {
        real_ns / 1e9 / (suite.jobs.max(1) as f64 * telemetry_round.wall.as_secs_f64())
    } else {
        0.0
    };
    let ipc = goat::metrics::global().histogram_snapshot("isolate.ipc_transport_ns");

    let mut m = Metrics::default();
    m.put("runtime.run_us_p50", p50_us(&tracer.durations(Layer::Runtime)), "us");
    m.put("runtime.run_us_p99", quantile(&tracer.durations(Layer::Runtime), 0.99) / 1e3, "us");
    m.put("runtime.share", share(Layer::Runtime), "ratio");
    m.put("runtime.picks_per_iter", per_iter(counts.picks), "count/iter");
    m.put(
        "runtime.ns_per_pick",
        tracer.total_ns(Layer::Runtime) as f64 / counts.picks.max(1) as f64,
        "ns/pick",
    );
    m.put("runtime.goroutines_per_iter", per_iter(counts.goroutines), "count/iter");
    m.put("runtime.yields_per_iter", per_iter(counts.yields), "count/iter");
    m.put("trace.events_per_iter", per_iter(counts.events), "count/iter");
    m.put("model.static_model_us_p50", p50_us(&tracer.durations(Layer::Model)), "us");
    m.put("model.share", share(Layer::Model), "ratio");
    m.put(
        "model.universe_size",
        counts.static_universe as f64 / counts.campaigns.max(1) as f64,
        "count",
    );
    m.put("plane.analyze_us_p50", p50_us(&tracer.durations(Layer::Plane)), "us");
    m.put(
        "plane.ns_per_event",
        tracer.total_ns(Layer::Plane) as f64 / counts.events_analyzed.max(1) as f64,
        "ns/event",
    );
    m.put("plane.share", share(Layer::Plane), "ratio");
    m.put("analysis.verdict_us_p50", p50_us(&tracer.durations(Layer::Analysis)), "us");
    m.put("runner.memo_hit_ratio", memo_hits as f64 / memo_lookups.max(1) as f64, "ratio");
    m.put("runner.memo_lookups", memo_lookups as f64, "count");
    m.put("runner.merge_us_p50", p50_us(&tracer.durations(Layer::Merge)), "us");
    m.put("runner.unattributed_share", 1.0 - layer_ns as f64 / real_ns, "ratio");
    m.put("suite.steals", suite.steals as f64, "count");
    m.put("suite.kernels_inflight_max", suite.kernels_inflight_max as f64, "count");
    m.put("suite.parallel_efficiency", parallel_efficiency, "ratio");
    m.put("wire.result_bytes_per_iter", per_iter(counts.wire_bytes), "B/iter");
    m.put("wire.encode_us_p50", p50_us(&tracer.durations(Layer::WireEncode)), "us");
    m.put("wire.decode_us_p50", p50_us(&tracer.durations(Layer::WireDecode)), "us");
    m.put("isolate.overhead_us_per_iter", isolate_overhead_us, "us/iter");
    m.put("isolate.ipc_us_p50", stats::histogram_median(&ipc) / 1e3, "us");
    m.put("isolate.workers_spawned", iso.spawned as f64, "count");
    m.put("isolate.workers_reused", iso.reused as f64, "count");
    m.put("report.render_us_p50", p50_us(&tracer.durations(Layer::Report)), "us");
    m.put("trace_overhead_pct", trace_overhead_pct, "%");
    Ok(m)
}

/// Write the span log (one JSON object per span, campaign spans first)
/// and the layer table under [`OUT_DIR`].
fn write_trace(
    name: &str,
    seed: u64,
    env: &str,
    t: &Tracer,
    rows: &[(&str, u64)],
    traced_wall: u64,
) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let mut spans = String::new();
    for (id, program, start, end) in &t.campaigns {
        let _ = writeln!(
            spans,
            "{{\"span\": \"campaign\", \"id\": {id}, \"program\": \"{program}\", \"start_ns\": {start}, \"end_ns\": {end}}}"
        );
    }
    for (s, probe) in t.spans.iter().map(|s| (s, false)).chain(t.probes.iter().map(|s| (s, true))) {
        let _ = writeln!(
            spans,
            "{{\"span\": \"{}\", \"parent\": {}, \"probe\": {probe}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.layer.name(),
            s.campaign,
            s.start_ns,
            s.end_ns
        );
    }
    let path = format!("{OUT_DIR}/spans-{name}-{seed}.jsonl");
    std::fs::write(&path, spans).map_err(|e| format!("write {path}: {e}"))?;
    let rows: Vec<String> =
        rows.iter().map(|(l, ns)| format!("{{\"layer\": \"{l}\", \"self_ns\": {ns}}}")).collect();
    let table = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"env\": {env}, \"traced_wall_ns\": {traced_wall}, \
         \"layers\": [{}]}}\n",
        rows.join(", ")
    );
    let path = format!("{OUT_DIR}/layers-{name}-{seed}.json");
    std::fs::write(&path, table).map_err(|e| format!("write {path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Worker mode: the isolated workload's orchestrator spawns this
    // binary with `--worker` and sets the worker's environment itself.
    if argv.first().map(String::as_str) == Some("--worker") {
        let code = goat::core::serve_worker(&workload::kernel_by_name);
        return ExitCode::from(code.clamp(0, 255) as u8);
    }
    let cleared = clear_goat_env();
    goat::metrics::set_enabled(false);
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        let (Some(w), Some(seed)) = (
            argv.get(1).and_then(|w| Workload::parse(w)),
            argv.get(2).and_then(|s| s.parse::<u64>().ok()),
        ) else {
            eprintln!("perfbench: --setup-probe <workload> <seed>");
            return ExitCode::from(2);
        };
        return match set_up(w, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = env_json(&cleared);
    println!("{{\"env\": {env}}}");
    let mut f = Failures::default();
    let metrics =
        if args.trace { per_layer(&args, &env, &mut f) } else { end_to_end(&args, &mut f) };
    goat::core::isolate::drain_idle_workers();
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &f.lines {
        println!("{line}");
    }
    for (n, v, u) in &metrics.0 {
        println!("# {n:<30} {v:>16.6} {u}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        f.failed() == 0,
        f.attempted.max(1),
        f.failed(),
        metrics.json()
    );
    ExitCode::SUCCESS
}
