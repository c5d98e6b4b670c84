//! The traced run: the campaign runner's per-iteration pipeline rebuilt
//! from public calls (watcher/stopper wrapper, `Runtime::run`,
//! `EctBuffers::analyze`, `analyze_run_with`, `CoverageSet::merge` +
//! `GlobalGTree::merge_run`, and for `isolated` the wire codec), with a
//! span around every call into a layer. Spans stay in memory and are
//! written when the benchmark ends.
//!
//! The rebuilt pipeline must reproduce the real campaign's
//! `IterationRecord` series exactly; the caller checks that, so the
//! layer times describe the work the real runner does.

use crate::workload::{self, Campaign};
use goat::core::wire::{decode_result, encode_result};
use goat::core::{
    analyze_run_with, bug_report, EctBuffers, GlobalGTree, Goat, GoatConfig, GoatVerdict,
    IterationRecord, Program, TraceAnalysis,
};
use goat::model::{CoverageSet, RequirementUniverse};
use goat::runtime::{go_internal, Chan, Config, RunOutcome, RunResult, Runtime};
use goat::trace::wire::Reader;
use goat::trace::{Ect, GTree};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The layers a span can belong to, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Model,
    Runtime,
    WireEncode,
    WireDecode,
    Plane,
    Analysis,
    Merge,
    Report,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Model,
    Layer::Runtime,
    Layer::WireEncode,
    Layer::WireDecode,
    Layer::Plane,
    Layer::Analysis,
    Layer::Merge,
    Layer::Report,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Model => "model.static_model",
            Layer::Runtime => "runtime.run",
            Layer::WireEncode => "wire.encode_result",
            Layer::WireDecode => "wire.decode_result",
            Layer::Plane => "plane.analyze",
            Layer::Analysis => "analysis.verdict",
            Layer::Merge => "runner.merge",
            Layer::Report => "report.render",
        }
    }
}

/// One layer span; its parent is the campaign span `campaign`.
pub struct Span {
    pub layer: Layer,
    pub campaign: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Layer spans never nest, so a layer's self
/// time is its span's duration, and a campaign span's self time is the
/// runner plumbing no layer span covers.
///
/// Probes are spans of work the real runner does not do on this
/// workload (the wire codec outside `isolated`); they are timed for the
/// layer's metrics but left out of the traced wall.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub probes: Vec<Span>,
    /// Campaign spans: (campaign id, program name, start, end).
    pub campaigns: Vec<(u32, String, u64, u64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            probes: Vec::new(),
            campaigns: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn timed<T>(&mut self, layer: Layer, campaign: u32, probe: bool, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let span = Span { layer, campaign, start_ns, end_ns };
        if probe {
            self.probes.push(span);
        } else {
            self.spans.push(span);
        }
        out
    }

    fn span<T>(&mut self, layer: Layer, campaign: u32, f: impl FnOnce() -> T) -> T {
        self.timed(layer, campaign, false, f)
    }

    /// The traced wall: campaign spans minus the probes inside them.
    pub fn wall_ns(&self) -> u64 {
        let campaigns: u64 = self.campaigns.iter().map(|(_, _, s, e)| e - s).sum();
        campaigns - self.probes.iter().map(Span::ns).sum::<u64>()
    }

    /// Sum of the durations of `layer`'s spans (probes excluded).
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.spans.iter().filter(|s| s.layer == layer).map(Span::ns).sum()
    }

    /// Durations of `layer`'s spans and probes, nanoseconds.
    pub fn durations(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .chain(&self.probes)
            .filter(|s| s.layer == layer)
            .map(|s| s.ns() as f64)
            .collect()
    }
}

/// Deterministic work counts of the traced pipeline.
#[derive(Default)]
pub struct Counts {
    pub iterations: u64,
    pub picks: u64,
    pub goroutines: u64,
    pub yields: u64,
    pub events: u64,
    /// Events walked by the analysis plane (memo misses only).
    pub events_analyzed: u64,
    pub wire_bytes: u64,
    pub static_universe: u64,
    pub campaigns: u64,
}

/// What the traced pipeline produced for one campaign.
pub struct ShadowResult {
    pub records: Vec<IterationRecord>,
    pub memo_hits: u64,
    pub picks: u64,
}

/// The paper's `goat.Start`/`goat.Watch`/`goat.Stop` wrapper: an
/// internal watcher goroutine waits for main's completion signal, which
/// an internal stopper goroutine sends.
fn instrumented(program: Arc<dyn Program>) -> impl FnOnce() + Send + 'static {
    move || {
        let goat_done: Chan<()> = Chan::new(1);
        {
            let goat_done = goat_done.clone();
            go_internal("goat::watcher", move || {
                let _ = goat_done.recv();
            });
        }
        program.main();
        go_internal("goat::stopper", move || {
            goat_done.send(());
        });
    }
}

/// The runtime configuration the campaign runner builds for iteration
/// `i` of an unguided campaign.
fn runtime_config(cfg: &GoatConfig, i: usize) -> Config {
    let rc = Config::new(cfg.seed0 + i as u64)
        .with_delay_bound(cfg.delay_bound)
        .with_native_preempt_prob(cfg.native_preempt_prob)
        .with_max_steps(cfg.max_steps)
        .with_iter_timeout_ms(cfg.iter_timeout_ms)
        .with_trace(true)
        .with_pool(cfg.pool)
        .with_strategy(cfg.strategy);
    match cfg.spin {
        Some(s) => rc.with_spin(s),
        None => rc,
    }
}

/// Memo key: runs with the same schedule fingerprint and the same
/// outcome produce the same analysis products (the runner's rule).
fn memo_key(result: &RunResult) -> (u64, String) {
    let outcome = match &result.outcome {
        RunOutcome::Completed => "completed".to_string(),
        RunOutcome::GlobalDeadlock { .. } => "global-deadlock".to_string(),
        RunOutcome::StepLimit => "step-limit".to_string(),
        RunOutcome::Panicked { g, msg } => format!("panic {} {msg}", g.0),
        RunOutcome::TimedOut { phase, .. } => format!("timeout {phase:?}"),
        RunOutcome::InfraFailure { reason } => format!("infra {reason}"),
        RunOutcome::Crashed { forensics } => format!("crash {}", forensics.summary),
    };
    (result.fingerprint, outcome)
}

struct MemoEntry {
    tree: GTree,
    coverage: goat::core::RunCoverage,
    verdict: GoatVerdict,
}

/// How the campaign's verdict is rendered at the end.
#[derive(Clone, Copy)]
pub enum Render {
    /// The one-line `goat -target all` summary.
    SuiteLine,
    /// The `goat -target K` bug report.
    BugReport,
}

/// Run campaign `c` through the rebuilt pipeline under `t`.
pub fn run(
    t: &mut Tracer,
    id: u32,
    c: &Campaign,
    render: Render,
    wire: bool,
    counts: &mut Counts,
) -> ShadowResult {
    let cfg = &c.cfg;
    let name = c.program.name().to_string();
    let start = t.now_ns();
    let mut universe = t.span(Layer::Model, id, || {
        RequirementUniverse::from_table(Goat::static_model(c.program.as_ref()))
    });
    counts.static_universe += universe.len() as u64;
    counts.campaigns += 1;
    let mut covered = CoverageSet::new();
    let mut global = GlobalGTree::new();
    let mut bufs = EctBuffers::new();
    let mut memo: HashMap<(u64, String), MemoEntry> = HashMap::new();
    let mut records: Vec<IterationRecord> = Vec::new();
    let mut bug: Option<(usize, GoatVerdict, Option<Ect>)> = None;
    let (mut memo_hits, mut picks) = (0u64, 0u64);
    for i in 0..cfg.iterations {
        let rc = runtime_config(cfg, i);
        let program = Arc::clone(&c.program);
        let mut result = t.span(Layer::Runtime, id, || Runtime::run(rc, instrumented(program)));
        // The isolated data plane: the worker encodes the result and the
        // orchestrator decodes it. Elsewhere the same round trip is a
        // probe of what isolation would ship.
        let mut buf = Vec::new();
        t.timed(Layer::WireEncode, id, !wire, || encode_result(&result, &mut buf));
        counts.wire_bytes += buf.len() as u64;
        let decoded = t
            .timed(Layer::WireDecode, id, !wire, || decode_result(&mut Reader::new(&buf)))
            .expect("a result the codec encoded decodes");
        if wire {
            if let Some(ect) = result.ect.take() {
                goat::trace::recycle_buffer(ect.into_events());
            }
            result = decoded;
        }
        counts.iterations += 1;
        picks += result.sched.picks;
        counts.goroutines += result.goroutines;
        counts.yields += u64::from(result.yields_injected);
        let events = result.ect.as_ref().map_or(0, |e| e.len() as u64);
        counts.events += events;

        let key = result.ect.as_ref().map(|_| memo_key(&result));
        let hit = key.as_ref().is_some_and(|k| memo.contains_key(k));
        let (fresh, verdict): (Option<TraceAnalysis>, GoatVerdict) = if hit {
            memo_hits += 1;
            (None, memo[key.as_ref().expect("hit implies key")].verdict.clone())
        } else {
            counts.events_analyzed += events;
            let analysis = result
                .ect
                .as_ref()
                .map(|ect| t.span(Layer::Plane, id, || bufs.analyze(ect, &mut universe, false)));
            let verdict = t.span(Layer::Analysis, id, || {
                let verdict = analyze_run_with(&result, analysis.as_ref().map(|a| &a.tree));
                if let (Some(k), Some(a)) = (key.clone(), analysis.as_ref()) {
                    memo.insert(
                        k,
                        MemoEntry {
                            tree: a.tree.clone(),
                            coverage: a.coverage.clone(),
                            verdict: verdict.clone(),
                        },
                    );
                }
                verdict
            });
            (analysis, verdict)
        };
        let percent = t.span(Layer::Merge, id, || {
            match fresh {
                Some(a) => {
                    covered.merge(&a.coverage.covered);
                    global.merge_run(&a.tree, &a.coverage);
                    bufs.reclaim(a.coverage);
                }
                None => {
                    if let Some(e) = key.as_ref().and_then(|k| memo.get(k)) {
                        covered.merge(&e.coverage.covered);
                        global.merge_run(&e.tree, &e.coverage);
                    }
                }
            }
            covered.percent(&universe)
        });
        records.push(IterationRecord {
            iter: i + 1,
            seed: cfg.seed0 + i as u64,
            verdict: verdict.clone(),
            coverage_percent: percent,
            universe_size: universe.len(),
            yields: result.yields_injected,
        });
        if verdict.is_bug() && bug.is_none() {
            bug = Some((i + 1, verdict, result.ect.take()));
            if cfg.stop_on_bug {
                break;
            }
        }
        if let Some(ect) = result.ect.take() {
            goat::trace::recycle_buffer(ect.into_events());
        }
    }
    let percent = covered.percent(&universe);
    let rendered = t.span(Layer::Report, id, || match (render, &bug) {
        (Render::SuiteLine, _) => workload::suite_line(
            &name,
            bug.as_ref().map(|(iter, verdict, _)| (*iter, verdict)),
            records.len(),
            percent,
        ),
        (Render::BugReport, Some((_, verdict, Some(ect)))) => bug_report(&name, verdict, ect),
        (Render::BugReport, Some((_, verdict, None))) => {
            format!("== {name} ==\nverdict: {verdict}")
        }
        (Render::BugReport, None) => workload::no_bug_line(records.len(), percent),
    });
    std::hint::black_box(rendered);
    if let Some((_, _, Some(ect))) = bug {
        goat::trace::recycle_buffer(ect.into_events());
    }
    counts.picks += picks;
    let end = t.now_ns();
    t.campaigns.push((id, name, start, end));
    ShadowResult { records, memo_hits, picks }
}

/// Why the traced pipeline's records differ from the real campaign's,
/// if they do.
pub fn record_mismatch(real: &[IterationRecord], shadow: &[IterationRecord]) -> Option<String> {
    if real.len() != shadow.len() {
        return Some(format!("{} iterations traced vs {} run", shadow.len(), real.len()));
    }
    real.iter().zip(shadow).find_map(|(a, b)| {
        let same = a.iter == b.iter
            && a.seed == b.seed
            && a.verdict == b.verdict
            && a.coverage_percent.to_bits() == b.coverage_percent.to_bits()
            && a.universe_size == b.universe_size
            && a.yields == b.yields;
        (!same).then(|| {
            format!(
                "iteration {}: traced ({}, {}%, {} reqs, {} yields) vs run ({}, {}%, {} reqs, {} yields)",
                a.iter,
                b.verdict,
                b.coverage_percent,
                b.universe_size,
                b.yields,
                a.verdict,
                a.coverage_percent,
                a.universe_size,
                a.yields
            )
        })
    })
}
