//! The four workloads, the oracle their verdicts are checked against,
//! and one timed round of each, driven through the library's public
//! campaign entry points (`Goat::test`, `run_suite`) in their default
//! configuration.

use crate::stats::{cpu_ns, Steal};
use goat::core::{
    bug_report, run_suite, CampaignResult, CampaignTelemetry, Goat, GoatConfig, GoatVerdict,
    IsolateMode, IterationRecord, Program, SuiteConfig, SuiteStats,
};
use goat::goker::{BugKernel, ExpectedSymptom};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Delay bound of every campaign: the paper's headline `-d 2`.
pub const DELAY_BOUND: u32 = 2;
/// Iteration budget of the keep-running workloads (`-freq 100`).
pub const KEEP_RUNNING_ITERS: usize = 100;
/// Seeds per program in `detect`: 77 programs x 7 seeds = 539
/// campaigns, so 26 latency samples lie beyond the p95.
pub const DETECT_SEEDS: u64 = 7;
/// Seed stride between a program's `detect` campaigns; larger than the
/// biggest iteration budget (800), so no two campaigns share a seed.
const DETECT_SEED_STRIDE: u64 = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Detect,
    Apps,
    Isolated,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "sweep" => Some(Workload::Sweep),
            "detect" => Some(Workload::Detect),
            "apps" => Some(Workload::Apps),
            "isolated" => Some(Workload::Isolated),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Detect => "detect",
            Workload::Apps => "apps",
            Workload::Isolated => "isolated",
        }
    }

    /// Workloads that run every kernel as one `run_suite` call.
    pub fn is_suite(self) -> bool {
        matches!(self, Workload::Sweep | Workload::Isolated)
    }
}

/// A GoKer kernel with its source metadata, so `Goat::static_model`
/// scans the kernel's file exactly as the library's own `Program`
/// implementation for `BugKernel` specifies.
pub struct Kernel(pub &'static BugKernel);

impl Program for Kernel {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
    fn sources(&self) -> Vec<PathBuf> {
        Program::sources(self.0)
    }
}

/// Resolver for the isolated workload's worker processes.
pub fn kernel_by_name(name: &str) -> Option<Arc<dyn Program>> {
    goat::goker::by_name(name).map(|k| Arc::new(Kernel(k)) as Arc<dyn Program>)
}

/// What the oracle expects a campaign to report.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// A GoKer kernel: any detection must carry this symptom class.
    Kernel(ExpectedSymptom),
    /// A seeded application bug: any detection must be a blocking bug.
    AppBug,
    /// A fixed variant or a correct application: no bug may be reported.
    Clean,
}

impl Expect {
    pub fn is_bug(self) -> bool {
        !matches!(self, Expect::Clean)
    }
}

/// One campaign of a workload: a program, its configuration and the
/// verdict the oracle expects.
pub struct Campaign {
    pub program: Arc<dyn Program>,
    pub cfg: GoatConfig,
    pub expect: Expect,
}

/// The campaign configuration a user gets from `goat -d 2 -seed S`:
/// every other field keeps its default.
fn base_config(seed0: u64, iterations: usize) -> GoatConfig {
    GoatConfig::default()
        .with_delay_bound(DELAY_BOUND)
        .with_iterations(iterations)
        .with_seed0(seed0)
}

fn kernel_campaigns(seed: u64, isolate: bool) -> Vec<Campaign> {
    goat::goker::all_kernels()
        .into_iter()
        .map(|k| {
            let mut cfg = base_config(seed, KEEP_RUNNING_ITERS).keep_running();
            if isolate {
                cfg = cfg.with_isolate(IsolateMode::Proc).with_worker_cmd(worker_cmd());
            }
            Campaign { program: Arc::new(Kernel(k)), cfg, expect: Expect::Kernel(k.expected) }
        })
        .collect()
}

/// The worker binary for the isolated workload: this executable, which
/// serves `--worker` through `serve_worker`. Naming it explicitly keeps
/// the in-process fallback out of reach of a missing default.
pub fn worker_cmd() -> String {
    std::env::current_exe()
        .expect("the benchmark must know its own path to spawn isolation workers")
        .to_string_lossy()
        .into_owned()
}

/// Every campaign of one round of `w`, in execution order.
pub fn campaigns(w: Workload, seed: u64) -> Vec<Campaign> {
    match w {
        Workload::Sweep => kernel_campaigns(seed, false),
        Workload::Isolated => kernel_campaigns(seed, true),
        Workload::Apps => goat_apps::all_programs()
            .into_iter()
            .map(|p| {
                let expect =
                    if p.name().ends_with("_correct") { Expect::Clean } else { Expect::AppBug };
                Campaign {
                    program: p,
                    cfg: base_config(seed, KEEP_RUNNING_ITERS).keep_running(),
                    expect,
                }
            })
            .collect(),
        Workload::Detect => {
            let mut programs: Vec<(Arc<dyn Program>, usize, Expect)> = goat::goker::all_kernels()
                .into_iter()
                .map(|k| {
                    let p: Arc<dyn Program> = Arc::new(Kernel(k));
                    (p, k.rarity.iteration_budget(), Expect::Kernel(k.expected))
                })
                .collect();
            // A fixed variant has no rarity class: it gets the default
            // iteration budget (`-freq`).
            let default_budget = GoatConfig::default().iterations;
            programs.extend(
                goat::goker::fixed::all_fixed()
                    .into_iter()
                    .map(|p| (p, default_budget, Expect::Clean)),
            );
            let mut out = Vec::with_capacity(programs.len() * DETECT_SEEDS as usize);
            for j in 0..DETECT_SEEDS {
                let seed0 = seed.wrapping_mul(100_000).wrapping_add(j * DETECT_SEED_STRIDE);
                for (p, budget, expect) in &programs {
                    out.push(Campaign {
                        program: Arc::clone(p),
                        cfg: base_config(seed0, *budget),
                        expect: *expect,
                    });
                }
            }
            out
        }
    }
}

/// The `goker_suite` symptom rule: which verdicts count as exposing a
/// kernel of the given expected symptom.
pub fn symptom_matches(expected: ExpectedSymptom, verdict: &GoatVerdict) -> bool {
    match expected {
        ExpectedSymptom::Leak => matches!(verdict, GoatVerdict::PartialDeadlock { .. }),
        ExpectedSymptom::GlobalDeadlock => {
            matches!(verdict, GoatVerdict::GlobalDeadlock | GoatVerdict::Hang)
        }
        ExpectedSymptom::LeakOrGlobal => matches!(
            verdict,
            GoatVerdict::PartialDeadlock { .. } | GoatVerdict::GlobalDeadlock | GoatVerdict::Hang
        ),
        ExpectedSymptom::Crash => matches!(verdict, GoatVerdict::Crash { .. }),
    }
}

/// Check a finished campaign against the oracle; `Some(reason)` on a
/// mismatch. Quarantine and harness (infra) failures are failures too.
pub fn judge(expect: Expect, r: &CampaignResult) -> Option<String> {
    if let Some(q) = &r.quarantined {
        return Some(format!("quarantined: {q}"));
    }
    if let Some(rec) =
        r.records.iter().find(|rec| matches!(rec.verdict, GoatVerdict::InfraFailure { .. }))
    {
        return Some(format!("infra failure on iteration {}: {}", rec.iter, rec.verdict));
    }
    let bug = r.bug.as_ref()?;
    match expect {
        Expect::Clean => Some(format!("false positive: {bug}")),
        Expect::Kernel(sym) if !symptom_matches(sym, bug) => {
            Some(format!("wrong symptom {bug} (expected {sym:?})"))
        }
        Expect::AppBug
            if !matches!(
                bug,
                GoatVerdict::PartialDeadlock { .. }
                    | GoatVerdict::GlobalDeadlock
                    | GoatVerdict::Hang
            ) =>
        {
            Some(format!("wrong symptom {bug} (expected a blocking bug)"))
        }
        _ => None,
    }
}

/// What `goat -target K` prints for a finished campaign: the bug report
/// (or crash forensics), else the no-bug line.
pub fn render_verdict(name: &str, r: &CampaignResult) -> String {
    match (&r.bug, &r.bug_ect) {
        (Some(verdict), Some(ect)) => bug_report(name, verdict, ect),
        (Some(verdict), None) => format!(
            "== {name} ==\nverdict: {verdict}\n{}",
            r.summary().bug_detail.unwrap_or_default()
        ),
        (None, _) => no_bug_line(r.records.len(), r.coverage_percent()),
    }
}

/// `goat -target K`'s line when no bug was found.
pub fn no_bug_line(iterations: usize, coverage: f64) -> String {
    format!("no bug detected in {iterations} iterations (final coverage {coverage:.1}%)")
}

/// What `goat -target all` prints for one kernel.
pub fn render_suite_line(name: &str, r: &CampaignResult) -> String {
    match &r.quarantined {
        Some(reason) => format!("{name:<18} QUARANTINED ({reason})"),
        None => suite_line(
            name,
            r.first_detection.zip(r.bug.as_ref()),
            r.records.len(),
            r.coverage_percent(),
        ),
    }
}

/// `goat -target all`'s line for a kernel that was not quarantined.
pub fn suite_line(
    name: &str,
    detection: Option<(usize, &GoatVerdict)>,
    iterations: usize,
    coverage: f64,
) -> String {
    match detection {
        Some((iter, bug)) => format!(
            "{name:<18} {:<10} (iteration {iter}, coverage {coverage:.1}%)",
            bug.to_string()
        ),
        None => format!("{name:<18} X          ({iterations} iterations, coverage {coverage:.1}%)"),
    }
}

/// Seeds of `detect` the traced run covers: every campaign there runs
/// twice (real runner and traced pipeline), so all 7 would risk the
/// 180 s a run may last on a host with heavy hypervisor steal.
const DETECT_TRACED_SEEDS: usize = 5;

/// How many leading campaigns of a round the traced run covers, and how
/// many of those it times with telemetry off and on: for `detect`, five
/// seeds' and one seed's campaigns; for `isolated`, the first half of
/// the kernels, for the same reason; the whole round otherwise.
pub fn traced_lens(w: Workload, round_len: usize) -> (usize, usize) {
    match w {
        Workload::Detect => {
            let block = round_len / DETECT_SEEDS as usize;
            (DETECT_TRACED_SEEDS * block, block)
        }
        Workload::Isolated => (round_len / 2, round_len / 2),
        _ => (round_len, round_len),
    }
}

/// One campaign's result as the benchmark keeps it.
pub struct Outcome {
    pub name: String,
    pub seed0: u64,
    pub iterations: usize,
    pub cli_args: String,
    /// The campaign reported a bug.
    pub detected: bool,
    pub expect: Expect,
    pub coverage: f64,
    /// From the start of the command to this campaign's rendered verdict:
    /// wall time and CPU time (of the process and its workers).
    pub latency_ns: f64,
    pub cpu_latency_ns: f64,
    /// `to_json_summary()`: compared across rounds and, for `isolated`,
    /// against the in-process sweep.
    pub summary: String,
    pub records: Vec<IterationRecord>,
    pub telemetry: Option<CampaignTelemetry>,
    pub fail: Option<String>,
}

impl Outcome {
    fn new(
        c: &Campaign,
        r: &mut CampaignResult,
        latency: Duration,
        cpu_latency_ns: f64,
        keep_records: bool,
    ) -> Outcome {
        let cfg = &c.cfg;
        // Telemetry holds wall-clock figures; the summary compared across
        // rounds is the deterministic rest.
        let telemetry = r.telemetry.take();
        let summary = r.to_json_summary().expect("campaign summaries serialize");
        let mut cli_args =
            format!("-seed {} -d {} -freq {}", cfg.seed0, cfg.delay_bound, cfg.iterations);
        if !cfg.stop_on_bug {
            cli_args.push_str(" -keep-running");
        }
        if cfg.isolate == IsolateMode::Proc {
            cli_args.push_str(" -isolate proc");
        }
        Outcome {
            name: c.program.name().to_string(),
            seed0: cfg.seed0,
            iterations: r.records.len(),
            cli_args,
            detected: r.detected(),
            expect: c.expect,
            coverage: r.coverage_percent(),
            latency_ns: latency.as_nanos() as f64,
            cpu_latency_ns,
            summary,
            records: if keep_records { r.records.clone() } else { Vec::new() },
            telemetry,
            fail: judge(c.expect, r),
        }
    }

    /// The command that replays this campaign.
    pub fn replay(&self) -> String {
        format!("goat -target {} {}", self.name, self.cli_args)
    }
}

/// One round: every campaign of the workload once.
pub struct Round {
    pub outcomes: Vec<Outcome>,
    pub wall: Duration,
    /// CPU time of the process and its isolation workers over the round.
    pub cpu_ns: f64,
    /// [`Steal::cpu_scale`] over the round.
    pub cpu_scale: f64,
    pub suite: Option<SuiteStats>,
}

impl Round {
    pub fn iterations(&self) -> usize {
        self.outcomes.iter().map(|o| o.iterations).sum()
    }
}

/// Cross-kernel suite workers: one per CPU.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one round of `w`. Suite workloads go through `run_suite` (the
/// `goat -target all` path); the others run each campaign with
/// `Goat::test` and render its report, as `goat -target K` does.
pub fn run_round(w: Workload, campaigns: &[Campaign]) -> Round {
    let live = w == Workload::Isolated;
    let steal = Steal::now();
    let t0 = Instant::now();
    let c0 = cpu_ns(live);
    let mut outcomes = Vec::with_capacity(campaigns.len());
    let mut suite = None;
    if w.is_suite() {
        let programs: Vec<Arc<dyn Program>> =
            campaigns.iter().map(|c| Arc::clone(&c.program)).collect();
        let cfg = SuiteConfig::default().with_jobs(jobs());
        suite = Some(run_suite(&campaigns[0].cfg, &cfg, &programs, &mut |k, name, r| {
            std::hint::black_box(render_suite_line(name, r));
            let latency = t0.elapsed();
            let cpu = cpu_ns(live) - c0;
            outcomes.push(Outcome::new(&campaigns[k], r, latency, cpu, false));
        }));
    } else {
        outcomes.extend(campaigns.iter().map(|c| run_campaign(c, false)));
    }
    let wall = t0.elapsed();
    Round { outcomes, wall, cpu_ns: cpu_ns(live) - c0, cpu_scale: steal.cpu_scale(), suite }
}

/// Run one campaign with `Goat::test` and render its report, as
/// `goat -target K` does; the latency spans both.
pub fn run_campaign(c: &Campaign, keep_records: bool) -> Outcome {
    let live = c.cfg.isolate == IsolateMode::Proc;
    let t = Instant::now();
    let c0 = cpu_ns(live);
    let mut r = Goat::new(c.cfg.clone()).test(Arc::clone(&c.program));
    std::hint::black_box(render_verdict(c.program.name(), &r));
    r.recycle_bug_trace();
    let latency = t.elapsed();
    let cpu = cpu_ns(live) - c0;
    Outcome::new(c, &mut r, latency, cpu, keep_records)
}
