//! Benchmarks of the execution hot path: token-handoff latency of the
//! coroutine switch, the end-to-end campaign cost on top of the
//! out-of-lock trace append, and the duplicate-schedule analysis memo.
//!
//! `handoff_256_steps` is a two-goroutine rendezvous ping-pong: every
//! round is two scheduler handoffs with nothing else on the critical
//! path, so it measures the coroutine switch through the host loop
//! (its `park_only` id predates the switch and is kept so the numbers
//! stay comparable with `BENCH_handoff.json`).
//! `campaign_24_iters/streaming_p4_pooled` reproduces the bench id from
//! `BENCH_pool.json` for a before/after end-to-end comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use goat_core::{FnProgram, Goat, GoatConfig, MemoMode};
use goat_runtime::{go, Chan, Config, Runtime, WaitGroup};
use std::sync::Arc;

/// Two goroutines rendezvous `rounds` times over unbuffered channels:
/// each round forces two token handoffs, so the run is dominated by
/// handoff latency.
fn ping_pong(seed: u64, rounds: usize) {
    let cfg = Config::new(seed).with_native_preempt_prob(0.0).with_trace(false);
    let r = Runtime::run(cfg, move || {
        let a: Chan<u8> = Chan::new(0);
        let b: Chan<u8> = Chan::new(0);
        let (a2, b2) = (a.clone(), b.clone());
        go(move || {
            for _ in 0..rounds {
                a2.recv();
                b2.send(1);
            }
        });
        for _ in 0..rounds {
            a.send(1);
            b.recv();
        }
    });
    assert!(r.clean());
}

fn bench_handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("handoff_256_steps");
    g.bench_function("park_only", |b| b.iter(|| ping_pong(1, 256)));
    g.finish();
}

fn campaign_program() -> Arc<FnProgram> {
    Arc::new(FnProgram::new("bench", || {
        let wg = WaitGroup::new();
        for _ in 0..4 {
            wg.add(1);
            let wg = wg.clone();
            go(move || wg.done());
        }
        wg.wait();
    }))
}

fn run_campaign(parallelism: usize, memo: MemoMode) {
    let cfg = GoatConfig::default()
        .with_iterations(24)
        .with_parallelism(parallelism)
        .with_memo(memo)
        .keep_running();
    let r = Goat::new(cfg).test(campaign_program());
    assert_eq!(r.records.len(), 24);
}

/// The same end-to-end campaign as `spawn_pool`'s
/// `campaign_24_iters/streaming_p4_pooled` (its memo_on variant is the
/// default configuration), plus a memo-off leg isolating the analysis
/// memoization from the handoff/tracing gains.
fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_24_iters");
    g.sample_size(10);
    g.bench_function("streaming_p4_pooled", |b| b.iter(|| run_campaign(4, MemoMode::On)));
    g.bench_function("streaming_p4_memo_off", |b| b.iter(|| run_campaign(4, MemoMode::Off)));
    g.bench_function("sequential_pooled", |b| b.iter(|| run_campaign(1, MemoMode::On)));
    g.finish();
}

criterion_group!(benches, bench_handoff, bench_campaign);
criterion_main!(benches);
