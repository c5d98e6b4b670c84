//! Offline-analysis benchmarks: the cost of turning one ECT into a
//! verdict, a goroutine tree, a coverage set, and a serialized artifact
//! — the per-iteration overhead of GoAT's offline phase (§III-E).

use criterion::{criterion_group, criterion_main, Criterion};
use goat_core::{deadlock_check, extract_coverage};
use goat_model::RequirementUniverse;
use goat_runtime::{go, Chan, Config, Mutex, Runtime, WaitGroup};
use goat_trace::{Ect, GTree};
use std::time::Duration;

/// Record one representative trace (~2k events).
fn sample_trace() -> Ect {
    let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
        let queue: Chan<u64> = Chan::new(4);
        let mu = Mutex::new();
        let wg = WaitGroup::new();
        for _ in 0..6 {
            wg.add(1);
            let (queue, mu, wg) = (queue.clone(), mu.clone(), wg.clone());
            go(move || {
                for i in 0..40 {
                    queue.send(i);
                    mu.lock();
                    mu.unlock();
                }
                wg.done();
            });
        }
        let rx = queue.clone();
        go(move || while rx.recv().is_some() {});
        wg.wait();
        queue.close();
    });
    r.ect.expect("traced")
}

fn bench_analysis(c: &mut Criterion) {
    let ect = sample_trace();
    assert!(ect.len() > 1000, "trace too small: {}", ect.len());

    c.bench_function("gtree_from_ect", |b| {
        b.iter(|| {
            let tree = GTree::from_ect(&ect);
            assert!(tree.len() >= 8);
        })
    });
    c.bench_function("deadlock_check", |b| {
        let tree = GTree::from_ect(&ect);
        b.iter(|| deadlock_check(&tree))
    });
    c.bench_function("extract_coverage", |b| {
        b.iter(|| {
            let mut universe = RequirementUniverse::new();
            let cov = extract_coverage(&ect, &mut universe);
            assert!(cov.covered.len() > 5);
        })
    });
    c.bench_function("well_formed_check", |b| b.iter(|| ect.well_formed().expect("well-formed")));
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_analysis
}
criterion_main!(benches);
