//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! * the three AeroDrome variants (Algorithm 1 vs 2 vs 3),
//! * the pooled clock core vs the cloned baseline (same rules, swapped
//!   [`vc::store::ClockStore`]) per workload shape,
//! * Velodrome with and without garbage collection,
//! * the two-phase `twophase_batch` sensitivity sweep,
//! * raw vector-clock operation costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use aerodrome::basic::BasicChecker;
use aerodrome::optimized::{ClonedOptimizedChecker, OptimizedChecker};
use aerodrome::readopt::ReadOptChecker;
use aerodrome::{run_checker, Checker};
use vc::VectorClock;
use velodrome::{twophase, Config, VelodromeChecker};
use workloads::{generate, GenConfig};

fn ablation_trace() -> tracelog::Trace {
    generate(&GenConfig {
        seed: 11,
        threads: 8,
        locks: 4,
        vars: 256,
        events: 20_000,
        violation_at: None,
        ..GenConfig::default()
    })
}

fn run_to_end(mut checker: impl Checker, trace: &tracelog::Trace) {
    let outcome = run_checker(&mut checker, trace);
    assert!(!outcome.is_violation());
}

fn bench_aerodrome_variants(c: &mut Criterion) {
    let trace = ablation_trace();
    let mut g = c.benchmark_group("ablation_aerodrome_variants");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("algorithm1_basic", |b| {
        b.iter(|| run_to_end(BasicChecker::new(), &trace));
    });
    g.bench_function("algorithm2_readopt", |b| {
        b.iter(|| run_to_end(ReadOptChecker::new(), &trace));
    });
    g.bench_function("algorithm3_optimized", |b| {
        b.iter(|| run_to_end(OptimizedChecker::new(), &trace));
    });
    g.finish();
}

/// Pooled vs cloned clock core, same Algorithm 3 rules, across every
/// workload shape plus the mixed generator trace — the measurement
/// behind the clone-free-refactor claim (docs/PERF.md).
fn bench_clock_core(c: &mut Criterion) {
    let mut traces: Vec<(String, tracelog::Trace)> = vec![("mixed".into(), ablation_trace())];
    for name in workloads::shapes::SHAPE_NAMES {
        let cfg = GenConfig {
            seed: 11,
            threads: if name == "fanout" { 33 } else { 8 },
            events: 20_000,
            ..GenConfig::default()
        };
        traces.push((name.to_owned(), workloads::shapes::collect(name, &cfg).unwrap()));
    }
    let mut g = c.benchmark_group("ablation_clock_core");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for (name, trace) in &traces {
        g.bench_with_input(BenchmarkId::new("pooled", name), trace, |b, trace| {
            b.iter(|| run_to_end(OptimizedChecker::new(), trace));
        });
        // The cloned *store* on the shared engine: isolates the clock
        // storage choice with everything else held equal.
        g.bench_with_input(BenchmarkId::new("cloned", name), trace, |b, trace| {
            b.iter(|| run_to_end(ClonedOptimizedChecker::new(), trace));
        });
    }
    g.finish();
}

/// The `twophase_batch` sensitivity sweep (open ROADMAP item): batched
/// phase-1 checks over a convoy (one long release→acquire chain) and a
/// fanout (wide, conflict-free) workload.
fn bench_twophase_batch(c: &mut Criterion) {
    for name in ["convoy", "fanout"] {
        let cfg = GenConfig {
            seed: 17,
            threads: if name == "fanout" { 33 } else { 8 },
            events: 20_000,
            ..GenConfig::default()
        };
        let trace = workloads::shapes::collect(name, &cfg).unwrap();
        let mut g = c.benchmark_group(&format!("ablation_twophase_batch_{name}"));
        g.sample_size(10).measurement_time(Duration::from_secs(3));
        for batch in [64usize, 256, 1024, 4096] {
            g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
                b.iter(|| {
                    let config = Config { twophase_batch: batch, ..Config::default() };
                    let report = twophase::check(&trace, &config);
                    assert!(!report.outcome.is_violation());
                    report.phase1_events
                });
            });
        }
        g.finish();
    }
}

fn bench_velodrome_gc(c: &mut Criterion) {
    let trace = ablation_trace();
    let mut g = c.benchmark_group("ablation_velodrome_gc");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    for gc in [true, false] {
        g.bench_with_input(BenchmarkId::from_parameter(gc), &gc, |b, &gc| {
            b.iter(|| {
                run_to_end(
                    VelodromeChecker::with_config(Config { gc, ..Config::default() }),
                    &trace,
                );
            });
        });
    }
    g.finish();
}

fn bench_vector_clock_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("vc_ops");
    for dim in [4usize, 16, 64] {
        let a: VectorClock = (0..dim as u32).map(|i| i * 3 % 17).collect();
        let b: VectorClock = (0..dim as u32).map(|i| i * 5 % 13).collect();
        g.bench_with_input(BenchmarkId::new("join", dim), &dim, |bench, _| {
            bench.iter(|| {
                let mut x = black_box(&a).clone();
                x.join_from(black_box(&b));
                x
            });
        });
        g.bench_with_input(BenchmarkId::new("leq", dim), &dim, |bench, _| {
            bench.iter(|| black_box(&a).leq(black_box(&b)));
        });
        g.bench_with_input(BenchmarkId::new("epoch_check", dim), &dim, |bench, _| {
            bench.iter(|| black_box(&b).contains_epoch(black_box(&a).epoch(dim / 2)));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_aerodrome_variants,
    bench_clock_core,
    bench_twophase_batch,
    bench_velodrome_gc,
    bench_vector_clock_ops
);
criterion_main!(benches);
