//! Scaling benches: AeroDrome's per-event cost is flat (linear total
//! time), Velodrome's grows with the live transaction graph.
//!
//! This is the measurement backing the paper's headline claim — the
//! published tables only show endpoints (2.4B events in 1.5 s vs a
//! 10-hour timeout); here the trend is measured directly on 2×-spaced
//! trace sizes. Throughput mode makes Criterion report events/second,
//! which should be constant for AeroDrome and degrade for Velodrome on
//! retention workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use aerodrome::optimized::OptimizedChecker;
use aerodrome::run_checker;
use velodrome::VelodromeChecker;
use workloads::{generate, GenConfig};

fn trace_of(events: usize, retention: bool) -> tracelog::Trace {
    generate(&GenConfig {
        seed: 7,
        threads: 8,
        locks: 4,
        vars: 512,
        events,
        retention,
        probe_period: 150,
        violation_at: None, // full-trace processing
        ..GenConfig::default()
    })
}

fn bench_aerodrome_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("aerodrome_scaling");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for events in [20_000usize, 40_000, 80_000, 160_000] {
        let trace = trace_of(events, true);
        g.throughput(Throughput::Elements(trace.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(events), &trace, |b, trace| {
            b.iter(|| {
                let outcome = run_checker(&mut OptimizedChecker::new(), trace);
                assert!(!outcome.is_violation());
            });
        });
    }
    g.finish();
}

fn bench_velodrome_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("velodrome_scaling_retention");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    for events in [5_000usize, 10_000, 20_000, 40_000] {
        let trace = trace_of(events, true);
        g.throughput(Throughput::Elements(trace.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(events), &trace, |b, trace| {
            b.iter(|| {
                let outcome = run_checker(&mut VelodromeChecker::new(), trace);
                assert!(!outcome.is_violation());
            });
        });
    }
    g.finish();
}

fn bench_velodrome_no_retention(c: &mut Criterion) {
    let mut g = c.benchmark_group("velodrome_scaling_gc_effective");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for events in [20_000usize, 40_000, 80_000] {
        let trace = trace_of(events, false);
        g.throughput(Throughput::Elements(trace.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(events), &trace, |b, trace| {
            b.iter(|| {
                let outcome = run_checker(&mut VelodromeChecker::new(), trace);
                assert!(!outcome.is_violation());
            });
        });
    }
    g.finish();
}

/// The extra workload shapes (contended-lock convoy, wide fork/join
/// fan-out, long-transaction nesting): AeroDrome throughput should stay
/// flat on all of them — the convoy stresses the lock clock, the fan-out
/// the thread dimension, the nesting the per-transaction bookkeeping.
/// The pooled-vs-cloned clock-core comparison per shape lives in the
/// `ablation_clock_core` group of the ablations bench.
fn bench_shape_scaling(c: &mut Criterion) {
    for name in workloads::shapes::SHAPE_NAMES {
        let mut g = c.benchmark_group(&format!("aerodrome_{name}"));
        g.sample_size(10).measurement_time(Duration::from_secs(3));
        for events in [20_000usize, 40_000, 80_000] {
            let cfg = GenConfig {
                seed: 7,
                threads: if name == "fanout" { 33 } else { 8 },
                events,
                ..GenConfig::default()
            };
            let trace = workloads::shapes::collect(name, &cfg).expect("known shape");
            g.throughput(Throughput::Elements(trace.len() as u64));
            g.bench_with_input(BenchmarkId::new("pooled", events), &trace, |b, trace| {
                b.iter(|| {
                    let outcome = run_checker(&mut OptimizedChecker::new(), trace);
                    assert!(!outcome.is_violation());
                });
            });
        }
        g.finish();
    }
}

/// End-to-end streaming ingestion: generator → checker without a
/// materialised trace, the pipeline the CLI uses for huge logs.
fn bench_streaming_ingestion(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_gen_to_checker");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for events in [40_000usize, 80_000] {
        let cfg = GenConfig { seed: 7, events, violation_at: None, ..GenConfig::default() };
        g.throughput(Throughput::Elements(events as u64));
        g.bench_with_input(BenchmarkId::from_parameter(events), &cfg, |b, cfg| {
            b.iter(|| {
                let mut checker = OptimizedChecker::new();
                let r = bench::run_source_with_budget(
                    &mut checker,
                    &mut workloads::GenSource::new(cfg),
                    Duration::from_secs(3600),
                )
                .unwrap();
                assert!(!r.violation);
            });
        });
    }
    g.finish();
}

/// Single-pass fan-out vs N re-reads: the differential workflow (all
/// three AeroDrome variants + Velodrome over one trace) run the
/// pre-refactor way — one full sequential pass per checker — against
/// one `pipeline::par` pass fanning batches out to worker threads.
/// `rapid compare` is the CLI face of the parallel row.
fn bench_parallel_fanout(c: &mut Criterion) {
    use aerodrome_suite::pipeline::par::{check_all, standard_checkers, ParConfig};
    use aerodrome_suite::pipeline::Pipeline;

    let cfg = GenConfig { seed: 7, threads: 8, events: 80_000, ..GenConfig::default() };
    let trace = generate(&cfg);
    let mut g = c.benchmark_group("differential_panel");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Elements(trace.len() as u64));

    g.bench_with_input(BenchmarkId::new("sequential-rereads", trace.len()), &trace, |b, trace| {
        b.iter(|| {
            for mut checker in standard_checkers() {
                let report = Pipeline::new(trace.stream())
                    .validate(false)
                    .run(checker.as_mut())
                    .expect("in-memory source");
                assert!(!report.outcome.is_violation());
            }
        });
    });
    for jobs in [2usize, 4] {
        let config = ParConfig::default().jobs(jobs).validate(false);
        g.bench_with_input(
            BenchmarkId::new(format!("parallel-j{jobs}"), trace.len()),
            &trace,
            |b, trace| {
                b.iter(|| {
                    let report =
                        check_all(&mut trace.stream(), standard_checkers(), &config).unwrap();
                    assert!(!report.any_violation());
                });
            },
        );
    }
    g.finish();
}

/// Batch-size sweep for the parallel runtime: too small and the channel
/// hand-off dominates, too large and workers idle at the tail. The
/// docs/PERF.md guidance comes from this sweep.
fn bench_parallel_batch_sweep(c: &mut Criterion) {
    use aerodrome_suite::pipeline::par::{check_all, standard_checkers, ParConfig};

    let cfg = GenConfig { seed: 7, threads: 8, events: 80_000, ..GenConfig::default() };
    let trace = generate(&cfg);
    let mut g = c.benchmark_group("parallel_batch_sweep");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(trace.len() as u64));
    for batch in [64usize, 512, 4096, 32_768] {
        let config = ParConfig::default().jobs(4).batch_events(batch).validate(false);
        g.bench_with_input(BenchmarkId::from_parameter(batch), &trace, |b, trace| {
            b.iter(|| {
                let report = check_all(&mut trace.stream(), standard_checkers(), &config).unwrap();
                assert!(!report.any_violation());
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_aerodrome_scaling,
    bench_velodrome_scaling,
    bench_velodrome_no_retention,
    bench_shape_scaling,
    bench_streaming_ingestion,
    bench_parallel_fanout,
    bench_parallel_batch_sweep
);
criterion_main!(benches);
