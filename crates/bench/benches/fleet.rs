//! Fleet-engine throughput: events/sec at executor widths 1, 2, 4 and
//! 8 on the same seed (experiment E14). On a ≥4-core host the wider runs
//! should show a wall-clock speedup for the same event count.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use vdap_fleet::{FleetConfig, FleetEngine, WorkerPool};
use vdap_sim::SimDuration;

/// A fleet big enough that per-epoch barrier cost is amortised but small
/// enough for Criterion's sampling loop, on `threads` executor workers.
fn bench_config(threads: u32) -> FleetConfig {
    let mut cfg = FleetConfig::sized(512).with_executor_threads(threads);
    cfg.duration = SimDuration::from_secs(10);
    cfg
}

fn bench_fleet(c: &mut Criterion) {
    // The event count is executor-invariant, so measure it once and use
    // it as the throughput denominator for every width.
    let events = FleetEngine::new(bench_config(1)).run().events_processed;
    let cores = WorkerPool::with_default_size().threads() as u32;

    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    for threads in [1, 2, 4, 8] {
        if threads > cores {
            // The pool clamps to the machine: a wider request would
            // re-measure the widest real width.
            continue;
        }
        g.bench_function(format!("events_per_sec_{threads}_threads"), |b| {
            b.iter(|| black_box(FleetEngine::new(black_box(bench_config(threads))).run()))
        });
    }
    g.finish();
}

/// Mobility-pass overhead: the E14 configuration with geo-mobility off
/// vs on, on the machine-wide executor. The delta between the two cases
/// prices the whole mobility pass — route advancement, handoff
/// accounting, admission re-registration, and the in-place region
/// updates in the vehicle arena.
fn bench_fleet_mobility(c: &mut Criterion) {
    let threads = WorkerPool::with_default_size().threads() as u32;
    let events = FleetEngine::new(bench_config(threads))
        .run()
        .events_processed;

    let mut g = c.benchmark_group("fleet_mobility");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    g.bench_function(format!("baseline_{threads}_threads"), |b| {
        b.iter(|| black_box(FleetEngine::new(black_box(bench_config(threads))).run()))
    });
    g.bench_function(format!("mobility_{threads}_threads"), |b| {
        b.iter(|| {
            black_box(FleetEngine::new(black_box(bench_config(threads).with_mobility())).run())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fleet, bench_fleet_mobility);
criterion_main!(benches);
