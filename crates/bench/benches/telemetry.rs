//! Criterion bench: the telemetry substrate's per-record costs.
//!
//! These are the primitives the pipeline leans on every frame, so
//! their unit costs bound the observability overhead directly:
//!
//! * `span_absent` — the disabled path (`Option::None` sink): one
//!   branch, no clock, no allocation. This is what every instrumented
//!   site costs under `TelemetryMode::Off`.
//! * `counter` — one relaxed `fetch_add` (counters mode's only cost).
//! * `span_full` — a full-mode span: two `Instant::now()` reads, a
//!   histogram record, the frame accumulator, and one trace-event push.
//! * `histogram_record` — the lock-free log-bucketed record alone.
//! * `frame_cycle` — a whole frame_start/spans/frame_end lifecycle,
//!   the worst-case per-frame fixed cost of full mode.

use criterion::{criterion_group, criterion_main, Criterion};
use eslam_telemetry::hist::LogHistogram;
use eslam_telemetry::{Counter, Stage, Telemetry, TelemetryConfig, TelemetryMode};
use std::hint::black_box;

fn bench_telemetry_primitives(c: &mut Criterion) {
    let full = Telemetry::new(TelemetryConfig::default().with_mode(TelemetryMode::Full))
        .expect("full mode builds a sink");
    let mut group = c.benchmark_group("telemetry/primitive");

    group.bench_function("span_absent", |b| {
        b.iter(|| {
            let span = Telemetry::span_opt(black_box(None), Stage::Matching);
            black_box(span)
        })
    });

    group.bench_function("counter", |b| {
        b.iter(|| full.count(black_box(Counter::MatchInliers), 1))
    });

    group.bench_function("span_full", |b| {
        b.iter(|| {
            let span = full.span(black_box(Stage::Matching));
            black_box(&span);
        })
    });

    let hist = LogHistogram::new();
    group.bench_function("histogram_record", |b| {
        let mut ns = 1_000u64;
        b.iter(|| {
            ns = ns.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(black_box(ns % 50_000_000));
        })
    });

    group.finish();
}

fn bench_frame_cycle(c: &mut Criterion) {
    let full = Telemetry::new(TelemetryConfig::default().with_mode(TelemetryMode::Full))
        .expect("full mode builds a sink");
    let mut index = 0usize;
    c.bench_function("telemetry/frame_cycle", |b| {
        b.iter(|| {
            full.frame_start(index, index as f64 * 0.033);
            for stage in [Stage::Matching, Stage::PoseEstimate, Stage::PoseOptimize] {
                let _span = full.span(stage);
            }
            full.frame_end(black_box(1.5));
            index += 1;
        })
    });
}

criterion_group!(benches, bench_telemetry_primitives, bench_frame_cycle);
criterion_main!(benches);
