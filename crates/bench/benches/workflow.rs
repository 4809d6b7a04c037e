//! Criterion bench: the §3.1 workflow ablation in software — the
//! Original (detect → filter → compute) vs Rescheduled
//! (detect → compute → filter) extraction schedules on the same frame.
//!
//! In software the rescheduled variant does more work (each level's
//! best N descriptors, `Σ min(M_level, N)` ≥ N); on hardware it
//! describes all M and wins by eliminating idle states. Both shapes are
//! reported: wall-clock here, modelled cycles in `ablation_reschedule`.

use criterion::{criterion_group, criterion_main, Criterion};
use eslam_features::orb::{OrbConfig, OrbExtractor, Workflow};
use eslam_hw::extractor::{ExtractionWorkload, ExtractorModel};
use eslam_image::GrayImage;
use std::hint::black_box;

fn frame() -> GrayImage {
    GrayImage::from_fn(320, 240, |x, y| {
        let base = if ((x / 10) + (y / 10)) % 2 == 0 {
            55
        } else {
            200
        };
        base + ((x * 13 + y * 29) % 19) as u8
    })
}

fn bench_workflows(c: &mut Criterion) {
    let img = frame();
    let mut group = c.benchmark_group("workflow/software");
    for (name, workflow) in [
        ("original", Workflow::Original),
        ("rescheduled", Workflow::Rescheduled),
    ] {
        let extractor = OrbExtractor::new(OrbConfig {
            workflow,
            ..Default::default()
        });
        group.bench_function(name, |b| b.iter(|| black_box(extractor.extract(&img))));
    }
    group.finish();

    // Modelled hardware latencies for the measured workload.
    let features = OrbExtractor::new(OrbConfig::default()).extract(&img);
    let workload = ExtractionWorkload::from_pyramid(
        img.width(),
        img.height(),
        &OrbConfig::default().pyramid,
        features.stats.candidates as u64,
        features.stats.kept as u64,
    );
    let model = ExtractorModel::default();
    for (name, wf) in [
        ("original", Workflow::Original),
        ("rescheduled", Workflow::Rescheduled),
    ] {
        let t = model.extraction_timing(&workload, wf);
        eprintln!("hw model {name}: {:.3} ms @100MHz", t.total_ms());
    }
}

fn bench_timing_model(c: &mut Criterion) {
    // The timing model itself must be cheap (it runs per frame in the
    // accelerator backend).
    let model = ExtractorModel::default();
    let workload = ExtractionWorkload::vga_nominal();
    c.bench_function("workflow/timing_model_eval", |b| {
        b.iter(|| black_box(model.extraction_timing(&workload, Workflow::Rescheduled)))
    });
}

criterion_group!(benches, bench_workflows, bench_timing_model);
criterion_main!(benches);
