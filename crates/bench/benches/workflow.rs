//! Criterion bench: the §3.1 workflow ablation, which is a property of
//! the accelerator. The software extractor runs one schedule (the
//! rescheduled detect → compute → filter order), so this bench prints
//! the `eslam-hw` model's Original vs Rescheduled latencies for a
//! measured frame and times the model evaluation itself; the full
//! ablation table is `ablation_reschedule`.

use criterion::{criterion_group, criterion_main, Criterion};
use eslam_features::orb::{OrbConfig, OrbExtractor};
use eslam_hw::extractor::{ExtractionWorkload, ExtractorModel, Workflow};
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

fn bench_timing_model(c: &mut Criterion) {
    // Modelled hardware latencies for the measured workload.
    let img = frame();
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

    // The timing model itself must be cheap (it runs per frame in the
    // accelerator backend).
    let workload = ExtractionWorkload::vga_nominal();
    c.bench_function("workflow/timing_model_eval", |b| {
        b.iter(|| black_box(model.extraction_timing(&workload, Workflow::Rescheduled)))
    });
}

criterion_group!(benches, bench_timing_model);
criterion_main!(benches);
