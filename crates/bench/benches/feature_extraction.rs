//! Criterion bench: ORB feature extraction wall-clock on this host,
//! across image sizes and pyramid depths (the workload behind Table 2's
//! FE row — absolute times differ from the paper's testbed, the scaling
//! shape is what matters).
//!
//! Every tracked id carries its parallelism: `…/t1` benches run one band
//! per level on a 1-thread pool with scratch reused across iterations,
//! so their numbers do not depend on the host's core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eslam_dataset::sequence::SequenceSpec;
use eslam_features::orb::{OrbConfig, OrbExtractor, OrbScratch};
use eslam_features::BandMode;
use eslam_image::pyramid::PyramidConfig;
use eslam_image::GrayImage;
use std::hint::black_box;

fn test_image(w: u32, h: u32) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let base = if ((x / 12) + (y / 12)) % 2 == 0 {
            50
        } else {
            190
        };
        base + ((x * 31 + y * 17) % 23) as u8
    })
}

/// One band per level (the pool size is pinned by the scratch).
fn single_band(config: OrbConfig) -> OrbExtractor {
    OrbExtractor::new(OrbConfig {
        bands: BandMode::Fixed(1),
        ..config
    })
}

fn bench_extraction_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction/size");
    for (w, h) in [(160u32, 120u32), (320, 240), (640, 480)] {
        let img = test_image(w, h);
        let extractor = single_band(OrbConfig::default());
        let mut scratch = OrbScratch::with_threads(Some(1));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{w}x{h}/t1")),
            &img,
            |b, img| b.iter(|| black_box(extractor.extract_with(img, &mut scratch))),
        );
    }
    group.finish();
}

fn bench_extraction_paper_frame(c: &mut Criterion) {
    // A rendered paper frame carries the real detection load (~160k
    // FAST hits over the pyramid, against ~800 on the VGA checkerboard
    // above), so scoring and NMS costs show here.
    let mut group = c.benchmark_group("feature_extraction/paper_frame");
    let img = SequenceSpec::paper_sequences(90, 1.0)[0]
        .build()
        .frame(10)
        .gray;
    let extractor = single_band(OrbConfig::default());
    let mut scratch = OrbScratch::with_threads(Some(1));
    group.bench_with_input(BenchmarkId::from_parameter("640x480/t1"), &img, |b, img| {
        b.iter(|| black_box(extractor.extract_with(img, &mut scratch)))
    });
    group.finish();
}

fn bench_extraction_bands(c: &mut Criterion) {
    // The band-parallel axis on the VGA workload, on the global pool:
    // bands=2/4 show the split cost on one core and the realized overlap
    // when the pool has threads to dispatch onto.
    let mut group = c.benchmark_group("feature_extraction/bands");
    let img = test_image(640, 480);
    for bands in [1usize, 2, 4] {
        let extractor = OrbExtractor::new(OrbConfig {
            bands: BandMode::Fixed(bands),
            ..Default::default()
        });
        let mut scratch = OrbScratch::default();
        group.bench_with_input(BenchmarkId::from_parameter(bands), &img, |b, img| {
            b.iter(|| black_box(extractor.extract_with(img, &mut scratch)))
        });
    }
    group.finish();
}

fn bench_extraction_pyramid_depth(c: &mut Criterion) {
    // The §4.4 pixel argument: 4 levels ≈ 1.48× the pixels of 2 levels.
    let mut group = c.benchmark_group("feature_extraction/pyramid_levels");
    let img = test_image(320, 240);
    for levels in [1usize, 2, 4] {
        let extractor = single_band(OrbConfig {
            pyramid: PyramidConfig {
                levels,
                scale_factor: 1.2,
            },
            ..Default::default()
        });
        let mut scratch = OrbScratch::with_threads(Some(1));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{levels}/t1")),
            &img,
            |b, img| b.iter(|| black_box(extractor.extract_with(img, &mut scratch))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_extraction_sizes,
    bench_extraction_paper_frame,
    bench_extraction_bands,
    bench_extraction_pyramid_depth
);
criterion_main!(benches);
