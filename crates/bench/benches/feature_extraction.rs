//! Criterion bench: ORB feature extraction wall-clock on this host,
//! across image sizes and pyramid depths (the workload behind Table 2's
//! FE row — absolute times differ from the paper's testbed, the scaling
//! shape is what matters).
//!
//! Every tracked id carries its parallelism: `…/t1` benches run one band
//! per level on a 1-thread pool with scratch reused across iterations,
//! and `…/t2` benches on an owned 2-thread pool, so their numbers do
//! not depend on the host's core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eslam_dataset::sequence::SequenceSpec;
use eslam_features::brief::{compute_descriptor_interior, PatternOffsets, RsBrief};
use eslam_features::fast;
use eslam_features::harris::harris_score;
use eslam_features::nms::{suppress, ScoredPoint};
use eslam_features::orb::{OrbConfig, OrbExtractor, OrbScratch, EDGE_MARGIN};
use eslam_features::orientation::patch_moments;
use eslam_features::{BandMode, WorkerPool};
use eslam_image::filter::gaussian_blur_7x7_fixed;
use eslam_image::pyramid::{ImagePyramid, PyramidConfig};
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

/// Frame 10 of fr1/xyz at 640×480.
fn paper_frame() -> GrayImage {
    SequenceSpec::paper_sequences(90, 1.0)[0]
        .build()
        .frame(10)
        .gray
}

/// Per pyramid level of the paper frame: the smoothed level and its NMS
/// survivors behind the edge margin (~25k over the four levels). The
/// kernel benches run over all of them; the extractor orients and
/// describes only each level's best `max_features`.
fn paper_frame_candidates(config: &OrbConfig) -> Vec<(GrayImage, Vec<(u32, u32)>)> {
    let pyramid = ImagePyramid::build(&paper_frame(), &config.pyramid);
    pyramid
        .iter()
        .map(|(_, level)| {
            let scored: Vec<ScoredPoint> = fast::detect(level, config.fast_threshold)
                .iter()
                .map(|d| ScoredPoint {
                    x: d.x,
                    y: d.y,
                    score: harris_score(level, d.x, d.y),
                })
                .collect();
            let (w, h) = (level.width(), level.height());
            let kept = suppress(&scored)
                .into_iter()
                .filter(|p| {
                    p.x >= EDGE_MARGIN
                        && p.y >= EDGE_MARGIN
                        && p.x + EDGE_MARGIN < w
                        && p.y + EDGE_MARGIN < h
                })
                .map(|p| (p.x, p.y))
                .collect();
            (gaussian_blur_7x7_fixed(level), kept)
        })
        .collect()
}

fn bench_fast(c: &mut Criterion) {
    // The FAST scan alone, one thread, over the paper frame's four
    // pyramid levels (~160k hits).
    let config = OrbConfig::default();
    let pyramid = ImagePyramid::build(&paper_frame(), &config.pyramid);
    let mut hits = Vec::new();
    let mut group = c.benchmark_group("feature_extraction/fast");
    group.bench_function("paper_frame/t1", |b| {
        b.iter(|| {
            for (_, level) in pyramid.iter() {
                fast::detect_into(black_box(level), config.fast_threshold, &mut hits);
                black_box(&hits);
            }
        })
    });
    group.finish();
}

fn bench_candidate_kernels(c: &mut Criterion) {
    // The two per-candidate kernels alone, one thread, over every
    // candidate of the paper frame: intensity-centroid moments, and the
    // RS-BRIEF sampler through each level's compiled offset table.
    let config = OrbConfig::default();
    let levels = paper_frame_candidates(&config);
    let mut group = c.benchmark_group("feature_extraction/orient");
    group.bench_function("paper_frame/t1", |b| {
        b.iter(|| {
            for (smoothed, candidates) in &levels {
                for &(x, y) in candidates {
                    black_box(patch_moments(black_box(smoothed), x, y));
                }
            }
        })
    });
    group.finish();

    let rs = RsBrief::new(config.pattern_seed);
    let tables: Vec<PatternOffsets> = levels
        .iter()
        .map(|(smoothed, _)| PatternOffsets::new(rs.pattern(), smoothed.width()))
        .collect();
    let mut group = c.benchmark_group("feature_extraction/describe");
    group.bench_function("paper_frame/t1", |b| {
        b.iter(|| {
            for ((smoothed, candidates), table) in levels.iter().zip(&tables) {
                for &(x, y) in candidates {
                    black_box(compute_descriptor_interior(
                        black_box(smoothed),
                        x,
                        y,
                        table,
                    ));
                }
            }
        })
    });
    group.finish();
}

fn bench_extraction_paper_frame(c: &mut Criterion) {
    // A rendered paper frame carries the real detection load (~160k
    // FAST hits over the pyramid, against ~800 on the VGA checkerboard
    // above), so scoring and NMS costs show here.
    let mut group = c.benchmark_group("feature_extraction/paper_frame");
    let img = paper_frame();
    let extractor = single_band(OrbConfig::default());
    let mut scratch = OrbScratch::with_threads(Some(1));
    group.bench_with_input(BenchmarkId::from_parameter("640x480/t1"), &img, |b, img| {
        b.iter(|| black_box(extractor.extract_with(img, &mut scratch)))
    });
    group.finish();
}

fn bench_extraction_bands(c: &mut Criterion) {
    // The band-parallel axis on the VGA workload, on an owned 2-thread
    // pool (unclamped, so a 1-core host runs the same schedule): bands=2
    // matches the pool, bands=1 overlaps only across pyramid levels, and
    // bands=4 pays two more halo re-scans per level.
    let mut group = c.benchmark_group("feature_extraction/bands");
    let img = test_image(640, 480);
    for bands in [1usize, 2, 4] {
        let extractor = OrbExtractor::new(OrbConfig {
            bands: BandMode::Fixed(bands),
            ..Default::default()
        });
        let mut scratch = OrbScratch::with_pool(WorkerPool::new(2));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{bands}/t2")),
            &img,
            |b, img| b.iter(|| black_box(extractor.extract_with(img, &mut scratch))),
        );
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
    bench_fast,
    bench_candidate_kernels,
    bench_extraction_bands,
    bench_extraction_pyramid_depth
);
criterion_main!(benches);
