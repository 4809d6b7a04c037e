//! The streaming front-end oracle: everything the banded two-pass
//! streaming extractor produces must be **bit-identical** to the
//! sequential scalar reference (`OrbExtractor::extract_reference`) —
//! keypoints, Harris responses, orientation angles/labels, descriptors,
//! and extraction stats — for every paper sequence, every pyramid depth,
//! odd and degenerate image sizes, every descriptor kind, every band
//! count and worker-pool shape, and heap capacities where the per-level
//! keep bound cuts through exact score ties.

use eslam_core::{run_sequence, Slam, SlamConfig};
use eslam_dataset::sequence::{SequenceSpec, SyntheticSequence};
use eslam_features::fast::{self, FastDetection};
use eslam_features::harris::harris_score;
use eslam_features::orb::{DescriptorKind, OrbConfig, OrbExtractor, OrbScratch};
use eslam_features::BandMode;
use eslam_image::pyramid::PyramidConfig;
use eslam_image::GrayImage;

const IMAGE_SCALE: f64 = 0.25;

fn paper_sequences(frames: usize) -> Vec<SyntheticSequence> {
    SequenceSpec::paper_sequences(frames, IMAGE_SCALE)
        .iter()
        .map(|spec| spec.build())
        .collect()
}

/// A corner-rich checkerboard with per-pixel variation (pure
/// checkerboards have no FAST-9 corners).
fn textured(w: u32, h: u32, seed: u64) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let base = if ((x / 12) + (y / 12)) % 2 == 0 {
            50
        } else {
            190
        };
        base + ((x as u64 * 31 + y as u64 * 17 + seed * 1009) % 23) as u8
    })
}

/// Pairs of bright pixels on a flat background, one pair per 12×12
/// cell, with varied contrast. Each pair is mirror-symmetric about the
/// line (or, for the diagonal pairs, the point) between its two pixels,
/// so both pixels are FAST hits with exactly equal Harris scores and the
/// 3×3 NMS tie rule alone decides which survives. The pairs run
/// horizontally, vertically and along both diagonals, so every one of
/// the eight neighbour positions breaks a tie somewhere.
fn tied_pairs(w: u32, h: u32) -> GrayImage {
    const PAIRS: [[(u32, u32); 2]; 4] = [
        [(0, 0), (1, 0)],
        [(0, 0), (0, 1)],
        [(0, 0), (1, 1)],
        [(1, 0), (0, 1)],
    ];
    GrayImage::from_fn(w, h, |x, y| {
        let (cx, cy) = (x / 12, y / 12);
        let pair = PAIRS[((cx + cy) % 4) as usize];
        if pair
            .iter()
            .any(|&(px, py)| (x % 12, y % 12) == (5 + px, 5 + py))
        {
            120 + 10 * ((cx * 7 + cy * 3) % 12) as u8
        } else {
            60
        }
    })
}

/// Asserts full bit-identity of the extractor and the scalar reference
/// on one image, with a context message; the `OrbFeatures` equality
/// covers keypoints (coordinates, responses, angles, labels),
/// descriptors, and stats.
fn assert_matches_reference(extractor: &OrbExtractor, img: &GrayImage, context: &str) {
    let stream = extractor.extract_with(img, &mut OrbScratch::default());
    assert_eq!(stream, extractor.extract_reference(img), "{context}");
}

#[test]
fn streaming_bit_identical_across_all_paper_sequences() {
    let extractor = OrbExtractor::new(OrbConfig::default());
    for seq in paper_sequences(3) {
        for (i, frame) in seq.frames().enumerate() {
            assert_matches_reference(&extractor, &frame.gray, &format!("{} frame {i}", seq.name));
        }
    }
}

#[test]
fn streaming_bit_identical_across_pyramid_depths() {
    // All pyramid levels stream, including the tiny top levels whose
    // height approaches the descriptor halo.
    let seq = &paper_sequences(2)[0];
    let frame = seq.frame(0);
    for levels in [1usize, 2, 4, 6] {
        let extractor = OrbExtractor::new(OrbConfig {
            pyramid: PyramidConfig {
                levels,
                scale_factor: 1.2,
            },
            ..Default::default()
        });
        assert_matches_reference(&extractor, &frame.gray, &format!("{levels} levels"));
    }
}

#[test]
fn streaming_bit_identical_on_odd_and_degenerate_sizes() {
    // Below-band sizes (nothing extractable), widths that exercise the
    // SIMD row tails, and heights straddling the ring size.
    let extractor = OrbExtractor::new(OrbConfig::default());
    for (w, h) in [
        (1u32, 1u32),
        (6, 6),
        (7, 7),
        (8, 40),
        (40, 8),
        (17, 19),
        (31, 33),
        (37, 64),
        (41, 100),
        (65, 48),
        (101, 77),
        (64, 64),
    ] {
        assert_matches_reference(&extractor, &textured(w, h, 11), &format!("{w}x{h}"));
    }
}

#[test]
fn streaming_bit_identical_for_all_descriptor_kinds() {
    // Every descriptor kind must agree with the reference exactly — on
    // a corner-rich texture and on an image whose adjacent hits tie
    // exactly — for every band count and for heap capacities N at which
    // the per-level keep bound cuts every level of the tie image (1, 7),
    // only its busiest (64), or none (200).
    let ties = tied_pairs(160, 120);
    let hits = fast::detect(&ties, fast::DEFAULT_THRESHOLD);
    let tied = |a: &FastDetection, (dx, dy): (i64, i64)| {
        hits.iter().any(|b| {
            (b.x as i64 - a.x as i64, b.y as i64 - a.y as i64) == (dx, dy)
                && harris_score(&ties, a.x, a.y) == harris_score(&ties, b.x, b.y)
        })
    };
    for step in [(1, 0), (0, 1), (1, 1), (-1, 1)] {
        assert!(
            hits.iter().any(|a| tied(a, step)),
            "no exact score tie between level-0 hits {step:?} apart"
        );
    }
    const CAPACITIES: [usize; 4] = [1, 7, 64, 200];
    // Some level's N-th and (N+1)-th best candidates tie exactly, so the
    // raster clause of the keep bound decides between them.
    let every = OrbExtractor::new(OrbConfig {
        max_features: 4096,
        ..Default::default()
    })
    .extract(&ties);
    assert!(every.stats.kept < 4096);
    let cut_ties = CAPACITIES.iter().any(|&n| {
        (0..OrbConfig::default().pyramid.levels).any(|level| {
            let mut scores: Vec<f64> = (every.keypoints.iter())
                .filter(|k| k.level == level)
                .map(|k| k.score)
                .collect();
            scores.sort_by(|a, b| b.total_cmp(a));
            scores.len() > n && scores[n - 1] == scores[n]
        })
    });
    assert!(cut_ties, "no keep-bound cutoff falls inside a score tie");
    for (name, img) in [("textured", textured(200, 150, 3)), ("tied pairs", ties)] {
        for kind in [DescriptorKind::RsBrief, DescriptorKind::OriginalLut] {
            for max_features in CAPACITIES {
                let config = OrbConfig {
                    descriptor: kind,
                    max_features,
                    ..Default::default()
                };
                let oracle = OrbExtractor::new(config).extract_reference(&img);
                for bands in 1..=4 {
                    let extractor = OrbExtractor::new(OrbConfig {
                        bands: BandMode::Fixed(bands),
                        ..config
                    });
                    let streamed = extractor.extract_with(&img, &mut OrbScratch::default());
                    let ctx = format!("{name} {kind:?} N {max_features} bands {bands}");
                    assert_eq!(streamed, oracle, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn streaming_bit_identical_when_the_frame_cut_ties_across_levels() {
    // Capacities N at which the frame's N-th and (N+1)-th best
    // candidates score exactly alike on different levels: both are
    // described (neither has N better candidates on its own level), and
    // only the arrival order of the merge, level by level, keeps the
    // lower level's.
    let ties = tied_pairs(160, 120);
    let every = OrbExtractor::new(OrbConfig {
        max_features: 4096,
        ..Default::default()
    })
    .extract(&ties);
    assert!(every.stats.kept < 4096);
    // Every candidate is kept, so `every` lists the frame in the heap's
    // order.
    let cuts: Vec<usize> = (every.keypoints.windows(2).enumerate())
        .filter(|(_, pair)| pair[0].score == pair[1].score && pair[0].level != pair[1].level)
        .map(|(i, _)| i + 1)
        .collect();
    assert!(!cuts.is_empty(), "no exact score tie across levels");
    for &max_features in cuts.iter().take(3) {
        let config = OrbConfig {
            max_features,
            ..Default::default()
        };
        let oracle = OrbExtractor::new(config).extract_reference(&ties);
        assert_eq!(oracle.keypoints, every.keypoints[..max_features]);
        for bands in 1..=4 {
            let extractor = OrbExtractor::new(OrbConfig {
                bands: BandMode::Fixed(bands),
                ..config
            });
            let streamed = extractor.extract_with(&ties, &mut OrbScratch::default());
            assert_eq!(streamed, oracle, "N {max_features} bands {bands}");
        }
    }
}

#[test]
fn streaming_bit_identical_across_worker_pool_shapes() {
    // The default one-band-per-thread split must not perturb the
    // result: 1 thread, a small pool, and the process-global pool all
    // agree with the reference.
    let extractor = OrbExtractor::new(OrbConfig::default());
    let img = paper_sequences(1)[2].frame(0).gray.clone();
    let oracle = extractor.extract_reference(&img);
    for threads in [Some(1), Some(3), None] {
        let mut scratch = match threads {
            Some(_) => OrbScratch::with_threads(threads),
            None => OrbScratch::default(),
        };
        let streamed = extractor.extract_with(&img, &mut scratch);
        assert_eq!(streamed, oracle, "threads {threads:?}");
    }
}

#[test]
fn band_parallel_bit_identical_across_paper_and_loop_sequences() {
    // Splitting each level into row bands (1, 2 or 4 per level) must
    // be invisible in the output on every paper sequence AND the
    // loop-closure sequences, against the scalar reference.
    let sequences: Vec<SyntheticSequence> = SequenceSpec::paper_sequences(2, IMAGE_SCALE)
        .iter()
        .chain(SequenceSpec::loop_sequences(2, IMAGE_SCALE).iter())
        .map(|spec| spec.build())
        .collect();
    let reference = OrbExtractor::new(OrbConfig::default());
    for seq in &sequences {
        for (i, frame) in seq.frames().enumerate() {
            let oracle = reference.extract_reference(&frame.gray);
            for bands in [1usize, 2, 4] {
                let banded = OrbExtractor::new(OrbConfig {
                    bands: BandMode::Fixed(bands),
                    ..Default::default()
                });
                let split = banded.extract_with(&frame.gray, &mut OrbScratch::default());
                assert_eq!(split, oracle, "{} frame {i} bands {bands}", seq.name);
            }
        }
    }
}

#[test]
fn band_parallel_bit_identical_across_worker_pool_shapes() {
    // Band count × pool shape: the depth-first schedule dispatches onto
    // whatever pool the scratch carries (1 thread = inline, a small
    // private pool, the process-global pool) and the merge must stay
    // deterministic under every shape.
    let img = paper_sequences(1)[2].frame(0).gray.clone();
    let oracle = OrbExtractor::new(OrbConfig::default()).extract_reference(&img);
    for bands in [1usize, 2, 4] {
        let extractor = OrbExtractor::new(OrbConfig {
            bands: BandMode::Fixed(bands),
            ..Default::default()
        });
        for threads in [Some(1), Some(3), None] {
            let mut scratch = match threads {
                Some(_) => OrbScratch::with_threads(threads),
                None => OrbScratch::default(),
            };
            let streamed = extractor.extract_with(&img, &mut scratch);
            assert_eq!(streamed, oracle, "bands {bands} threads {threads:?}");
        }
    }
}

#[test]
fn full_pipeline_identical_under_all_band_counts() {
    // End-to-end: a Slam run with the band count pinned to 2 or 4 must
    // reproduce the single-band trajectory, tracking decisions and
    // feature counts bit for bit.
    for seq in paper_sequences(4).into_iter().take(2) {
        let runs: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|bands| {
                let mut config = SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE);
                config.orb.bands = BandMode::Fixed(bands);
                run_sequence(&seq, config)
            })
            .collect();
        let oracle = &runs[0];
        for (bands, run) in [2usize, 4].into_iter().zip(&runs[1..]) {
            assert_eq!(run.reports.len(), oracle.reports.len(), "{}", seq.name);
            for (r, m) in run.reports.iter().zip(&oracle.reports) {
                let ctx = format!("{} frame {} (bands {bands})", seq.name, m.index);
                assert_eq!(r.pose_c2w, m.pose_c2w, "{ctx}: pose");
                assert_eq!(r.extraction, m.extraction, "{ctx}: feature counts");
                assert_eq!(r.raw_matches, m.raw_matches, "{ctx}: raw matches");
                assert_eq!(r.inliers, m.inliers, "{ctx}: inliers");
                assert_eq!(r.is_keyframe, m.is_keyframe, "{ctx}: keyframe flag");
                assert_eq!(r.tracking_ok, m.tracking_ok, "{ctx}: tracking flag");
                assert_eq!(r.map_size, m.map_size, "{ctx}: map size");
            }
            assert_eq!(
                run.estimate.poses(),
                oracle.estimate.poses(),
                "{} (bands {bands}): trajectory",
                seq.name
            );
        }
    }
}

#[test]
fn streaming_working_memory_is_height_independent() {
    // The line-buffer claim at the tier level: same width, 8× the
    // height, identical peak extraction working memory — while the
    // results still match the scalar reference on both shapes.
    let extractor = OrbExtractor::new(OrbConfig::default());
    let mut short = OrbScratch::default();
    let mut tall = OrbScratch::default();
    let short_img = textured(160, 120, 5);
    let tall_img = textured(160, 960, 5);
    let short_run = extractor.extract_with(&short_img, &mut short);
    let tall_run = extractor.extract_with(&tall_img, &mut tall);
    assert_eq!(short_run, extractor.extract_reference(&short_img));
    assert_eq!(tall_run, extractor.extract_reference(&tall_img));
    let bytes = short.stream_working_bytes();
    assert!(bytes > 0, "streaming pass must have used its line buffers");
    assert_eq!(
        bytes,
        tall.stream_working_bytes(),
        "line-buffer bytes must not scale with image height"
    );
}

#[test]
fn band_parallel_working_memory_scales_with_bands_not_height() {
    // The tier-pinned memory bound with bands: O(width)·bands. Each of
    // the four bands holds a full-width line-buffer set (the halo
    // duplication `stream_working_bytes` must charge), so 4 bands cost
    // exactly 4× one band — and still nothing scales with height.
    let banded = OrbExtractor::new(OrbConfig {
        bands: BandMode::Fixed(4),
        ..Default::default()
    });
    let mut short = OrbScratch::default();
    let mut tall = OrbScratch::default();
    banded.extract_with(&textured(160, 120, 5), &mut short);
    banded.extract_with(&textured(160, 960, 5), &mut tall);
    let four_band_bytes = short.stream_working_bytes();
    assert!(four_band_bytes > 0);
    assert_eq!(
        four_band_bytes,
        tall.stream_working_bytes(),
        "band line-buffer bytes must not scale with image height"
    );

    let single = OrbExtractor::new(OrbConfig {
        bands: BandMode::Fixed(1),
        ..Default::default()
    });
    let mut one = OrbScratch::default();
    single.extract_with(&textured(160, 120, 5), &mut one);
    // The smallest level of these shapes has 63 finalize rows, so
    // neither band count is clamped.
    assert_eq!(
        four_band_bytes,
        4 * one.stream_working_bytes(),
        "every band must charge exactly one full line-buffer set"
    );
}

#[test]
fn slam_default_config_streams_and_matches_manual_extraction() {
    // A Slam frame step must agree with manual extraction on the same
    // image.
    let seq = &paper_sequences(2)[1];
    let frame = seq.frame(0);
    let mut slam = Slam::builder()
        .config(SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE))
        .build();
    let report = slam.process(frame.timestamp, &frame.gray, &frame.depth);
    let config = SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE);
    let manual = OrbExtractor::new(config.orb).extract(&frame.gray);
    assert_eq!(report.extraction.kept, manual.stats.kept);
    assert_eq!(report.extraction.candidates, manual.stats.candidates);
}
