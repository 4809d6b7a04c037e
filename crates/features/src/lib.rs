//! ORB feature extraction and matching for the eSLAM reproduction.
//!
//! This crate implements the paper's feature front-end in full:
//!
//! * [`fast`] — FAST-9/16 segment-test detection (the FAST Detection
//!   module of §3.1); 32 centres decide per AVX2 step, by an in-register
//!   run walk, where the CPU has it;
//! * [`harris`] — Harris corner response used for filtering, streamed
//!   per row band through a Sobel line buffer in exact integer sums that
//!   roll from row to row; the row stages run AVX2-compiled, 4 responses
//!   per step, where the CPU has it;
//! * [`nms`] — 3×3 non-maximum suppression;
//! * [`orientation`] — intensity-centroid orientation with the paper's
//!   32-label hardware LUT discretization; the patch moments run as an
//!   exact AVX2 row-pair kernel where the CPU has it;
//! * [`pattern`] / [`brief`] — BRIEF test patterns, including the paper's
//!   headline contribution **RS-BRIEF** (§2.2): a 32-fold rotationally
//!   symmetric pattern whose steering degenerates to a descriptor byte
//!   rotation (the BRIEF Rotator); the compiled sampler gathers eight
//!   test pairs per AVX2 step where the CPU has it;
//! * [`heap`] — the bounded best-1024 Heap filter: the order the
//!   extractor selects in, and the reference extractor's selector;
//! * [`matcher`] — Hamming-distance brute-force matching (the BRIEF
//!   Matcher, §3.2), dispatched down an avx512 → popcnt → scalar kernel
//!   ladder, its rows split across a worker pool;
//! * [`orb`] — the complete extractor in the paper's rescheduled
//!   detect → compute → filter order (§3.1; the Original-vs-Rescheduled
//!   comparison is a hardware matter, modelled in `eslam-hw`);
//! * [`stream`] — the two-pass streaming front-end: row bands of every
//!   pyramid level scanned through ring line buffers, a detection pass
//!   then a description pass bounded to each level's best
//!   `max_features` candidates; the software mirror of the
//!   accelerator's dataflow and the extractor's only production path
//!   (its oracle is the scalar [`OrbExtractor::extract_reference`]).
//!
//! # Examples
//!
//! Extract features from two frames and match them:
//!
//! ```
//! use eslam_image::GrayImage;
//! use eslam_features::orb::{OrbExtractor, OrbConfig};
//! use eslam_features::matcher::match_brute_force;
//!
//! let frame = GrayImage::from_fn(320, 240, |x, y| {
//!     if (x / 14 + y / 14) % 2 == 0 { 60 } else { 200 }
//! });
//! let extractor = OrbExtractor::new(OrbConfig::default());
//! let a = extractor.extract(&frame);
//! let b = extractor.extract(&frame);
//! let matches = match_brute_force(&a.descriptors, &b.descriptors, 64);
//! assert_eq!(matches.len(), a.len()); // identical frames match perfectly
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bow;
pub mod brief;
pub mod descriptor;
pub mod fast;
pub mod grid;
pub mod harris;
pub mod heap;
pub mod matcher;
pub mod nms;
pub mod orb;
pub mod orientation;
pub mod pattern;
pub mod pool;
pub mod stream;

pub use bow::{BowParams, BowVector, Vocabulary, VocabularyNode, VocabularyParts};
pub use descriptor::{Descriptor, DESCRIPTOR_BITS};
pub use matcher::{DescriptorMatch, MatchKernel};
pub use orb::{Keypoint, OrbConfig, OrbExtractor, OrbFeatures};
pub use pool::WorkerPool;
pub use stream::BandMode;

/// Whether the CPU supports AVX2, detected once per process. The FAST
/// scan, the Harris row stages, the moments kernel and the descriptor
/// sampler all dispatch on this one answer.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_descriptor() -> impl Strategy<Value = Descriptor> {
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(a, b, c, d)| Descriptor::from_words([a, b, c, d]))
    }

    proptest! {
        #[test]
        fn hamming_is_a_metric(
            a in arb_descriptor(), b in arb_descriptor(), c in arb_descriptor(),
        ) {
            prop_assert_eq!(a.hamming(&a), 0);
            prop_assert_eq!(a.hamming(&b), b.hamming(&a));
            // Triangle inequality.
            prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
        }

        #[test]
        fn rotation_is_a_bijection(d in arb_descriptor(), n in 0usize..32) {
            let r = d.rotate_bits(8 * n);
            prop_assert_eq!(r.count_ones(), d.count_ones());
            // Rotating back recovers the original.
            let back = r.rotate_bits((256 - 8 * n) % 256);
            prop_assert_eq!(back, d);
        }

        #[test]
        fn rotation_preserves_hamming_distance(
            a in arb_descriptor(), b in arb_descriptor(), n in 0usize..32,
        ) {
            // Steering both descriptors by the same label keeps their
            // distance — the property that makes RS-BRIEF matching work.
            let ra = a.rotate_bits(8 * n);
            let rb = b.rotate_bits(8 * n);
            prop_assert_eq!(ra.hamming(&rb), a.hamming(&b));
        }

        #[test]
        fn heap_keeps_exact_top_n(scores in prop::collection::vec(0u32..10_000, 1..300), n in 1usize..64) {
            let mut heap = heap::BestHeap::new(n);
            for (i, &s) in scores.iter().enumerate() {
                heap.push(s as f64, i);
            }
            let kept: Vec<f64> = heap.into_sorted_vec().into_iter().map(|(s, _)| s).collect();
            let mut expect: Vec<f64> = scores.iter().map(|&s| s as f64).collect();
            expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
            expect.truncate(n);
            prop_assert_eq!(kept, expect);
        }

        #[test]
        fn orientation_lut_agrees_with_atan2(u in -10_000i64..10_000, v in -10_000i64..10_000) {
            prop_assume!(u != 0 || v != 0);
            let lut = orientation::OrientationLut::new();
            let expect = orientation::angle_to_label((v as f64).atan2(u as f64));
            prop_assert_eq!(lut.label(u, v), expect);
        }

        #[test]
        fn rs_pattern_rotation_reindexing_for_all_seeds(seed in 0u64..200, label in 0u8..32) {
            // The §2.2 identity must hold for *every* generated pattern,
            // not just the default seed: steering by descriptor rotation
            // equals pattern re-indexing.
            let engine = brief::RsBrief::new(seed);
            let img = eslam_image::GrayImage::from_fn(64, 64, |x, y| {
                ((x as u64 * 31 + y as u64 * 17 + seed) % 256) as u8
            });
            let fast = engine.compute(&img, 32, 32, label);
            let reference = engine.compute_by_reindexing(&img, 32, 32, label);
            prop_assert_eq!(fast, reference);
        }

        #[test]
        fn rs_pattern_stays_inside_patch(seed in 0u64..500) {
            let p = pattern::BriefPattern::rs_brief(seed);
            prop_assert!(p.max_radius() <= pattern::PATCH_RADIUS);
            for pair in p.pairs() {
                let (sx, sy) = pair.s.to_offset();
                let (dx, dy) = pair.d.to_offset();
                prop_assert!(sx.abs() <= 15 && sy.abs() <= 15);
                prop_assert!(dx.abs() <= 15 && dy.abs() <= 15);
            }
        }

        #[test]
        fn brute_force_match_is_argmin(
            qw in prop::collection::vec(any::<u64>(), 4..12),
            tw in prop::collection::vec(any::<u64>(), 8..40),
        ) {
            let query: Vec<Descriptor> = qw.chunks(4).filter(|c| c.len() == 4)
                .map(|c| Descriptor::from_words([c[0], c[1], c[2], c[3]])).collect();
            let train: Vec<Descriptor> = tw.chunks(4).filter(|c| c.len() == 4)
                .map(|c| Descriptor::from_words([c[0], c[1], c[2], c[3]])).collect();
            prop_assume!(!query.is_empty() && !train.is_empty());
            let matches = matcher::match_brute_force(&query, &train, u32::MAX);
            prop_assert_eq!(matches.len(), query.len());
            for m in &matches {
                let naive = train.iter().map(|t| query[m.query].hamming(t)).min().unwrap();
                prop_assert_eq!(m.distance, naive);
            }
        }
    }
}
