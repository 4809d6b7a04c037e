//! Property tests proving the optimized front-end hot paths bit-identical
//! to their scalar reference oracles across random images, descriptor
//! sets and seeds — the contract of the fast-path overhaul:
//!
//! * FAST row scanner (the AVX2 run walk where the CPU has it, else the
//!   scalar bitmask rotate-AND) ≡ per-pixel segment test;
//! * row-sliced blur / resize ≡ clamped per-pixel reference;
//! * word-parallel descriptor rotation ≡ per-bit rotation;
//! * tiled/pooled matcher (whatever kernel rung the host dispatches
//!   to — see `tests/matcher_kernels.rs` for the per-rung suite) ≡
//!   the scalar argmin loop;
//! * the banded streaming extractor (persistent worker pool) ≡ the
//!   sequential scalar extractor.

use eslam_features::matcher::{match_brute_force, match_brute_force_reference};
use eslam_features::orb::{DescriptorKind, OrbConfig, OrbExtractor};
use eslam_features::{fast, Descriptor};
use eslam_image::filter::{gaussian_blur_7x7_fixed, gaussian_blur_7x7_fixed_reference};
use eslam_image::pyramid::{resize_nearest, resize_nearest_reference};
use eslam_image::GrayImage;
use proptest::prelude::*;

/// Deterministic pseudo-random test image.
fn noise_image(w: u32, h: u32, seed: u64) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let v = (x as u64)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((y as u64).wrapping_mul(0xbf58476d1ce4e5b9))
            .wrapping_add(seed.wrapping_mul(0x94d049bb133111eb));
        ((v ^ (v >> 29)) % 256) as u8
    })
}

/// A corner-rich image (checkerboard + jitter) so FAST actually fires.
fn corner_image(w: u32, h: u32, seed: u64) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let base = if ((x / 9) + (y / 9)) % 2 == 0 {
            45
        } else {
            195
        };
        base + ((x as u64 * 31 + y as u64 * 17 + seed * 1009) % 23) as u8
    })
}

fn descriptor_set(n: usize, salt: u64) -> Vec<Descriptor> {
    (0..n)
        .map(|i| {
            let s = (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) ^ salt;
            Descriptor::from_words([s, s.rotate_left(13), s.rotate_left(29), s.rotate_left(47)])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_scanner_equals_scalar_segment_test(
        w in 7u32..80, h in 7u32..60, seed in 0u64..1000, threshold in 3u8..90,
    ) {
        let img = noise_image(w, h, seed);
        prop_assert_eq!(
            fast::detect(&img, threshold),
            fast::detect_reference(&img, threshold)
        );
    }

    #[test]
    fn blur_equals_reference(w in 1u32..64, h in 1u32..48, seed in 0u64..1000) {
        let img = noise_image(w, h, seed);
        prop_assert_eq!(
            gaussian_blur_7x7_fixed(&img),
            gaussian_blur_7x7_fixed_reference(&img)
        );
    }

    #[test]
    fn resize_equals_reference(
        w in 2u32..60, h in 2u32..60, tw in 1u32..70, th in 1u32..70, seed in 0u64..500,
    ) {
        let img = noise_image(w, h, seed);
        prop_assert_eq!(
            resize_nearest(&img, tw, th),
            resize_nearest_reference(&img, tw, th)
        );
    }

    #[test]
    fn word_parallel_rotation_equals_per_bit(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        bits in 0usize..512,
    ) {
        let desc = Descriptor::from_words([a, b, c, d]);
        prop_assert_eq!(desc.rotate_bits(bits), desc.rotate_bits_reference(bits));
    }

    #[test]
    fn tiled_matcher_equals_reference(
        nq in 1usize..80, nt in 1usize..300, salt in 0u64..100, max_d in 20u32..256,
    ) {
        let query = descriptor_set(nq, salt);
        let train = descriptor_set(nt, salt ^ 0xfeed);
        prop_assert_eq!(
            match_brute_force(&query, &train, max_d),
            match_brute_force_reference(&query, &train, max_d)
        );
    }
}

proptest! {
    // The full-extractor sweep is the expensive one; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_extractor_equals_sequential_reference(seed in 0u64..100) {
        let img = corner_image(160, 120, seed);
        for kind in [DescriptorKind::RsBrief, DescriptorKind::OriginalLut] {
            let extractor = OrbExtractor::new(OrbConfig {
                descriptor: kind,
                max_features: 150,
                pattern_seed: seed ^ 0xe51a,
                ..Default::default()
            });
            prop_assert_eq!(extractor.extract(&img), extractor.extract_reference(&img));
        }
    }
}
