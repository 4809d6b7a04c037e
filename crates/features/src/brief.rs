//! BRIEF descriptor computation with the three steering strategies of the
//! paper (§2.2): direct per-feature rotation (Eq. 2), the classic 30-angle
//! lookup table \[8\], and RS-BRIEF where steering is a pure descriptor
//! rotation.
//!
//! # Sampling kernels
//!
//! [`compute_descriptor`] samples with border clamping and is the oracle.
//! The production sampler, [`compute_descriptor_interior`], reads through
//! a [`PatternOffsets`] table compiled for the image stride, after one
//! margin check per centre, with one kernel per platform:
//!
//! * **AVX2** (x86-64 hosts that report it): eight test pairs per step,
//!   one `vpgatherdd` for the eight `S` locations and one for the eight
//!   `D` locations, at byte offsets the table stores as two `i32` rows.
//!   Each gathered dword keeps its low byte, so `vpcmpgtd` compares the
//!   two pixels exactly as `u8`s, and `movmskps` yields the eight
//!   descriptor bits in pattern order.
//! * **Scalar** everywhere else: one indexed load per test location.
//!
//! A dword gather reads 3 bytes past its sample, so the AVX2 kernel runs
//! only where the table's furthest sample plus those 3 bytes stays
//! inside the image buffer. Only a centre on the last rows the margin
//! admits can miss that, when its furthest sample lands within 3 bytes
//! of the buffer's end; the scalar kernel takes such centres. Both
//! produce the same 256 bits.

use crate::descriptor::Descriptor;
use crate::orientation::ORIENTATION_BINS;
use crate::pattern::{
    BriefPattern, SteeredPatternLut, PATTERN_PAIRS, RS_SEED_PAIRS, RS_STEP_RADIANS,
};
use eslam_image::GrayImage;

/// Computes a descriptor by sampling the (smoothened) image at the
/// pattern's test locations around `(x, y)`. Bit `i` is 1 iff
/// `I(S_i) > I(D_i)`. Out-of-bounds samples clamp to the border.
pub fn compute_descriptor(img: &GrayImage, x: u32, y: u32, pattern: &BriefPattern) -> Descriptor {
    let mut d = Descriptor::ZERO;
    for (i, pair) in pattern.pairs().iter().enumerate() {
        let (sx, sy) = pair.s.to_offset();
        let (dx, dy) = pair.d.to_offset();
        let is = img.get_clamped(x as i64 + sx as i64, y as i64 + sy as i64);
        let id = img.get_clamped(x as i64 + dx as i64, y as i64 + dy as i64);
        if is > id {
            d.set_bit(i, true);
        }
    }
    d
}

/// A pattern compiled to linear pixel offsets for one image stride: the
/// per-sample coordinate arithmetic and border clamping of
/// [`compute_descriptor`] collapse to a single indexed load per test
/// location. Built once per pyramid level per frame geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternOffsets {
    width: u32,
    /// Per-pair `S` linear offsets relative to the centre pixel, in
    /// pattern order (apart from `d` so eight consecutive pairs load as
    /// one gather index vector).
    s: [i32; PATTERN_PAIRS],
    /// Per-pair `D` linear offsets relative to the centre pixel.
    d: [i32; PATTERN_PAIRS],
    /// Bytes the furthest sample lies before the centre (0 if none does);
    /// only the AVX2 gather needs it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    back: usize,
    /// Bytes the furthest sample lies after the centre (0 if none does).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    reach: usize,
    /// Maximum |dx| / |dy| over all test locations (the interior margin).
    margin: u32,
    /// Fingerprint of the source pattern (see [`pattern_fingerprint`]).
    fingerprint: u64,
}

/// A cheap content fingerprint of a pattern's rounded test locations,
/// used to validate cached [`PatternOffsets`] tables against the pattern
/// they were compiled from (a width check alone cannot detect a pattern
/// change, e.g. a scratch buffer reused across extractors).
pub fn pattern_fingerprint(pattern: &BriefPattern) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: i32| {
        h ^= v as u32 as u64;
        h = h.wrapping_mul(0x100000001b3);
    };
    for pair in pattern.pairs() {
        let (sx, sy) = pair.s.to_offset();
        let (dx, dy) = pair.d.to_offset();
        mix(sx);
        mix(sy);
        mix(dx);
        mix(dy);
    }
    h
}

impl PatternOffsets {
    /// Compiles `pattern` for images of the given `width`.
    pub fn new(pattern: &BriefPattern, width: u32) -> Self {
        let w = width as i64;
        let mut margin = 0i32;
        let mut s = [0i32; PATTERN_PAIRS];
        let mut d = [0i32; PATTERN_PAIRS];
        for (i, pair) in pattern.pairs().iter().enumerate() {
            let (sx, sy) = pair.s.to_offset();
            let (dx, dy) = pair.d.to_offset();
            margin = margin
                .max(sx.abs())
                .max(sy.abs())
                .max(dx.abs())
                .max(dy.abs());
            s[i] = (sy as i64 * w + sx as i64) as i32;
            d[i] = (dy as i64 * w + dx as i64) as i32;
        }
        let lowest = s.iter().chain(&d).copied().min().unwrap_or(0);
        let highest = s.iter().chain(&d).copied().max().unwrap_or(0);
        PatternOffsets {
            width,
            s,
            d,
            back: lowest.min(0).unsigned_abs() as usize,
            reach: highest.max(0) as usize,
            margin: margin as u32,
            fingerprint: pattern_fingerprint(pattern),
        }
    }

    /// The image width this table was compiled for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The interior margin a centre pixel must keep from every border.
    pub fn margin(&self) -> u32 {
        self.margin
    }

    /// Fingerprint of the pattern this table was compiled from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Descriptor computation through a compiled [`PatternOffsets`] table.
/// Bit-identical to [`compute_descriptor`] with the source pattern, for
/// centres at least [`PatternOffsets::margin`] pixels from every border
/// (clamping never engages there). Runs the AVX2 gather kernel where
/// the CPU has it and its reads stay inside the image, the scalar
/// sampler otherwise (see the module docs).
///
/// # Panics
/// Panics if the centre violates the interior margin or the table was
/// compiled for a different width.
pub fn compute_descriptor_interior(
    img: &GrayImage,
    x: u32,
    y: u32,
    table: &PatternOffsets,
) -> Descriptor {
    let m = table.margin;
    assert_eq!(
        img.width(),
        table.width,
        "offset table compiled for another stride"
    );
    assert!(
        x >= m && y >= m && x + m < img.width() && y + m < img.height(),
        "centre ({x},{y}) too close to the border for the offset table"
    );
    let base = (y as usize) * img.width() as usize + x as usize;
    let data = img.as_raw();
    #[cfg(target_arch = "x86_64")]
    if base + table.reach + 3 < data.len() && crate::avx2_available() {
        // SAFETY: AVX2 was detected on this CPU.
        return unsafe { x86::gather_descriptor(data, base, table) };
    }
    sample_descriptor(data, base, table)
}

/// The scalar sampler: one indexed load per test location around the
/// centre byte `base`.
fn sample_descriptor(data: &[u8], base: usize, table: &PatternOffsets) -> Descriptor {
    let mut words = [0u64; 4];
    for (i, (&so, &d_o)) in table.s.iter().zip(&table.d).enumerate() {
        let is = data[(base as i64 + so as i64) as usize];
        let id = data[(base as i64 + d_o as i64) as usize];
        words[i / 64] |= ((is > id) as u64) << (i % 64);
    }
    Descriptor::from_words(words)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::PatternOffsets;
    use crate::descriptor::Descriptor;
    use std::arch::x86_64::*;

    /// AVX2 sampler around the centre byte `base`: eight test pairs per
    /// step, gathered as dwords whose low byte is the sample.
    ///
    /// # Panics
    /// Panics unless every byte the gathers read, `base − back` through
    /// `base + reach + 3`, lies inside `data`.
    #[target_feature(enable = "avx2")]
    pub(super) fn gather_descriptor(
        data: &[u8],
        base: usize,
        table: &PatternOffsets,
    ) -> Descriptor {
        assert!(
            base >= table.back && base + table.reach + 3 < data.len(),
            "gathers around byte {base} leave the {}-byte image",
            data.len()
        );
        // SAFETY: `base < data.len()` by the assert.
        let centre = unsafe { data.as_ptr().add(base) } as *const i32;
        let low_byte = _mm256_set1_epi32(0xff);
        let mut words = [0u64; 4];
        let groups = table.s.chunks_exact(8).zip(table.d.chunks_exact(8));
        for (g, (s, d)) in groups.enumerate() {
            // SAFETY: AVX2 is enabled on this function; `s` and `d` are
            // eight `i32`s each; every offset lies in `−back ..= reach`,
            // so each dword read starts at or after `data[0]` and ends
            // at or before `data[base + reach + 3]`, inside `data`.
            let (is, id) = unsafe {
                let si = _mm256_loadu_si256(s.as_ptr() as *const __m256i);
                let di = _mm256_loadu_si256(d.as_ptr() as *const __m256i);
                (
                    _mm256_i32gather_epi32::<1>(centre, si),
                    _mm256_i32gather_epi32::<1>(centre, di),
                )
            };
            let gt = _mm256_cmpgt_epi32(
                _mm256_and_si256(is, low_byte),
                _mm256_and_si256(id, low_byte),
            );
            let bits = _mm256_movemask_ps(_mm256_castsi256_ps(gt)) as u32 as u64;
            words[g / 8] |= bits << (8 * (g % 8));
        }
        Descriptor::from_words(words)
    }
}

/// Band-aware descriptor entry of the streaming front-end: samples the
/// pattern around **virtual** image row `y` from a *mirrored* row ring
/// (see [`crate::orientation::patch_moments_ring`] for the ring layout
/// and caller contract). The table must be compiled for the ring's
/// width — the ring is full-width precisely so the table's linearized
/// offsets stay valid. Bit-identical to
/// `compute_descriptor_interior(full_smoothed, x, y, table)` under the
/// contract. Returns the **unsteered** descriptor, like
/// [`compute_descriptor_interior`].
///
/// # Panics
/// Panics if the ring is not mirrored, too short for the patch window,
/// or `(x, y)` violates the interior margins.
pub fn compute_descriptor_ring(
    ring: &GrayImage,
    x: u32,
    y: u32,
    ring_rows: u32,
    table: &PatternOffsets,
) -> Descriptor {
    // Slot mapping uses the full 15-pixel patch radius (not the
    // table's possibly smaller margin) so it agrees with every other
    // ring consumer about where virtual rows live.
    let r = crate::pattern::PATCH_RADIUS as u32;
    assert_eq!(ring.height(), 2 * ring_rows, "ring must be mirrored");
    assert!(ring_rows > 2 * r, "ring too short for the patch window");
    assert!(y >= r, "virtual row {y} clips the top border");
    let slot = (y - r) % ring_rows + r;
    compute_descriptor_interior(ring, x, slot, table)
}

/// RS-BRIEF descriptor engine: one fixed pattern; steering by orientation
/// label is the BRIEF Rotator byte-rotation.
#[derive(Debug, Clone, PartialEq)]
pub struct RsBrief {
    pattern: BriefPattern,
}

impl RsBrief {
    /// Builds the engine from a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RsBrief {
            pattern: BriefPattern::rs_brief(seed),
        }
    }

    /// The underlying 32-fold symmetric pattern.
    pub fn pattern(&self) -> &BriefPattern {
        &self.pattern
    }

    /// Computes the steered descriptor for a feature with orientation
    /// label `label` (0..31): sample once with the fixed pattern, then
    /// rotate the descriptor by `8 × label` bits.
    ///
    /// # Panics
    /// Panics if `label >= 32`.
    pub fn compute(&self, img: &GrayImage, x: u32, y: u32, label: u8) -> Descriptor {
        assert!(label < ORIENTATION_BINS);
        compute_descriptor(img, x, y, &self.pattern).steer(label)
    }

    /// Reference steering by **pattern re-indexing** (what rotating the
    /// test locations by `label` steps amounts to, thanks to the 32-fold
    /// symmetry). Bit-exactly equal to [`RsBrief::compute`]; used by tests
    /// and the hardware model to prove the Rotator shortcut.
    pub fn compute_by_reindexing(&self, img: &GrayImage, x: u32, y: u32, label: u8) -> Descriptor {
        assert!(label < ORIENTATION_BINS);
        let pairs = self.pattern.pairs();
        let mut d = Descriptor::ZERO;
        let shift = RS_SEED_PAIRS * label as usize;
        for i in 0..pairs.len() {
            let pair = &pairs[(i + shift) % pairs.len()];
            let (sx, sy) = pair.s.to_offset();
            let (dx, dy) = pair.d.to_offset();
            let is = img.get_clamped(x as i64 + sx as i64, y as i64 + sy as i64);
            let id = img.get_clamped(x as i64 + dx as i64, y as i64 + dy as i64);
            if is > id {
                d.set_bit(i, true);
            }
        }
        d
    }

    /// Reference steering by **continuous rotation** (Eq. 2): rotate every
    /// test location by `label × 11.25°` and resample. Agrees with
    /// [`RsBrief::compute`] up to rounding ties on the 0.5-pixel grid.
    pub fn compute_by_rotation(&self, img: &GrayImage, x: u32, y: u32, label: u8) -> Descriptor {
        assert!(label < ORIENTATION_BINS);
        let rotated = self.pattern.rotated(label as f64 * RS_STEP_RADIANS);
        compute_descriptor(img, x, y, &rotated)
    }
}

/// Original ORB descriptor engine with the 30-angle steering LUT \[8\].
#[derive(Debug, Clone, PartialEq)]
pub struct OriginalBrief {
    pattern: BriefPattern,
    lut: SteeredPatternLut,
}

impl OriginalBrief {
    /// Builds the engine (and its 30-entry LUT) from a deterministic seed.
    pub fn new(seed: u64) -> Self {
        let pattern = BriefPattern::original(seed);
        let lut = SteeredPatternLut::build(&pattern);
        OriginalBrief { pattern, lut }
    }

    /// The unrotated base pattern.
    pub fn pattern(&self) -> &BriefPattern {
        &self.pattern
    }

    /// The 30-angle steering table.
    pub fn lut(&self) -> &SteeredPatternLut {
        &self.lut
    }

    /// Steered descriptor via the pre-computed LUT (nearest 12°).
    pub fn compute_lut(&self, img: &GrayImage, x: u32, y: u32, angle: f64) -> Descriptor {
        compute_descriptor(img, x, y, self.lut.lookup(angle))
    }

    /// Steered descriptor via direct Eq. 2 rotation of all 512 locations —
    /// the accuracy reference, and the compute-cost baseline of §2.2.
    pub fn compute_direct(&self, img: &GrayImage, x: u32, y: u32, angle: f64) -> Descriptor {
        compute_descriptor(img, x, y, &self.pattern.rotated(angle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured_image(seed: u64) -> GrayImage {
        GrayImage::from_fn(96, 96, |x, y| {
            let h = (x as u64)
                .wrapping_mul(2654435761)
                .wrapping_add((y as u64).wrapping_mul(40503))
                .wrapping_add(seed.wrapping_mul(97));
            ((h >> 8) % 256) as u8
        })
    }

    #[test]
    fn descriptor_is_deterministic() {
        let img = textured_image(0);
        let engine = RsBrief::new(5);
        let a = engine.compute(&img, 48, 48, 0);
        let b = engine.compute(&img, 48, 48, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn rotator_equals_pattern_reindexing_exactly() {
        // The core RS-BRIEF claim (§2.2): rotating test locations reduces
        // to shifting the descriptor. Bit-exact across all 32 labels.
        let engine = RsBrief::new(42);
        for seed in 0..4 {
            let img = textured_image(seed);
            for label in 0..32u8 {
                let fast = engine.compute(&img, 48, 48, label);
                let reference = engine.compute_by_reindexing(&img, 48, 48, label);
                assert_eq!(fast, reference, "seed {seed} label {label}");
            }
        }
    }

    #[test]
    fn rotator_matches_continuous_rotation_closely() {
        // Continuous Eq. 2 rotation recomputes sin/cos, so rounding of a
        // test location can differ on knife-edge half-pixel cases; the
        // Hamming gap must still be tiny.
        let engine = RsBrief::new(42);
        let img = textured_image(9);
        for label in 0..32u8 {
            let fast = engine.compute(&img, 48, 48, label);
            let rotated = engine.compute_by_rotation(&img, 48, 48, label);
            assert!(
                fast.hamming(&rotated) <= 8,
                "label {label}: distance {}",
                fast.hamming(&rotated)
            );
        }
    }

    #[test]
    fn label_zero_is_unsteered() {
        let engine = RsBrief::new(1);
        let img = textured_image(3);
        let steered = engine.compute(&img, 40, 40, 0);
        let raw = compute_descriptor(&img, 40, 40, engine.pattern());
        assert_eq!(steered, raw);
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_panics() {
        let engine = RsBrief::new(1);
        let img = textured_image(0);
        let _ = engine.compute(&img, 40, 40, 32);
    }

    #[test]
    fn different_locations_give_different_descriptors() {
        let engine = RsBrief::new(7);
        let img = textured_image(2);
        let a = engine.compute(&img, 30, 30, 0);
        let b = engine.compute(&img, 60, 60, 0);
        assert!(a.hamming(&b) > 40, "distance {}", a.hamming(&b));
    }

    #[test]
    fn original_lut_close_to_direct_rotation() {
        // §2.2: the 12° discretization moves a radius-15 location by ≤ ~1.6
        // pixels, so LUT and direct descriptors stay close on smooth data.
        let engine = OriginalBrief::new(11);
        let img = eslam_image::filter::gaussian_blur_7x7_fixed(&textured_image(4));
        for k in 0..8 {
            let angle = k as f64 * 0.35;
            let lut = engine.compute_lut(&img, 48, 48, angle);
            let direct = engine.compute_direct(&img, 48, 48, angle);
            let d = lut.hamming(&direct);
            assert!(d <= 96, "angle {angle}: distance {d}");
        }
    }

    #[test]
    fn original_lut_exact_at_table_angles() {
        let engine = OriginalBrief::new(11);
        let img = textured_image(5);
        // At exactly 0° the LUT entry is the base pattern.
        let lut = engine.compute_lut(&img, 48, 48, 0.0);
        let base = compute_descriptor(&img, 48, 48, engine.pattern());
        assert_eq!(lut, base);
    }

    #[test]
    fn offset_table_matches_clamped_sampling_in_interior() {
        let img = textured_image(6);
        for engine_seed in [0u64, 17, 42] {
            let rs = RsBrief::new(engine_seed);
            let table = PatternOffsets::new(rs.pattern(), img.width());
            let m = table.margin();
            assert!(m <= 15);
            for (x, y) in [(m, m), (48, 48), (95 - m, 95 - m), (m, 60), (70, m)] {
                assert_eq!(
                    compute_descriptor_interior(&img, x, y, &table),
                    compute_descriptor(&img, x, y, rs.pattern()),
                    "seed {engine_seed} at ({x},{y})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "too close to the border")]
    fn offset_table_rejects_border_centres() {
        let img = textured_image(0);
        let rs = RsBrief::new(1);
        let table = PatternOffsets::new(rs.pattern(), img.width());
        let _ = compute_descriptor_interior(&img, 0, 0, &table);
    }

    #[test]
    fn constant_image_gives_zero_descriptor() {
        let img = GrayImage::from_fn(64, 64, |_, _| 128);
        let engine = RsBrief::new(3);
        let d = engine.compute(&img, 32, 32, 5);
        assert_eq!(d.count_ones(), 0, "no strict inequality on flat image");
    }

    #[test]
    fn steered_descriptors_of_rotated_content_match() {
        // Rotationally invariance smoke test: descriptor of a pattern and
        // descriptor of the same pattern rotated 90°, steered by the
        // corresponding labels, should be much closer than random (~128).
        let engine = RsBrief::new(21);
        // Radial-ish texture rendered twice, the second rotated by 90°.
        let img0 = GrayImage::from_fn(96, 96, |x, y| {
            let (dx, dy) = (x as f64 - 48.0, y as f64 - 48.0);
            (((dx * 0.4).sin() * (dy * 0.23).cos() + 1.0) * 100.0) as u8
        });
        let img90 = GrayImage::from_fn(96, 96, |x, y| {
            // (x, y) in rotated image samples (y, 96-1-x) in the original.
            img0.get(y, 95 - x)
        });
        let d0 = engine.compute(&img0, 48, 48, 0);
        // Content rotated by 90° ⇒ orientation advanced by ±8 labels
        // depending on the raster-axis convention; either steering must
        // bring the descriptors far below the chance distance (~128).
        let d90_pos = engine.compute(&img90, 48, 48, 8);
        let d90_neg = engine.compute(&img90, 48, 48, 24);
        let dist = d0.hamming(&d90_pos).min(d0.hamming(&d90_neg));
        assert!(
            dist < 80,
            "steered distance {dist} should be well below chance"
        );
    }

    mod kernel_props {
        use super::*;
        use crate::pattern::{TestPair, TestPoint};
        use proptest::prelude::*;

        /// Deterministic per-pixel noise over the full `u8` range.
        fn noise(w: u32, h: u32, seed: u64) -> GrayImage {
            GrayImage::from_fn(w, h, |x, y| {
                let v = (u64::from(x) << 32 | u64::from(y)) ^ seed;
                (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8
            })
        }

        /// The extractor's default pattern seed and one other.
        const SEEDS: [u64; 2] = [0xe51a, 7];

        /// An RS-BRIEF pattern whose first pair also tests the patch
        /// corners `(15, 15)` and `(−15, −15)`: at the bottom-right
        /// centre the margin admits, its last gather would read 3 bytes
        /// past the image, so the sampler must fall back there.
        fn cornered(seed: u64) -> BriefPattern {
            let mut pairs = BriefPattern::rs_brief(seed).pairs().to_vec();
            pairs[0] = TestPair {
                s: TestPoint { x: 15.0, y: 15.0 },
                d: TestPoint { x: -15.0, y: -15.0 },
            };
            BriefPattern::new(pairs)
        }

        /// Checks every sampler at `(x, y)` against the clamped oracle:
        /// the dispatching entry, the scalar sampler (called directly,
        /// since AVX2 hosts never dispatch to it), and the gather kernel
        /// wherever this CPU has AVX2 and its reads stay in the image.
        fn check(
            img: &GrayImage,
            x: u32,
            y: u32,
            pattern: &BriefPattern,
            table: &PatternOffsets,
        ) -> Result<Descriptor, TestCaseError> {
            let oracle = compute_descriptor(img, x, y, pattern);
            let at = (img.width(), img.height(), x, y);
            let data = img.as_raw();
            let base = y as usize * img.width() as usize + x as usize;
            prop_assert_eq!(
                compute_descriptor_interior(img, x, y, table),
                oracle,
                "dispatch {:?}",
                at
            );
            prop_assert_eq!(
                sample_descriptor(data, base, table),
                oracle,
                "scalar {:?}",
                at
            );
            #[cfg(target_arch = "x86_64")]
            if crate::avx2_available() && base + table.reach + 3 < data.len() {
                // SAFETY: AVX2 was detected on this CPU.
                let avx2 = unsafe { x86::gather_descriptor(data, base, table) };
                prop_assert_eq!(avx2, oracle, "avx2 {:?}", at);
            }
            Ok(oracle)
        }

        /// The four corner centres the table's margin admits on a
        /// `w × h` image.
        fn extremes(w: u32, h: u32, m: u32) -> [(u32, u32); 4] {
            [
                (m, m),
                (w - 1 - m, m),
                (m, h - 1 - m),
                (w - 1 - m, h - 1 - m),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn samplers_match_oracle_at_every_label(
                narrow in 31u32..48, h in 31u32..48, seed in 0u64..u64::MAX,
                which in 0usize..2, px in 0u32..1000, py in 0u32..1000,
            ) {
                // A narrow image whose linear offsets interleave rows,
                // and VGA width; both with no slack rows or columns.
                let rs = RsBrief::new(SEEDS[which]);
                for w in [narrow, 640] {
                    let img = noise(w, h, seed);
                    let table = PatternOffsets::new(rs.pattern(), w);
                    let m = table.margin();
                    let centre = (m + px % (w - 2 * m), m + py % (h - 2 * m));
                    for (x, y) in extremes(w, h, m) {
                        check(&img, x, y, rs.pattern(), &table)?;
                    }
                    let (x, y) = centre;
                    let raw = check(&img, x, y, rs.pattern(), &table)?;
                    for label in 0..ORIENTATION_BINS {
                        prop_assert_eq!(
                            raw.steer(label),
                            rs.compute_by_reindexing(&img, x, y, label),
                            "label {} at ({}, {})", label, x, y
                        );
                    }
                }
            }

            #[test]
            fn samplers_fall_back_at_the_buffer_end(
                w in 31u32..48, h in 31u32..48, seed in 0u64..u64::MAX, which in 0usize..2,
            ) {
                let pattern = cornered(SEEDS[which]);
                for w in [w, 640] {
                    let img = noise(w, h, seed);
                    let table = PatternOffsets::new(&pattern, w);
                    // The bottom-right centre's gather would end 3 bytes
                    // past the buffer.
                    prop_assert_eq!(table.reach, 15 * w as usize + 15);
                    prop_assert_eq!(table.margin(), 15);
                    for (x, y) in extremes(w, h, table.margin()) {
                        check(&img, x, y, &pattern, &table)?;
                    }
                }
            }

            #[test]
            fn ring_slots_15_and_46_match_the_full_frame(
                w in 31u32..90, seed in 0u64..u64::MAX, which in 0usize..2, px in 0u32..1000,
            ) {
                // Virtual rows 15/47 sit at ring slot 15 and rows 46/78
                // at slot 46 of a mirrored 32-slot ring.
                let rs = RsBrief::new(SEEDS[which]);
                let table = PatternOffsets::new(rs.pattern(), w);
                let full = noise(w, 94, seed);
                for y in [15u32, 46, 47, 78] {
                    let mut ring = noise(w, 64, 0xfeed);
                    for v in y - 15..=y + 15 {
                        for x in 0..w {
                            ring.set(x, v % 32, full.get(x, v));
                            ring.set(x, v % 32 + 32, full.get(x, v));
                        }
                    }
                    let m = table.margin();
                    for x in [m, m + px % (w - 2 * m), w - 1 - m] {
                        prop_assert_eq!(
                            compute_descriptor_ring(&ring, x, y, 32, &table),
                            compute_descriptor(&full, x, y, rs.pattern()),
                            "{}-wide ring at ({}, {})", w, x, y
                        );
                    }
                }
            }
        }
    }
}
