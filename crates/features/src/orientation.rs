//! Feature orientation by the intensity-centroid method.
//!
//! The paper's Orientation Computing module (§3.1, Eq. 3) finds the mass
//! centre `(u, v)` of the circular patch around a feature and defines the
//! orientation as the vector from the patch centre to the mass centre.
//! Because the RS-BRIEF pattern is 32-fold symmetric, the module
//! discretizes the angle into an integral label 0..31 (11.25° steps),
//! determined "from v/u and the signs of u and v" via a lookup table —
//! [`OrientationLut`] reproduces that hardware structure.
//!
//! # Moments kernels
//!
//! [`patch_moments`] has one production kernel per platform and keeps
//! the clamped per-pixel walk as its oracle:
//!
//! * **AVX2** (x86-64 hosts that report it): the radius-15 circle is the
//!   centre row plus 15 `(+dy, −dy)` row pairs, one 32-byte load per row
//!   starting at column `x − 15`, each ANDed with the row's circle mask.
//!   `psadbw` row sums give `m00` and, as a running sum over `dy`,
//!   `m01 = Σ dy·(lower − upper)`; `pmaddubsw` against an `i8` row of dx
//!   weights (`−15..=15`) gives `m10`. Every step is exact: one `i16`
//!   lane holds an adjacent pixel pair, at most 255·(15 + 14) = 7,395,
//!   and the two rows of a pair add to at most 14,790, so no lane
//!   saturates; `m00 ≤ 709·255` and `|m10| ≤ 1,154,640` fit `i32`.
//! * **Scalar** everywhere else: the same circle summed row slice by
//!   row slice.
//!
//! Both kernels need the full circle inside the image (`15 ≤ x`,
//! `x + 15 < width`, and the same for `y`); the AVX2 loads also read the
//! column `x + 16` (masked out), so it runs only where `x + 16 < width`
//! and the scalar kernel takes the last interior column. Patches that
//! cross a border take the clamped walk. All three return the same
//! integers.

use eslam_image::GrayImage;

/// Radius of the circular orientation patch (§2.2: radius-15 patch).
pub const ORIENTATION_RADIUS: i64 = 15;

/// Number of discrete orientation labels (32 × 11.25° = 360°).
pub const ORIENTATION_BINS: u8 = 32;

/// Raw intensity-centroid moments of a circular patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Moments {
    /// `Σ I(x,y)·x` over the circular patch (numerator of `u`).
    pub m10: i64,
    /// `Σ I(x,y)·y` over the circular patch (numerator of `v`).
    pub m01: i64,
    /// `Σ I(x,y)` (the shared denominator of Eq. 3; positive for any
    /// non-black patch).
    pub m00: i64,
}

impl Moments {
    /// Continuous orientation angle `atan2(v, u)` in `(-π, π]`.
    pub fn angle(&self) -> f64 {
        (self.m01 as f64).atan2(self.m10 as f64)
    }
}

/// Per-row half-width of the radius-15 circular patch:
/// `CIRCLE_EXTENT[dy + 15] = ⌊√(15² − dy²)⌋`.
const CIRCLE_EXTENT: [i64; 31] = circle_extents();

const fn circle_extents() -> [i64; 31] {
    let r = ORIENTATION_RADIUS;
    let mut ext = [0i64; 31];
    let mut dy = -r;
    while dy <= r {
        let rem = r * r - dy * dy;
        let mut e = 0i64;
        while (e + 1) * (e + 1) <= rem {
            e += 1;
        }
        ext[(dy + r) as usize] = e;
        dy += 1;
    }
    ext
}

/// Computes the patch moments at `(x, y)`. Pixels outside the image are
/// clamped (border replication), matching the hardware line buffers.
///
/// Interior patches (≥ 15 pixels from every border — always true for
/// keypoints behind the extractor's 16-pixel margin) take the AVX2 or
/// scalar row kernel (see the module docs); the sums are exact
/// integers, so every path returns the same moments.
pub fn patch_moments(img: &GrayImage, x: u32, y: u32) -> Moments {
    let r = ORIENTATION_RADIUS;
    let (cx, cy) = (x as i64, y as i64);
    let (w, h) = (img.width() as i64, img.height() as i64);
    if !(cx >= r && cy >= r && cx + r < w && cy + r < h) {
        return moments_clamped(img, x, y);
    }
    #[cfg(target_arch = "x86_64")]
    if cx + r + 1 < w && crate::avx2_available() {
        // SAFETY: AVX2 was detected on this CPU.
        return unsafe { x86::interior_moments(img, x, y) };
    }
    moments_rows(img, x, y)
}

/// The oracle: the clamped per-pixel walk over the circular patch.
fn moments_clamped(img: &GrayImage, x: u32, y: u32) -> Moments {
    let r = ORIENTATION_RADIUS;
    let (cx, cy) = (x as i64, y as i64);
    let mut m = Moments {
        m10: 0,
        m01: 0,
        m00: 0,
    };
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy > r * r {
                continue;
            }
            let i = img.get_clamped(cx + dx, cy + dy) as i64;
            m.m10 += i * dx;
            m.m01 += i * dy;
            m.m00 += i;
        }
    }
    m
}

/// The scalar interior kernel: the circle summed one row slice at a
/// time. The caller guarantees a 15-pixel margin on every side.
fn moments_rows(img: &GrayImage, x: u32, y: u32) -> Moments {
    let r = ORIENTATION_RADIUS;
    let (cx, cy) = (x as i64, y as i64);
    let w = img.width() as usize;
    let data = img.as_raw();
    let mut m = Moments {
        m10: 0,
        m01: 0,
        m00: 0,
    };
    for dy in -r..=r {
        let ext = CIRCLE_EXTENT[(dy + r) as usize];
        let start = ((cy + dy) as usize) * w + (cx - ext) as usize;
        let row = &data[start..start + (2 * ext + 1) as usize];
        let mut row_sum = 0i64;
        let mut row_weighted = 0i64;
        for (k, &v) in row.iter().enumerate() {
            let i = v as i64;
            row_sum += i;
            row_weighted += i * (k as i64 - ext);
        }
        m.m10 += row_weighted;
        m.m01 += dy * row_sum;
        m.m00 += row_sum;
    }
    m
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Moments, CIRCLE_EXTENT};
    use eslam_image::GrayImage;
    use std::arch::x86_64::*;

    /// Circle masks of a 32-byte row load starting at column `x − 15`,
    /// indexed by `|dy|`: byte `k` (`dx = k − 15`) is kept iff
    /// `|dx| ≤ CIRCLE_EXTENT[dy]`. Byte 31 (`dx = 16`) is never kept.
    static ROW_MASKS: [[u8; 32]; 16] = {
        let mut masks = [[0u8; 32]; 16];
        let mut dy = 0;
        while dy < 16 {
            let ext = CIRCLE_EXTENT[dy + 15] as usize;
            let mut k = 15 - ext;
            while k <= 15 + ext {
                masks[dy][k] = 0xff;
                k += 1;
            }
            dy += 1;
        }
        masks
    };

    /// The `dx` weight of each byte of the same load (`k − 15`; the
    /// always-masked byte 31 weighs 0).
    static DX_WEIGHTS: [i8; 32] = {
        let mut weights = [0i8; 32];
        let mut k = 0;
        while k < 31 {
            weights[k] = k as i8 - 15;
            k += 1;
        }
        weights
    };

    /// One 32-byte load ANDed with a circle mask.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn masked(row: &[u8; 32], mask: &[u8; 32]) -> __m256i {
        _mm256_and_si256(
            _mm256_loadu_si256(row.as_ptr() as *const __m256i),
            _mm256_loadu_si256(mask.as_ptr() as *const __m256i),
        )
    }

    /// AVX2 moments of the radius-15 circle around `(x, y)`, equal to the
    /// scalar kernels (see the module docs for the exactness bounds).
    ///
    /// # Panics
    /// Panics unless `15 ≤ x`, `x + 16 < width`, `15 ≤ y` and
    /// `y + 15 < height`, the span the row loads read.
    #[target_feature(enable = "avx2")]
    pub(super) fn interior_moments(img: &GrayImage, x: u32, y: u32) -> Moments {
        let (w, h) = (img.width() as usize, img.height() as usize);
        let (cx, cy) = (x as usize, y as usize);
        assert!(
            cx >= 15 && cx + 16 < w && cy >= 15 && cy + 15 < h,
            "({x},{y}) leaves no room for the 32-byte row loads"
        );
        let data = img.as_raw();
        let row = |dy: isize| -> &[u8; 32] {
            let start = (cy as isize + dy) as usize * w + cx - 15;
            data[start..start + 32].try_into().expect("a 32-byte slice")
        };
        let zero = _mm256_setzero_si256();
        let ones = _mm256_set1_epi16(1);
        // SAFETY: AVX2 is enabled on this function, and every load reads
        // one of the 32-byte arrays `row`, `ROW_MASKS` and `DX_WEIGHTS`.
        let (weights, centre) = unsafe {
            (
                _mm256_loadu_si256(DX_WEIGHTS.as_ptr() as *const __m256i),
                masked(row(0), &ROW_MASKS[0]),
            )
        };
        let mut m00 = _mm256_sad_epu8(centre, zero);
        let mut m10 = _mm256_madd_epi16(_mm256_maddubs_epi16(centre, weights), ones);
        // `run` after row pair `dy` is Σ_{k ≥ dy} (lower_k − upper_k), so
        // summing it over dy = 15..=1 weighs each pair's difference by dy.
        let mut run = zero;
        let mut m01 = zero;
        for dy in (1..=15).rev() {
            // SAFETY: as for the centre row.
            let (upper, lower) = unsafe {
                (
                    masked(row(-(dy as isize)), &ROW_MASKS[dy]),
                    masked(row(dy as isize), &ROW_MASKS[dy]),
                )
            };
            let (su, sl) = (_mm256_sad_epu8(upper, zero), _mm256_sad_epu8(lower, zero));
            m00 = _mm256_add_epi64(m00, _mm256_add_epi64(su, sl));
            run = _mm256_add_epi64(run, _mm256_sub_epi64(sl, su));
            m01 = _mm256_add_epi64(m01, run);
            let pair = _mm256_add_epi16(
                _mm256_maddubs_epi16(upper, weights),
                _mm256_maddubs_epi16(lower, weights),
            );
            m10 = _mm256_add_epi32(m10, _mm256_madd_epi16(pair, ones));
        }
        let (mut l00, mut l01, mut l10) = ([0i64; 4], [0i64; 4], [0i32; 8]);
        // SAFETY: each destination array holds exactly 32 bytes.
        unsafe {
            _mm256_storeu_si256(l00.as_mut_ptr() as *mut __m256i, m00);
            _mm256_storeu_si256(l01.as_mut_ptr() as *mut __m256i, m01);
            _mm256_storeu_si256(l10.as_mut_ptr() as *mut __m256i, m10);
        }
        Moments {
            m10: l10.iter().map(|&v| v as i64).sum(),
            m01: l01.iter().sum(),
            m00: l00.iter().sum(),
        }
    }
}

/// Band-aware moments entry of the streaming front-end: reads the
/// radius-15 patch around **virtual** image row `y` from a *mirrored*
/// row ring instead of a full smoothed frame.
///
/// The ring holds `ring_rows` logical slots, physically doubled: a
/// virtual row `v` lives at slot `v % ring_rows` *and* at
/// `v % ring_rows + ring_rows`, so any window of up to `ring_rows − 1`
/// consecutive virtual rows is one contiguous block of physical rows
/// starting at `(first_row % ring_rows)` — no per-row modulo inside the
/// pixel loops, and [`patch_moments`]' interior hot path runs unchanged
/// on the ring.
///
/// Caller contract: virtual rows `y ± 15` are the most recent rows
/// written to their slots, and `x` keeps a 15-pixel column margin (both
/// guaranteed behind the extractor's 16-pixel edge margin). Under that
/// contract the result is bit-identical to
/// `patch_moments(full_smoothed, x, y)`.
///
/// # Panics
/// Panics if the ring is not mirrored (`height != 2 * ring_rows`), if
/// `ring_rows` cannot hold the 31-row window, or if `(x, y)` violates
/// the interior margins.
pub fn patch_moments_ring(ring: &GrayImage, x: u32, y: u32, ring_rows: u32) -> Moments {
    let r = ORIENTATION_RADIUS as u32;
    assert_eq!(ring.height(), 2 * ring_rows, "ring must be mirrored");
    assert!(ring_rows > 2 * r, "ring too short for the patch window");
    assert!(y >= r, "virtual row {y} clips the top border");
    assert!(x >= r && x + r < ring.width(), "column {x} clips a border");
    let slot = (y - r) % ring_rows + r;
    patch_moments(ring, x, slot)
}

/// Continuous orientation angle at `(x, y)` in radians.
pub fn orientation_angle(img: &GrayImage, x: u32, y: u32) -> f64 {
    patch_moments(img, x, y).angle()
}

/// Discretizes a continuous angle into the 0..31 label (nearest 11.25°
/// step, wrapping).
pub fn angle_to_label(theta: f64) -> u8 {
    let tau = 2.0 * std::f64::consts::PI;
    let normalized = theta.rem_euclid(tau);
    ((normalized / tau * ORIENTATION_BINS as f64).round() as u32 % ORIENTATION_BINS as u32) as u8
}

/// The label's representative angle in radians (label × 11.25°).
pub fn label_to_angle(label: u8) -> f64 {
    2.0 * std::f64::consts::PI * (label as f64) / ORIENTATION_BINS as f64
}

/// Hardware-style orientation lookup: determines the 0..31 label from the
/// ratio `v/u` and the signs of `u` and `v`, avoiding any trigonometry in
/// the datapath (§3.1: "builds a lookup table to determine the orientation
/// from v/u and the signs of u and v").
///
/// The table stores `tan` of the 8 bin boundaries in the first quadrant;
/// sign bits select the quadrant. Output is bit-identical to
/// [`angle_to_label`]`(atan2(v, u))`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrientationLut {
    /// `tan` of the first-quadrant bin boundaries (5.625°, 16.875°, …,
    /// 84.375°), the comparison thresholds of the hardware unit.
    boundaries: Vec<f64>,
}

impl Default for OrientationLut {
    fn default() -> Self {
        OrientationLut::new()
    }
}

impl OrientationLut {
    /// Builds the boundary table.
    pub fn new() -> Self {
        // Bin k covers angles [k·11.25° − 5.625°, k·11.25° + 5.625°).
        // Within the first quadrant the boundaries are at 5.625° + k·11.25°
        // for k = 0..8 (the last, 95.625°, is handled by quadrant logic).
        let boundaries = (0..8)
            .map(|k| ((5.625 + 11.25 * k as f64).to_radians()).tan())
            .collect();
        OrientationLut { boundaries }
    }

    /// Looks up the orientation label for centroid numerators `(u, v)`
    /// (i.e. `m10`, `m01`). `(0, 0)` maps to label 0.
    pub fn label(&self, u: i64, v: i64) -> u8 {
        if u == 0 && v == 0 {
            return 0;
        }
        let au = u.unsigned_abs() as f64;
        let av = v.unsigned_abs() as f64;
        // First-quadrant sector from |v|/|u| against the tan boundaries:
        // sector s means angle ∈ [s·11.25°−5.625°, s·11.25°+5.625°).
        let mut sector = 8u8; // ≥ 84.375° ⇒ the vertical bin
        if au > 0.0 {
            let ratio = av / au;
            sector = self.boundaries.iter().take_while(|&&b| ratio >= b).count() as u8;
        } else {
            // u = 0 ⇒ 90°.
            sector = if av > 0.0 { 8 } else { sector };
        }
        // Map the first-quadrant sector into the full circle by sign.
        let label = match (u >= 0, v >= 0) {
            (true, true) => sector as i16,              // Q1: θ = sector
            (false, true) => 16 - sector as i16,        // Q2: θ = 180° − s
            (false, false) => 16 + sector as i16,       // Q3: θ = 180° + s
            (true, false) => (32 - sector as i16) % 32, // Q4: θ = −s
        };
        (label.rem_euclid(32)) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn flat_patch_has_zero_moments_about_centre() {
        let img = GrayImage::from_fn(64, 64, |_, _| 100);
        let m = patch_moments(&img, 32, 32);
        assert_eq!(m.m10, 0);
        assert_eq!(m.m01, 0);
        assert!(m.m00 > 0);
    }

    #[test]
    fn rightward_gradient_points_right() {
        let img = GrayImage::from_fn(64, 64, |x, _| (x * 4).min(255) as u8);
        let theta = orientation_angle(&img, 32, 32);
        assert!(theta.abs() < 0.05, "angle {theta}");
        assert_eq!(angle_to_label(theta), 0);
    }

    #[test]
    fn downward_gradient_points_down() {
        // Image y grows downward; mass below centre ⇒ v > 0 ⇒ θ ≈ +90°.
        let img = GrayImage::from_fn(64, 64, |_, y| (y * 4).min(255) as u8);
        let theta = orientation_angle(&img, 32, 32);
        assert!((theta - PI / 2.0).abs() < 0.05, "angle {theta}");
        assert_eq!(angle_to_label(theta), 8);
    }

    #[test]
    fn label_discretization_wraps() {
        assert_eq!(angle_to_label(0.0), 0);
        assert_eq!(angle_to_label(2.0 * PI), 0);
        assert_eq!(angle_to_label(-2.0 * PI), 0);
        assert_eq!(angle_to_label(PI), 16);
        assert_eq!(angle_to_label(-PI / 2.0), 24);
        // 11.25° = one step.
        assert_eq!(angle_to_label(11.25f64.to_radians()), 1);
        // Just under half a step rounds down.
        assert_eq!(angle_to_label(5.6f64.to_radians()), 0);
        // Just over half a step rounds up.
        assert_eq!(angle_to_label(5.7f64.to_radians()), 1);
    }

    #[test]
    fn label_round_trip() {
        for label in 0..32u8 {
            assert_eq!(angle_to_label(label_to_angle(label)), label);
        }
    }

    #[test]
    fn lut_matches_atan2_binning_exhaustively() {
        let lut = OrientationLut::new();
        // Sweep a dense grid of (u, v) numerators.
        for u in (-2000i64..=2000).step_by(37) {
            for v in (-2000i64..=2000).step_by(41) {
                if u == 0 && v == 0 {
                    continue;
                }
                let expect = angle_to_label((v as f64).atan2(u as f64));
                let got = lut.label(u, v);
                assert_eq!(got, expect, "u={u} v={v}");
            }
        }
    }

    #[test]
    fn lut_axes_and_diagonals() {
        let lut = OrientationLut::new();
        assert_eq!(lut.label(100, 0), 0); // 0°
        assert_eq!(lut.label(0, 100), 8); // 90°
        assert_eq!(lut.label(-100, 0), 16); // 180°
        assert_eq!(lut.label(0, -100), 24); // 270°
        assert_eq!(lut.label(100, 100), 4); // 45°
        assert_eq!(lut.label(-100, 100), 12); // 135°
        assert_eq!(lut.label(-100, -100), 20); // 225°
        assert_eq!(lut.label(100, -100), 28); // 315°
        assert_eq!(lut.label(0, 0), 0);
    }

    #[test]
    fn rotating_image_rotates_label() {
        // Rotate a directional pattern by 90° and check the label moves
        // by 8 steps.
        let img_right = GrayImage::from_fn(64, 64, |x, _| (x * 4).min(255) as u8);
        let img_down = GrayImage::from_fn(64, 64, |_, y| (y * 4).min(255) as u8);
        let m_right = patch_moments(&img_right, 32, 32);
        let m_down = patch_moments(&img_down, 32, 32);
        let lut = OrientationLut::new();
        let l_right = lut.label(m_right.m10, m_right.m01);
        let l_down = lut.label(m_down.m10, m_down.m01);
        assert_eq!((l_right + 8) % 32, l_down);
    }

    #[test]
    fn circle_extents_match_mask() {
        let r = ORIENTATION_RADIUS;
        for dy in -r..=r {
            let ext = CIRCLE_EXTENT[(dy + r) as usize];
            assert!(ext * ext + dy * dy <= r * r);
            assert!((ext + 1) * (ext + 1) + dy * dy > r * r);
        }
    }

    #[test]
    fn interior_fast_path_matches_clamped_path() {
        // A 64×64 texture: probe interior points (fast path) against a
        // shifted copy where the same patch is border-adjacent (clamped
        // path never clamps for these coordinates, so values must agree).
        let img = GrayImage::from_fn(64, 64, |x, y| {
            ((x as u64 * 2654435761 + y as u64 * 40503) >> 5) as u8
        });
        let clamped_reference = |x: u32, y: u32| {
            let r = ORIENTATION_RADIUS;
            let r2 = r * r;
            let mut m = Moments {
                m10: 0,
                m01: 0,
                m00: 0,
            };
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx * dx + dy * dy > r2 {
                        continue;
                    }
                    let i = img.get_clamped(x as i64 + dx, y as i64 + dy) as i64;
                    m.m10 += i * dx;
                    m.m01 += i * dy;
                    m.m00 += i;
                }
            }
            m
        };
        for y in 0..64 {
            for x in 0..64 {
                assert_eq!(
                    patch_moments(&img, x, y),
                    clamped_reference(x, y),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn moments_use_circular_mask() {
        // A bright pixel just outside the circle (at distance > 15) must
        // not affect the moments.
        let mut img = GrayImage::from_fn(64, 64, |_, _| 0);
        img.set(32 + 12, 32 + 12, 255); // radius ≈ 17 > 15
        let m = patch_moments(&img, 32, 32);
        assert_eq!(m.m10, 0);
        assert_eq!(m.m01, 0);
        assert_eq!(m.m00, 0);
    }

    mod kernel_props {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic per-pixel noise over the full `u8` range.
        fn noise(w: u32, h: u32, seed: u64) -> GrayImage {
            GrayImage::from_fn(w, h, |x, y| {
                let v = (u64::from(x) << 32 | u64::from(y)) ^ seed;
                (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8
            })
        }

        /// Checks every moments path at `(x, y)` against the clamped
        /// oracle: the dispatching entry, the scalar kernel (called
        /// directly, since AVX2 hosts never dispatch to it), and the
        /// AVX2 kernel wherever this CPU has it and its row loads fit.
        fn check(img: &GrayImage, x: u32, y: u32) -> Result<(), TestCaseError> {
            let oracle = moments_clamped(img, x, y);
            let at = (img.width(), img.height(), x, y);
            prop_assert_eq!(patch_moments(img, x, y), oracle, "dispatch {:?}", at);
            prop_assert_eq!(moments_rows(img, x, y), oracle, "scalar {:?}", at);
            #[cfg(target_arch = "x86_64")]
            if crate::avx2_available() && x + 16 < img.width() {
                // SAFETY: AVX2 was detected on this CPU.
                let avx2 = unsafe { x86::interior_moments(img, x, y) };
                prop_assert_eq!(avx2, oracle, "avx2 {:?}", at);
            }
            Ok(())
        }

        /// The interior centres nearest each border of a `w × h` image,
        /// plus the column where the AVX2 loads must hand over to the
        /// scalar kernel (`x = w − 16`, whose load would read column `w`).
        fn extremes(w: u32, h: u32) -> Vec<(u32, u32)> {
            let xs = [15, w.saturating_sub(17).max(15), w - 16];
            let ys = [15, h - 16];
            xs.iter()
                .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
                .collect()
        }

        #[test]
        fn kernels_are_exact_on_all_255_patches() {
            // Every i16 lane holds its largest possible sum; the centre
            // row's outermost pixel pairs reach 255·(15 + 14) = 7,395.
            let img = GrayImage::from_fn(48, 40, |_, _| 255);
            for y in 15..25 {
                for x in 15..32 {
                    check(&img, x, y).unwrap();
                }
            }
            assert_eq!(patch_moments(&img, 20, 20).m00, 709 * 255);
        }

        /// A mirrored 32-slot ring (64 physical rows of filler) holding
        /// the 31 rows of `full` around virtual row `y`, as the stream
        /// writes them.
        fn ring_around(full: &GrayImage, y: u32) -> GrayImage {
            let mut ring = noise(full.width(), 64, 0xfeed);
            for v in y - 15..=y + 15 {
                for x in 0..full.width() {
                    ring.set(x, v % 32, full.get(x, v));
                    ring.set(x, v % 32 + 32, full.get(x, v));
                }
            }
            ring
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn kernels_match_oracle_on_noise(
                w in 31u32..90, h in 31u32..60, seed in 0u64..u64::MAX,
                px in 0u32..1000, py in 0u32..1000,
            ) {
                // Images with no slack: the extremes put the patch on
                // the last row and column of the buffer.
                let img = noise(w, h, seed);
                check(&img, 15 + px % (w - 30), 15 + py % (h - 30))?;
                for (x, y) in extremes(w, h) {
                    check(&img, x, y)?;
                }
            }

            #[test]
            fn kernels_match_oracle_on_saturated_patches(
                w in 31u32..70, h in 31u32..50, seed in 0u64..u64::MAX, cell in 1u32..4,
            ) {
                let img = GrayImage::from_fn(w, h, |x, y| {
                    let v = (u64::from(x / cell) << 32 | u64::from(y / cell)) ^ seed;
                    if v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0 { 0 } else { 255 }
                });
                for (x, y) in extremes(w, h) {
                    check(&img, x, y)?;
                }
            }

            #[test]
            fn ring_slots_15_and_46_match_the_full_frame(
                w in 31u32..90, seed in 0u64..u64::MAX, px in 0u32..1000,
            ) {
                // Virtual rows 15/47 sit at ring slot 15 (window in
                // physical rows 0..=30) and rows 46/78 at slot 46
                // (physical rows 31..=61).
                let full = noise(w, 94, seed);
                for y in [15u32, 46, 47, 78] {
                    let ring = ring_around(&full, y);
                    for x in [15, 15 + px % (w - 30), w.saturating_sub(17).max(15), w - 16] {
                        prop_assert_eq!(
                            patch_moments_ring(&ring, x, y, 32),
                            moments_clamped(&full, x, y),
                            "{}-wide ring at ({}, {})", w, x, y
                        );
                    }
                }
            }
        }
    }
}
