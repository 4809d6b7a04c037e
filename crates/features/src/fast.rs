//! FAST (Features from Accelerated Segment Test) corner detection.
//!
//! The paper's FAST Detection module takes a 7×7 pixel patch and flags the
//! centre as a keypoint when ≥ 9 contiguous pixels on the 16-pixel
//! Bresenham circle of radius 3 are all brighter than centre + threshold
//! or all darker than centre − threshold (FAST-9/16, the variant ORB
//! uses).
//!
//! Two implementations coexist:
//!
//! * [`is_fast_corner`] — the per-pixel scalar reference (bit-exact
//!   contract for the hardware FAST unit and the oracle for the fast
//!   path);
//! * [`detect`] / [`detect_into`] — the production scanner: row-sliced
//!   addressing, the compass-point early reject, and a `u16` bright/dark
//!   bitmask classified through a precomputed 65536-entry
//!   [`arc length LUT`](arc_lut) instead of the 32-iteration run walk.
//!
//! `tests` and `crates/features/tests/fast_path_equivalence.rs` prove the
//! two agree bit-for-bit.

use eslam_image::GrayImage;
use std::sync::OnceLock;

/// The 16 offsets of the radius-3 Bresenham circle, clockwise from
/// 12 o'clock. Index order matters for the contiguity test.
pub const CIRCLE_OFFSETS: [(i32, i32); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// Minimum contiguous arc length for FAST-9.
pub const FAST_ARC: usize = 9;

/// Default detection threshold (intensity difference).
pub const DEFAULT_THRESHOLD: u8 = 20;

/// Classification of circle pixels relative to the centre.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    Brighter,
    Darker,
    Similar,
}

/// Tests whether the pixel at `(x, y)` is a FAST-9 corner.
///
/// Pixels closer than 3 to the border are never corners (the circle would
/// leave the image). This function is the bit-exact reference for the
/// hardware FAST unit.
pub fn is_fast_corner(img: &GrayImage, x: u32, y: u32, threshold: u8) -> bool {
    if x < 3 || y < 3 || x + 3 >= img.width() || y + 3 >= img.height() {
        return false;
    }
    let centre = img.get(x, y) as i32;
    let t = threshold as i32;

    // High-speed reject: any 9-pixel arc on the 16-pixel circle covers at
    // least 2 of the 4 compass points (they are spaced 4 apart), so fewer
    // than 2 extreme compass points rules a corner out.
    let p0 = img.get(x, y - 3) as i32;
    let p8 = img.get(x, y + 3) as i32;
    let p4 = img.get(x + 3, y) as i32;
    let p12 = img.get(x - 3, y) as i32;
    let bright_compass = [p0, p4, p8, p12]
        .iter()
        .filter(|&&p| p > centre + t)
        .count();
    let dark_compass = [p0, p4, p8, p12]
        .iter()
        .filter(|&&p| p < centre - t)
        .count();
    if bright_compass < 2 && dark_compass < 2 {
        return false;
    }

    let mut classes = [Tri::Similar; 16];
    for (class, &(dx, dy)) in classes.iter_mut().zip(&CIRCLE_OFFSETS) {
        let p = img.get((x as i32 + dx) as u32, (y as i32 + dy) as u32) as i32;
        *class = if p > centre + t {
            Tri::Brighter
        } else if p < centre - t {
            Tri::Darker
        } else {
            Tri::Similar
        };
    }

    has_arc(&classes, Tri::Brighter) || has_arc(&classes, Tri::Darker)
}

/// Checks for a circular run of ≥ [`FAST_ARC`] pixels of class `want`.
fn has_arc(classes: &[Tri], want: Tri) -> bool {
    let mut run = 0usize;
    // Walk the circle twice to capture wrap-around runs.
    for i in 0..(classes.len() * 2) {
        if classes[i % classes.len()] == want {
            run += 1;
            if run >= FAST_ARC {
                return true;
            }
        } else {
            run = 0;
        }
    }
    false
}

/// The longest circular run of set bits in a 16-bit circle mask,
/// computed the slow way (used to build and cross-check the LUT).
fn circular_run_length(mask: u16) -> u8 {
    if mask == u16::MAX {
        return 16;
    }
    let mut best = 0u8;
    let mut run = 0u8;
    // Two laps capture wrap-around runs; `mask != 0xffff` bounds them.
    for i in 0..32 {
        if mask >> (i % 16) & 1 == 1 {
            run += 1;
            best = best.max(run.min(16));
        } else {
            run = 0;
        }
    }
    best
}

/// The 65536-entry arc-length LUT: `arc_lut()[mask]` is the longest
/// circular run of set bits in `mask`, so the FAST-9 segment test is a
/// single table lookup (`arc_lut()[mask] >= FAST_ARC as u8`).
///
/// Built once per process (~2 M cheap operations) and shared.
pub fn arc_lut() -> &'static [u8; 65536] {
    static LUT: OnceLock<Box<[u8; 65536]>> = OnceLock::new();
    LUT.get_or_init(|| {
        let mut lut = vec![0u8; 65536].into_boxed_slice();
        for (mask, slot) in lut.iter_mut().enumerate() {
            *slot = circular_run_length(mask as u16);
        }
        lut.try_into().expect("65536 entries")
    })
}

/// A raw FAST detection prior to scoring/NMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastDetection {
    /// Column of the detection.
    pub x: u32,
    /// Row of the detection.
    pub y: u32,
}

/// Detects all FAST-9 corners in the image at the given threshold.
///
/// Returns detections in raster order, matching the order the streaming
/// hardware emits them.
///
/// # Examples
///
/// ```
/// use eslam_image::GrayImage;
/// use eslam_features::fast::{detect, DEFAULT_THRESHOLD};
/// // A bright square on dark background has corners at its corners.
/// let img = GrayImage::from_fn(32, 32, |x, y| {
///     if (8..24).contains(&x) && (8..24).contains(&y) { 200 } else { 20 }
/// });
/// let corners = detect(&img, DEFAULT_THRESHOLD);
/// assert!(!corners.is_empty());
/// ```
pub fn detect(img: &GrayImage, threshold: u8) -> Vec<FastDetection> {
    let mut out = Vec::new();
    detect_into(img, threshold, &mut out);
    out
}

/// Scalar reference detector: calls [`is_fast_corner`] on every pixel.
/// Kept as the bit-exact oracle for [`detect`]; prefer [`detect`] in
/// production code.
pub fn detect_reference(img: &GrayImage, threshold: u8) -> Vec<FastDetection> {
    let mut out = Vec::new();
    for y in 3..img.height().saturating_sub(3) {
        for x in 3..img.width().saturating_sub(3) {
            if is_fast_corner(img, x, y, threshold) {
                out.push(FastDetection { x, y });
            }
        }
    }
    out
}

/// The seven row slices the radius-3 circle around row `y` touches.
struct CircleRows<'a> {
    rm3: &'a [u8],
    rm2: &'a [u8],
    rm1: &'a [u8],
    r0: &'a [u8],
    rp1: &'a [u8],
    rp2: &'a [u8],
    rp3: &'a [u8],
}

impl<'a> CircleRows<'a> {
    fn new(data: &'a [u8], w: usize, y: usize) -> Self {
        CircleRows {
            rm3: &data[(y - 3) * w..(y - 3) * w + w],
            rm2: &data[(y - 2) * w..(y - 2) * w + w],
            rm1: &data[(y - 1) * w..(y - 1) * w + w],
            r0: &data[y * w..y * w + w],
            rp1: &data[(y + 1) * w..(y + 1) * w + w],
            rp2: &data[(y + 2) * w..(y + 2) * w + w],
            rp3: &data[(y + 3) * w..(y + 3) * w + w],
        }
    }
}

/// The full per-pixel FAST-9 decision (compass reject + bitmask/LUT
/// segment test) at interior column `x`. The single source of truth for
/// the scalar scan and the SIMD prefilter's confirm step.
#[inline(always)]
fn corner_at(r: &CircleRows<'_>, x: usize, t: i32, lut: &[u8; 65536]) -> bool {
    let c = r.r0[x] as i32;
    let hi = c + t;
    let lo = c - t;

    // Compass-point early reject (§fast.rs reference): any 9-arc covers
    // ≥ 2 of the 4 compass points.
    let p0 = r.rm3[x] as i32;
    let p4 = r.r0[x + 3] as i32;
    let p8 = r.rp3[x] as i32;
    let p12 = r.r0[x - 3] as i32;
    let bright_compass = (p0 > hi) as u32 + (p4 > hi) as u32 + (p8 > hi) as u32 + (p12 > hi) as u32;
    let dark_compass = (p0 < lo) as u32 + (p4 < lo) as u32 + (p8 < lo) as u32 + (p12 < lo) as u32;
    if bright_compass < 2 && dark_compass < 2 {
        return false;
    }

    // Classify the 16 circle pixels into bright/dark bitmasks (bit i
    // corresponds to CIRCLE_OFFSETS[i]) — branchless.
    let circle = [
        p0,                  //  0: ( 0, -3)
        r.rm3[x + 1] as i32, //  1: ( 1, -3)
        r.rm2[x + 2] as i32, //  2: ( 2, -2)
        r.rm1[x + 3] as i32, //  3: ( 3, -1)
        p4,                  //  4: ( 3,  0)
        r.rp1[x + 3] as i32, //  5: ( 3,  1)
        r.rp2[x + 2] as i32, //  6: ( 2,  2)
        r.rp3[x + 1] as i32, //  7: ( 1,  3)
        p8,                  //  8: ( 0,  3)
        r.rp3[x - 1] as i32, //  9: (-1,  3)
        r.rp2[x - 2] as i32, // 10: (-2,  2)
        r.rp1[x - 3] as i32, // 11: (-3,  1)
        p12,                 // 12: (-3,  0)
        r.rm1[x - 3] as i32, // 13: (-3, -1)
        r.rm2[x - 2] as i32, // 14: (-2, -2)
        r.rm3[x - 1] as i32, // 15: (-1, -3)
    ];
    let mut bright = 0u16;
    let mut dark = 0u16;
    for (i, &p) in circle.iter().enumerate() {
        bright |= ((p > hi) as u16) << i;
        dark |= ((p < lo) as u16) << i;
    }

    lut[bright as usize] >= FAST_ARC as u8 || lut[dark as usize] >= FAST_ARC as u8
}

/// Scalar scan of interior columns `x0..x1` of row `y`.
fn scan_row_scalar(
    r: &CircleRows<'_>,
    y: u32,
    x0: usize,
    x1: usize,
    t: i32,
    lut: &[u8; 65536],
    out: &mut Vec<FastDetection>,
) {
    for x in x0..x1 {
        if corner_at(r, x, t, lut) {
            out.push(FastDetection { x: x as u32, y });
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{CircleRows, FastDetection};
    use std::arch::x86_64::*;

    #[inline(always)]
    unsafe fn loadu(p: *const u8) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }

    /// AVX2 row scan, 32 centre pixels per step, in two vector stages
    /// that mirror the scalar decision exactly:
    ///
    /// 1. **Compass-point early reject** — counts of the four compass
    ///    points brighter than `c + t` / darker than `c − t`. If no lane
    ///    reaches 2 the whole block is rejected, like the scalar
    ///    `continue`.
    /// 2. **Full circle classification** — for blocks with candidates,
    ///    the 16 circle comparisons run vectorially and each pixel's
    ///    bright/dark bitmask is accumulated in-register (bit *i* of
    ///    lane *j* = circle pixel *i* of centre *j*); only the final
    ///    arc-LUT lookup is scalar, per candidate.
    ///
    /// Bit-identity with the scalar path:
    ///
    /// * `hi = adds_epu8(c, t)` saturates at 255; the scalar test
    ///   `p > c + t` is false for every `u8` p whenever `c + t ≥ 255`,
    ///   matching the saturated comparison exactly.
    /// * `lo = subs_epu8(c, t)` saturates at 0; `p < c − t` is false for
    ///   every `u8` p whenever `c − t ≤ 0`, and `subs_epu8(0, p) = 0`
    ///   never flags.
    /// * `min_epu8(subs_epu8(a, b), 1)` is `(a > b) as u8`, so summing
    ///   the four compass points counts exactly like the scalar code;
    ///   `cmpgt_epi8(count, 1)` is `count ≥ 2` (counts are 0..=4).
    /// * Stage 2 classifies with the same `subs_epu8` comparisons, so
    ///   the assembled 16-bit masks equal the scalar `bright`/`dark`
    ///   masks and the LUT decision is the scalar decision.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_row(
        r: &CircleRows<'_>,
        w: usize,
        y: u32,
        t: u8,
        lut: &[u8; 65536],
        out: &mut Vec<FastDetection>,
    ) {
        use super::{CIRCLE_OFFSETS, FAST_ARC};
        let tv = _mm256_set1_epi8(t as i8);
        let one = _mm256_set1_epi8(1);
        let ones = _mm256_set1_epi8(-1);
        let zero = _mm256_setzero_si256();
        // Row base pointer for each circle offset's dy, in offset order.
        let row_of = |dy: i32| -> *const u8 {
            match dy {
                -3 => r.rm3.as_ptr(),
                -2 => r.rm2.as_ptr(),
                -1 => r.rm1.as_ptr(),
                0 => r.r0.as_ptr(),
                1 => r.rp1.as_ptr(),
                2 => r.rp2.as_ptr(),
                _ => r.rp3.as_ptr(),
            }
        };
        let mut x = 3usize;
        // Widest load reaches r0[x + 3 + 31]; stop while it stays in-row.
        while x + 35 <= w {
            let c = loadu(r.r0.as_ptr().add(x));
            let hi = _mm256_adds_epu8(c, tv);
            let lo = _mm256_subs_epu8(c, tv);

            // Stage 1: compass counts (circle pixels 0, 4, 8, 12).
            let mut bright_n = zero;
            let mut dark_n = zero;
            for p in [
                loadu(r.rm3.as_ptr().add(x)),
                loadu(r.r0.as_ptr().add(x + 3)),
                loadu(r.rp3.as_ptr().add(x)),
                loadu(r.r0.as_ptr().add(x - 3)),
            ] {
                bright_n = _mm256_add_epi8(bright_n, _mm256_min_epu8(_mm256_subs_epu8(p, hi), one));
                dark_n = _mm256_add_epi8(dark_n, _mm256_min_epu8(_mm256_subs_epu8(lo, p), one));
            }
            let cand = _mm256_or_si256(
                _mm256_cmpgt_epi8(bright_n, one),
                _mm256_cmpgt_epi8(dark_n, one),
            );
            let mut mask = _mm256_movemask_epi8(cand) as u32;
            if mask == 0 {
                x += 32;
                continue;
            }

            // Stage 2: full 16-pixel classification. Accumulate bit i of
            // each pixel's bright/dark mask into lane bytes (low byte =
            // bits 0..7, high byte = bits 8..15).
            let mut b_lo = zero;
            let mut b_hi = zero;
            let mut d_lo = zero;
            let mut d_hi = zero;
            for (i, &(dx, dy)) in CIRCLE_OFFSETS.iter().enumerate() {
                let p = loadu(row_of(dy).add((x as i32 + dx) as usize));
                // 0/FF masks for p > hi and p < lo.
                let b = _mm256_xor_si256(_mm256_cmpeq_epi8(_mm256_subs_epu8(p, hi), zero), ones);
                let d = _mm256_xor_si256(_mm256_cmpeq_epi8(_mm256_subs_epu8(lo, p), zero), ones);
                let bit = _mm256_set1_epi8(1i8 << (i & 7));
                if i < 8 {
                    b_lo = _mm256_or_si256(b_lo, _mm256_and_si256(b, bit));
                    d_lo = _mm256_or_si256(d_lo, _mm256_and_si256(d, bit));
                } else {
                    b_hi = _mm256_or_si256(b_hi, _mm256_and_si256(b, bit));
                    d_hi = _mm256_or_si256(d_hi, _mm256_and_si256(d, bit));
                }
            }
            let mut bytes = [0u8; 128];
            _mm256_storeu_si256(bytes.as_mut_ptr() as *mut __m256i, b_lo);
            _mm256_storeu_si256(bytes.as_mut_ptr().add(32) as *mut __m256i, b_hi);
            _mm256_storeu_si256(bytes.as_mut_ptr().add(64) as *mut __m256i, d_lo);
            _mm256_storeu_si256(bytes.as_mut_ptr().add(96) as *mut __m256i, d_hi);

            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let bright = bytes[j] as usize | (bytes[32 + j] as usize) << 8;
                let dark = bytes[64 + j] as usize | (bytes[96 + j] as usize) << 8;
                if lut[bright] >= FAST_ARC as u8 || lut[dark] >= FAST_ARC as u8 {
                    out.push(FastDetection {
                        x: (x + j) as u32,
                        y,
                    });
                }
            }
            x += 32;
        }
        super::scan_row_scalar(r, y, x, w - 3, t as i32, lut, out);
    }
}

/// Detects all FAST-9 corners into a caller-owned buffer (cleared
/// first), performing no other allocation. Output is bit-identical to
/// [`detect_reference`]: raster order, same corner set.
pub fn detect_into(img: &GrayImage, threshold: u8, out: &mut Vec<FastDetection>) {
    out.clear();
    detect_band_into(img, threshold, 0..img.height(), out);
}

/// Band-aware FAST scan: **appends** (does not clear) the corners of
/// rows `rows ∩ [3, height − 3)` in raster order — the row-band entry
/// point the streaming front-end calls once per scanned row. The
/// detection set over any row range is bit-identical to the same rows of
/// [`detect_reference`].
///
/// Uses an AVX2 compass-point prefilter (32 centre pixels per step) with
/// exact scalar confirmation where available, falling back to the scalar
/// scan otherwise; both paths make identical decisions.
pub fn detect_band_into(
    img: &GrayImage,
    threshold: u8,
    rows: std::ops::Range<u32>,
    out: &mut Vec<FastDetection>,
) {
    let w = img.width() as usize;
    let h = img.height() as usize;
    if w < 7 || h < 7 {
        return;
    }
    let data = img.as_raw();
    let lut = arc_lut();
    let y0 = rows.start.max(3) as usize;
    let y1 = (rows.end as usize).min(h - 3);

    #[cfg(target_arch = "x86_64")]
    let use_avx2 = crate::avx2_available();

    for y in y0..y1 {
        let r = CircleRows::new(data, w, y);
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: gated on runtime AVX2 detection; loads stay within
            // the row slices by the loop bound.
            unsafe { x86::scan_row(&r, w, y as u32, threshold, lut, out) };
            continue;
        }
        scan_row_scalar(&r, y as u32, 3, w - 3, threshold as i32, lut, out);
    }
}

/// Two-tier adaptive detection (extension, mirroring ORB-SLAM's
/// `iniThFAST`/`minThFAST` scheme): detect at `threshold`; if fewer than
/// `min_detections` corners fire (weakly textured input), retry once at
/// `fallback_threshold`.
///
/// Returns the detections together with the threshold that produced
/// them.
///
/// # Panics
/// Panics if `fallback_threshold > threshold` (the fallback must be more
/// permissive).
pub fn detect_adaptive(
    img: &GrayImage,
    threshold: u8,
    fallback_threshold: u8,
    min_detections: usize,
) -> (Vec<FastDetection>, u8) {
    assert!(
        fallback_threshold <= threshold,
        "fallback threshold must not exceed the primary threshold"
    );
    let primary = detect(img, threshold);
    if primary.len() >= min_detections || fallback_threshold == threshold {
        (primary, threshold)
    } else {
        (detect(img, fallback_threshold), fallback_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bright_square(size: u32, lo: u8, hi: u8) -> GrayImage {
        GrayImage::from_fn(size, size, move |x, y| {
            let q = size / 4;
            if (q..3 * q).contains(&x) && (q..3 * q).contains(&y) {
                hi
            } else {
                lo
            }
        })
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::from_fn(32, 32, |_, _| 128);
        assert!(detect(&img, 20).is_empty());
    }

    #[test]
    fn gradient_has_no_corners() {
        let img = GrayImage::from_fn(64, 64, |x, _| (x * 4).min(255) as u8);
        assert!(detect(&img, 20).is_empty());
    }

    #[test]
    fn square_corners_detected() {
        let img = bright_square(40, 20, 220);
        let corners = detect(&img, 30);
        assert!(!corners.is_empty());
        // Detections cluster near the four square corners (10,10), (29,10),
        // (10,29), (29,29); none in the flat interior.
        for c in &corners {
            let near_corner = [(10i32, 10i32), (29, 10), (10, 29), (29, 29)]
                .iter()
                .any(|&(cx, cy)| (c.x as i32 - cx).abs() <= 3 && (c.y as i32 - cy).abs() <= 3);
            assert!(near_corner, "unexpected corner at ({}, {})", c.x, c.y);
        }
    }

    #[test]
    fn dark_corner_on_bright_background_detected() {
        let img = bright_square(40, 220, 20); // inverted contrast
        let corners = detect(&img, 30);
        assert!(!corners.is_empty());
    }

    #[test]
    fn threshold_monotonicity() {
        let img = bright_square(40, 60, 180);
        let low = detect(&img, 10).len();
        let mid = detect(&img, 40).len();
        let high = detect(&img, 120).len();
        assert!(low >= mid, "low {low} vs mid {mid}");
        assert!(mid >= high, "mid {mid} vs high {high}");
        // The contrast is exactly 120 and the test is strict (p > c + t),
        // so threshold 120 can never fire.
        assert_eq!(high, 0);
    }

    #[test]
    fn border_pixels_never_fire() {
        let img = bright_square(16, 0, 255);
        for c in detect(&img, 10) {
            assert!(c.x >= 3 && c.y >= 3);
            assert!(c.x + 3 < 16 && c.y + 3 < 16);
        }
        // Direct probe of the border guard.
        assert!(!is_fast_corner(&img, 0, 0, 10));
        assert!(!is_fast_corner(&img, 2, 8, 10));
    }

    #[test]
    fn isolated_bright_dot_is_a_corner() {
        // A single bright pixel: the full circle is darker → arc of 16.
        let mut img = GrayImage::from_fn(16, 16, |_, _| 50);
        img.set(8, 8, 255);
        assert!(is_fast_corner(&img, 8, 8, 20));
    }

    #[test]
    fn wrap_around_arc_detected() {
        // Construct a circle whose bright arc crosses index 0: indices
        // 12..16 and 0..5 bright (9 contiguous with wrap), rest dark.
        let mut img = GrayImage::from_fn(9, 9, |_, _| 100);
        let bright: Vec<usize> = (12..16).chain(0..5).collect();
        for (i, &(dx, dy)) in CIRCLE_OFFSETS.iter().enumerate() {
            let v = if bright.contains(&i) { 200 } else { 100 };
            img.set((4 + dx) as u32, (4 + dy) as u32, v);
        }
        assert!(is_fast_corner(&img, 4, 4, 20));
    }

    #[test]
    fn eight_pixel_arc_is_not_enough() {
        let mut img = GrayImage::from_fn(9, 9, |_, _| 100);
        for (i, &(dx, dy)) in CIRCLE_OFFSETS.iter().enumerate() {
            let v = if i < 8 { 200 } else { 100 };
            img.set((4 + dx) as u32, (4 + dy) as u32, v);
        }
        assert!(!is_fast_corner(&img, 4, 4, 20));
    }

    #[test]
    fn nine_pixel_arc_fires() {
        let mut img = GrayImage::from_fn(9, 9, |_, _| 100);
        for (i, &(dx, dy)) in CIRCLE_OFFSETS.iter().enumerate() {
            let v = if i < 9 { 200 } else { 100 };
            img.set((4 + dx) as u32, (4 + dy) as u32, v);
        }
        assert!(is_fast_corner(&img, 4, 4, 20));
    }

    #[test]
    fn detections_in_raster_order() {
        let img = bright_square(40, 20, 220);
        let corners = detect(&img, 30);
        for pair in corners.windows(2) {
            let a = (pair[0].y, pair[0].x);
            let b = (pair[1].y, pair[1].x);
            assert!(a < b, "not raster ordered: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn adaptive_keeps_primary_when_plentiful() {
        let img = bright_square(40, 20, 220);
        let (corners, used) = detect_adaptive(&img, 30, 7, 1);
        assert_eq!(used, 30);
        assert_eq!(corners, detect(&img, 30));
    }

    #[test]
    fn adaptive_falls_back_on_weak_texture() {
        // Low-contrast square: threshold 60 finds nothing, 10 does.
        let img = bright_square(40, 100, 130);
        assert!(detect(&img, 60).is_empty());
        let (corners, used) = detect_adaptive(&img, 60, 10, 1);
        assert_eq!(used, 10);
        assert!(!corners.is_empty());
    }

    #[test]
    fn adaptive_reports_primary_when_fallback_also_needed_but_equal() {
        let img = GrayImage::from_fn(16, 16, |_, _| 128);
        let (corners, used) = detect_adaptive(&img, 20, 20, 5);
        assert!(corners.is_empty());
        assert_eq!(used, 20);
    }

    #[test]
    #[should_panic(expected = "fallback")]
    fn adaptive_rejects_inverted_thresholds() {
        let img = GrayImage::new(8, 8);
        detect_adaptive(&img, 10, 20, 1);
    }

    #[test]
    fn arc_lut_matches_has_arc_exhaustively() {
        // For every 16-bit mask, the LUT's ≥9 decision must equal the
        // reference run-walk over the equivalent classification array.
        let lut = arc_lut();
        for mask in 0..=u16::MAX {
            let classes: Vec<Tri> = (0..16)
                .map(|i| {
                    if mask >> i & 1 == 1 {
                        Tri::Brighter
                    } else {
                        Tri::Similar
                    }
                })
                .collect();
            let expect = has_arc(&classes, Tri::Brighter);
            assert_eq!(
                lut[mask as usize] >= FAST_ARC as u8,
                expect,
                "mask {mask:#06x}: lut={} expect_arc={expect}",
                lut[mask as usize]
            );
        }
    }

    #[test]
    fn arc_lut_extremes() {
        let lut = arc_lut();
        assert_eq!(lut[0], 0);
        assert_eq!(lut[0xffff], 16);
        assert_eq!(lut[0b1], 1);
        // Wrap-around run: bits 14,15,0,1 → length 4.
        assert_eq!(lut[0b1100_0000_0000_0011], 4);
    }

    #[test]
    fn detect_matches_reference_on_textures() {
        for seed in 0..6u64 {
            let img = GrayImage::from_fn(97, 73, |x, y| {
                let h = (x as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add((y as u64).wrapping_mul(40503))
                    .wrapping_add(seed.wrapping_mul(0x9e3779b9));
                ((h >> 7) % 256) as u8
            });
            for threshold in [5u8, 20, 60] {
                assert_eq!(
                    detect(&img, threshold),
                    detect_reference(&img, threshold),
                    "seed {seed} threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn detect_into_reuses_buffer() {
        let img = bright_square(40, 20, 220);
        let mut buf = vec![FastDetection { x: 0, y: 0 }; 3];
        detect_into(&img, 30, &mut buf);
        assert_eq!(buf, detect_reference(&img, 30));
    }

    #[test]
    fn band_scan_matches_reference_row_ranges() {
        // The band entry appends each requested row range bit-identically
        // to the same rows of the reference, across widths chosen to
        // exercise every SIMD tail shape (w < 38 is all-scalar; 38, 39,
        // 66, 67, 101 leave tails of various lengths).
        for &w in &[7u32, 12, 37, 38, 39, 66, 67, 101] {
            let img = GrayImage::from_fn(w, 29, |x, y| {
                let h = (x as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add((y as u64).wrapping_mul(40503));
                ((h >> 5) % 256) as u8
            });
            let reference = detect_reference(&img, 10);
            // Full range in one call.
            let mut all = Vec::new();
            detect_band_into(&img, 10, 0..29, &mut all);
            assert_eq!(all, reference, "width {w} full");
            // Assembled from single-row bands (the streaming call shape).
            let mut assembled = Vec::new();
            for y in 0..29 {
                detect_band_into(&img, 10, y..y + 1, &mut assembled);
            }
            assert_eq!(assembled, reference, "width {w} per-row");
            // Uneven split, including out-of-range rows (clamped).
            let mut split = Vec::new();
            detect_band_into(&img, 10, 0..11, &mut split);
            detect_band_into(&img, 10, 11..1000, &mut split);
            assert_eq!(split, reference, "width {w} split");
        }
    }

    #[test]
    fn band_scan_appends_without_clearing() {
        let img = bright_square(40, 20, 220);
        let mut out = vec![FastDetection { x: 999, y: 999 }];
        detect_band_into(&img, 30, 0..40, &mut out);
        assert_eq!(out[0], FastDetection { x: 999, y: 999 });
        assert_eq!(&out[1..], detect_reference(&img, 30).as_slice());
    }

    #[test]
    fn tiny_images_have_no_corners() {
        for (w, h) in [(0u32, 0u32), (1, 1), (6, 6), (6, 40), (40, 6)] {
            let img = GrayImage::from_fn(w, h, |x, y| ((x * 41 + y * 13) % 251) as u8);
            assert!(detect(&img, 5).is_empty());
            assert_eq!(detect(&img, 5), detect_reference(&img, 5));
        }
    }
}
