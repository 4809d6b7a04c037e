//! FAST (Features from Accelerated Segment Test) corner detection.
//!
//! The paper's FAST Detection module takes a 7×7 pixel patch and flags the
//! centre as a keypoint when ≥ 9 contiguous pixels on the 16-pixel
//! Bresenham circle of radius 3 are all brighter than centre + threshold
//! or all darker than centre − threshold (FAST-9/16, the variant ORB
//! uses).
//!
//! There is one production scanner and one scalar oracle:
//!
//! * [`is_fast_corner`] — the per-pixel scalar reference (bit-exact
//!   contract for the hardware FAST unit and the oracle for the fast
//!   path);
//! * [`detect`] / [`detect_into`] — the production scanner: row-sliced
//!   addressing and the compass-point early reject, then one of two
//!   kernels per row:
//!   * where the CPU has AVX2 and the row is at least 38 pixels wide,
//!     32 centres per step decide in-register: each lane walks the
//!     reference's bright and dark run counters over circle positions
//!     `0 .. 16 + FAST_ARC − 1` and is a corner iff its longest run
//!     reaches [`FAST_ARC`]. The row ends with one block overlapping
//!     the last full one, so no column is left to scalar code;
//!   * elsewhere, a scalar scan classifies the circle into `u16`
//!     bright/dark bitmasks and finds a 9-run with four rotate-ANDs.
//!
//!   Neither kernel uses a lookup table.
//!
//! `tests` (including the `kernel_props` proptests, which call both row
//! kernels directly) and `crates/features/tests/fast_path_equivalence.rs`
//! prove them bit-identical to the reference.

use eslam_image::GrayImage;

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

// `has_arc_mask` hard-codes a run of 9.
const _: () = assert!(FAST_ARC == 9);

/// Whether the 16-bit circle mask (bit *i* = circle pixel *i*) holds a
/// circular run of ≥ [`FAST_ARC`] set bits. Bit *i* of `m8` is set iff
/// bits *i* .. *i* + 7 (mod 16) all are, so ANDing with the mask
/// rotated by 8 leaves bit *i* set iff bits *i* .. *i* + 8 all are.
#[inline(always)]
fn has_arc_mask(mask: u16) -> bool {
    let m2 = mask & mask.rotate_right(1);
    let m4 = m2 & m2.rotate_right(2);
    let m8 = m4 & m4.rotate_right(4);
    m8 & mask.rotate_right(8) != 0
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

/// The seven row slices the radius-3 circle around row `y` touches,
/// each the full image width.
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

    /// The row at offset `dy` (−3..=3) from the centre row.
    fn row(&self, dy: i32) -> &'a [u8] {
        match dy {
            -3 => self.rm3,
            -2 => self.rm2,
            -1 => self.rm1,
            0 => self.r0,
            1 => self.rp1,
            2 => self.rp2,
            _ => self.rp3,
        }
    }
}

/// The full per-pixel FAST-9 decision (compass reject + bitmask
/// segment test) at interior column `x`: the scalar scan's kernel.
#[inline(always)]
fn corner_at(r: &CircleRows<'_>, x: usize, t: i32) -> bool {
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

    has_arc_mask(bright) || has_arc_mask(dark)
}

/// Scalar scan of interior columns `x0..x1` of row `y`.
fn scan_row_scalar(
    r: &CircleRows<'_>,
    y: u32,
    x0: usize,
    x1: usize,
    t: i32,
    out: &mut Vec<FastDetection>,
) {
    for x in x0..x1 {
        if corner_at(r, x, t) {
            out.push(FastDetection { x: x as u32, y });
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{CircleRows, FastDetection, CIRCLE_OFFSETS, FAST_ARC};
    use std::arch::x86_64::*;

    /// The narrowest row the AVX2 scan takes: one full block of 32
    /// centres (columns 3..35) reads columns 0..38.
    pub(super) const MIN_WIDTH: usize = 38;

    /// AVX2 row scan, 32 centre pixels per block. Full blocks start at
    /// columns 3, 35, 67, …; where they leave a tail, the row ends with
    /// one block ending at the last interior centre `w − 4`, with its
    /// lanes below the last full block's end masked out. Every interior
    /// column is decided by exactly one block, and none by scalar code.
    ///
    /// # Panics
    /// If the row is narrower than [`MIN_WIDTH`].
    #[target_feature(enable = "avx2")]
    pub(super) fn scan_row(r: &CircleRows<'_>, y: u32, t: u8, out: &mut Vec<FastDetection>) {
        let w = r.r0.len();
        assert!(w >= MIN_WIDTH, "a {w}-pixel row has no full block");
        let taps = Taps::new(r);
        let n = w - 6;
        let tv = _mm256_set1_epi8(t as i8);
        let mut j = 0;
        while j + 32 <= n {
            push(out, corners(&taps, j, tv), j + 3, y);
            j += 32;
        }
        if j < n {
            // `n − 32 < j < n`, so the shift is 1..=31.
            let last = n - 32;
            let mask = corners(&taps, last, tv) & u32::MAX << (j - last);
            push(out, mask, last + 3, y);
        }
    }

    /// The centre and the 16 circle pixels (in [`CIRCLE_OFFSETS`] order)
    /// of every interior centre of one row: byte `j` of each tap belongs
    /// to the centre at column `3 + j`. [`Taps::new`] cuts every tap to
    /// the same `w − 6` bytes, which [`corners`]' loads rely on.
    struct Taps<'a> {
        centre: &'a [u8],
        circle: [&'a [u8]; 16],
    }

    impl<'a> Taps<'a> {
        fn new(r: &CircleRows<'a>) -> Self {
            let n = r.r0.len() - 6;
            Taps {
                centre: &r.r0[3..][..n],
                circle: CIRCLE_OFFSETS.map(|(dx, dy)| &r.row(dy)[(3 + dx) as usize..][..n]),
            }
        }
    }

    /// Appends the detections of `mask`'s set lanes (lane `k` = column
    /// `x + k`), in column order.
    #[inline(always)]
    fn push(out: &mut Vec<FastDetection>, mut mask: u32, x: usize, y: u32) {
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            out.push(FastDetection {
                x: (x + k) as u32,
                y,
            });
        }
    }

    /// The corner mask of the 32 centres at tap bytes `j .. j + 32`
    /// (bit `k` = column `3 + j + k`), in two vector stages that decide
    /// exactly as [`corner_at`](super::corner_at):
    ///
    /// 1. **Compass-point early reject** — counts of the four compass
    ///    points brighter than `c + t` / darker than `c − t`. If no lane
    ///    reaches 2 the whole block is rejected, like the scalar early
    ///    return.
    /// 2. **Run walk** — `has_arc`'s walk, for all 32 lanes at once:
    ///    each lane keeps a bright and a dark run counter, and at circle
    ///    position `k` a counter becomes `run + 1` where pixel `k % 16`
    ///    is bright (dark), else 0. The walk covers positions
    ///    `0 .. 16 + FAST_ARC − 1`, so every circular run of
    ///    [`FAST_ARC`] ends inside it, and no counter passes 24. A lane
    ///    is a corner iff its longest run, tracked with `max_epu8` from
    ///    the first position a run of [`FAST_ARC`] can end at, exceeds
    ///    `FAST_ARC − 1`.
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
    /// * Stage 2 classifies with the same `subs_epu8` differences
    ///   (`cmpeq(subs_epu8(p, hi), 0)` is "not brighter"), so each run
    ///   counter follows the scalar bitmask. A lane that passes stage 1
    ///   without an arc reads 0 like the scalar test; a lane with an
    ///   arc always passes stage 1 (any 9-arc covers two compass points
    ///   of its polarity), so the run walk's mask needs no stage-1 AND.
    ///
    /// # Panics
    /// If the block runs past the taps (`j + 32 > w − 6`).
    #[target_feature(enable = "avx2")]
    fn corners(taps: &Taps<'_>, j: usize, tv: __m256i) -> u32 {
        assert!(
            j + 32 <= taps.centre.len(),
            "block past the row's last centre"
        );
        // SAFETY: AVX2 is enabled here, and every tap holds as many bytes
        // as `taps.centre` (`Taps::new`), so the assert keeps the 32 bytes
        // from `j` inside each.
        let load =
            |tap: &[u8]| unsafe { _mm256_loadu_si256(tap.as_ptr().add(j) as *const __m256i) };
        let circle = |i: usize| load(taps.circle[i]);
        let one = _mm256_set1_epi8(1);
        let ones = _mm256_set1_epi8(-1);
        let zero = _mm256_setzero_si256();
        let c = load(taps.centre);
        let hi = _mm256_adds_epu8(c, tv);
        let lo = _mm256_subs_epu8(c, tv);

        // Stage 1: compass counts (circle pixels 0, 4, 8, 12).
        let mut bright_n = zero;
        let mut dark_n = zero;
        for p in [circle(0), circle(4), circle(8), circle(12)] {
            bright_n = _mm256_add_epi8(bright_n, _mm256_min_epu8(_mm256_subs_epu8(p, hi), one));
            dark_n = _mm256_add_epi8(dark_n, _mm256_min_epu8(_mm256_subs_epu8(lo, p), one));
        }
        let cand = _mm256_or_si256(
            _mm256_cmpgt_epi8(bright_n, one),
            _mm256_cmpgt_epi8(dark_n, one),
        );
        if _mm256_movemask_epi8(cand) == 0 {
            return 0;
        }

        // Stage 2: the run walk. `sub(run, −1)` is `run + 1`, and
        // `andnot` zeroes it where the pixel is not bright (dark).
        let mut run_b = zero;
        let mut run_d = zero;
        let mut longest = zero;
        for k in 0..16 + FAST_ARC - 1 {
            let p = circle(k % 16);
            let not_b = _mm256_cmpeq_epi8(_mm256_subs_epu8(p, hi), zero);
            let not_d = _mm256_cmpeq_epi8(_mm256_subs_epu8(lo, p), zero);
            run_b = _mm256_andnot_si256(not_b, _mm256_sub_epi8(run_b, ones));
            run_d = _mm256_andnot_si256(not_d, _mm256_sub_epi8(run_d, ones));
            // No run reaches `FAST_ARC` before position `FAST_ARC − 1`.
            if k >= FAST_ARC - 1 {
                longest = _mm256_max_epu8(longest, _mm256_max_epu8(run_b, run_d));
            }
        }
        let corner = _mm256_cmpgt_epi8(longest, _mm256_set1_epi8(FAST_ARC as i8 - 1));
        _mm256_movemask_epi8(corner) as u32
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
/// Rows at least 38 pixels wide run the AVX2 run-walk kernel (32 centres
/// per step, whole rows in vector blocks) where the CPU has AVX2; other
/// rows and hosts run the scalar bitmask scan. Both make the reference's
/// decisions.
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
    let y0 = rows.start.max(3) as usize;
    let y1 = (rows.end as usize).min(h - 3);

    #[cfg(target_arch = "x86_64")]
    let use_avx2 = w >= x86::MIN_WIDTH && crate::avx2_available();

    for y in y0..y1 {
        let r = CircleRows::new(data, w, y);
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: AVX2 was detected on this CPU.
            unsafe { x86::scan_row(&r, y as u32, threshold, out) };
            continue;
        }
        scan_row_scalar(&r, y as u32, 3, w - 3, threshold as i32, out);
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
    fn arc_mask_matches_has_arc_exhaustively() {
        // For every 16-bit mask, the rotate-AND decision must equal the
        // reference run walk over the equivalent classification array.
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
            assert_eq!(
                has_arc_mask(mask),
                has_arc(&classes, Tri::Brighter),
                "mask {mask:#06x}"
            );
        }
    }

    #[test]
    fn arc_mask_extremes() {
        assert!(!has_arc_mask(0));
        assert!(has_arc_mask(0xffff));
        // Runs of 8 and 9 from bit 0, and both wrapping from bit 12.
        assert!(!has_arc_mask(0x00ff));
        assert!(has_arc_mask(0x01ff));
        assert!(!has_arc_mask(0xf00f));
        assert!(has_arc_mask(0xf01f));
        // Two runs of 7 never add up to one of 9.
        assert!(!has_arc_mask(0x7f7f));
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
        // exercise every AVX2 row shape: w < 38 is all-scalar; 38 and 70
        // are whole blocks; 39, 66, 67 and 101 end with an overlapping
        // block.
        for &w in &[7u32, 12, 37, 38, 39, 66, 67, 70, 101] {
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

        /// Checks both row kernels on every scan row of `img` against
        /// the segment test: the scalar scan (called directly, since
        /// AVX2 hosts never dispatch rows of 38 pixels or more to it)
        /// and the AVX2 scan wherever this CPU has it and the row is
        /// wide enough.
        fn check(img: &GrayImage, t: u8) -> Result<(), TestCaseError> {
            let (w, h) = (img.width() as usize, img.height() as usize);
            for y in 3..h as u32 - 3 {
                let oracle: Vec<FastDetection> = (3..w as u32 - 3)
                    .filter(|&x| is_fast_corner(img, x, y, t))
                    .map(|x| FastDetection { x, y })
                    .collect();
                let r = CircleRows::new(img.as_raw(), w, y as usize);
                let mut scalar = Vec::new();
                scan_row_scalar(&r, y, 3, w - 3, i32::from(t), &mut scalar);
                prop_assert_eq!(&scalar, &oracle, "scalar {:?}", (w, y, t));
                #[cfg(target_arch = "x86_64")]
                if crate::avx2_available() && w >= x86::MIN_WIDTH {
                    let mut avx2 = Vec::new();
                    // SAFETY: AVX2 was detected on this CPU.
                    unsafe { x86::scan_row(&r, y, t, &mut avx2) };
                    prop_assert_eq!(&avx2, &oracle, "avx2 {:?}", (w, y, t));
                }
            }
            Ok(())
        }

        /// Around centre `(cx, 3)` of value `c`, sets the `len` circle
        /// pixels from position `start` (wrapping from 15 to 0) one
        /// step past the threshold on one side, and the rest exactly
        /// at it (not past it). Values clamp to `0..=255`, so a centre
        /// with `c + t ≥ 255` (or `c − t ≤ 0`) plants no arc at all.
        fn plant(
            img: &mut GrayImage,
            cx: u32,
            c: u8,
            t: u8,
            start: usize,
            len: usize,
            bright: bool,
        ) {
            let (c, t) = (i32::from(c), i32::from(t));
            let (edge, past) = if bright {
                (c + t, c + t + 1)
            } else {
                (c - t, c - t - 1)
            };
            img.set(cx, 3, c as u8);
            for (i, &(dx, dy)) in CIRCLE_OFFSETS.iter().enumerate() {
                let v = if (i + 16 - start) % 16 < len {
                    past
                } else {
                    edge
                };
                img.set(
                    (cx as i32 + dx) as u32,
                    (3 + dy) as u32,
                    v.clamp(0, 255) as u8,
                );
            }
        }

        /// Every `(start, len, polarity, centre)` combination of the
        /// planted-arc images: starts 0..16, runs of 8 and 9, bright and
        /// dark, and a mid-range or a saturating centre.
        const COMBOS: usize = 16 * 2 * 2 * 2;

        /// One 7-row image with centres every 7 columns along row 3
        /// (their circles never touch), centre `k` planted with combo
        /// `(first + k) % COMBOS`, on a noise background. Returns the
        /// image and the planted centres that must fire.
        fn planted(w: u32, seed: u64, t: u8, first: usize) -> (GrayImage, Vec<u32>) {
            let mut img = noise(w, 7, seed);
            let mut fire = Vec::new();
            for (k, cx) in (3..w - 3).step_by(7).enumerate() {
                let combo = (first + k) % COMBOS;
                let (start, len) = (combo % 16, 8 + (combo >> 4 & 1));
                let (bright, saturating) = (combo & 32 == 0, combo & 64 != 0);
                // Saturating centres put `c + t` past 255 (`c − t`
                // below 0), where a wrapping threshold would flip
                // every comparison.
                let c = match (bright, saturating) {
                    (true, false) => 254 - t,
                    (true, true) => 255 - t / 2,
                    (false, false) => t + 1,
                    (false, true) => t / 2,
                };
                plant(&mut img, cx, c, t, start, len, bright);
                if len == 9 && !saturating {
                    fire.push(cx);
                }
            }
            (img, fire)
        }

        #[test]
        fn every_final_block_overlap_matches() {
            // Widths 38..=200 end the row on every overlap of the last
            // full block, 0 (no extra block) through 31 lanes.
            for w in 38u32..=200 {
                for t in [0u8, 20, 90] {
                    check(&noise(w, 8, u64::from(w)), t).unwrap();
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn kernels_match_segment_test_on_noise(
                w in 38u32..201, h in 7u32..12, seed in 0u64..u64::MAX, t in 0u8..255,
            ) {
                check(&noise(w, h, seed), t)?;
            }

            #[test]
            fn kernels_match_segment_test_on_planted_arcs(
                w in 38u32..201, seed in 0u64..u64::MAX, t in 1u8..100,
            ) {
                let per_image = (w as usize - 6).div_ceil(7);
                for first in (0..COMBOS).step_by(per_image) {
                    let (img, fire) = planted(w, seed, t, first);
                    for &cx in &fire {
                        prop_assert!(is_fast_corner(&img, cx, 3, t), "planted 9-arc at {}", cx);
                    }
                    check(&img, t)?;
                }
            }
        }
    }
}
