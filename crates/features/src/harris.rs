//! Harris corner response.
//!
//! The paper's FAST Detection module "computes Harris corner score for
//! each keypoint" (§3.1) inside the pixel stream, one pixel per cycle
//! off line buffers; the score drives both non-maximum suppression and
//! the top-1024 Heap filtering. As in the original ORB, the response is
//! evaluated on the 7×7 block around the keypoint with 3×3 Sobel
//! derivatives.
//!
//! Two implementations compute it:
//!
//! * [`harris_score`] — the scalar per-point formula in `f64`, the
//!   oracle behind
//!   [`OrbExtractor::extract_reference`](crate::orb::OrbExtractor::extract_reference).
//! * `HarrisScorer` — the streaming scorer each row band of the
//!   extractor ([`crate::stream`]) holds. It runs four row stages per
//!   row of detections, all in exact integers until the last:
//!   1. **Gradients.** The clamped Sobel gradients of each raw row are
//!      computed once, into a ring of [`GRAD_RING_ROWS`] `i16` rows, and
//!      only for rows some detection's block reaches (spans without
//!      detections are skipped, as the lazy blur chain skips them).
//!   2. **Column sums.** Per column of the detections' span, the three
//!      gradient products summed down the block's 7 rows, in `i32`. When
//!      the previous row was scored, its sums *roll* one row down: the
//!      entering gradient row `y + 3` is added and the leaving row
//!      `y − 4` subtracted, both still in the 8-row ring. A band's first
//!      scored row, a row after one without detections, and the columns
//!      the previous row's span did not cover are *rebuilt* from their 7
//!      rows.
//!   3. **Box sums.** The 7-wide sums of the column sums, densely over
//!      the detections' span.
//!   4. **Responses.** [`harris_score`]'s `f64` expression on each
//!      detection's three box sums, 4 detections per step.
//!
//!   Neighbouring detections and rows share every gradient and column
//!   sum instead of recomputing 49 Sobel pairs each. The stages are one
//!   source compiled twice: a baseline instance, and one with AVX2
//!   enabled (16 `i16`, 8 `i32` or 4 `f64` lanes per step) that the
//!   scorer runs wherever the CPU has AVX2. Neither uses FMA.
//!
//! # Exactness
//!
//! The scorer equals [`harris_score`] bit for bit by construction, not
//! within a tolerance. Pixels are 8-bit, so every Sobel gradient is an
//! integer of magnitude at most 4 · 255 = 1020 (it fits `i16`), every
//! product is at most 1020², and a 7×7 block sum is at most
//! 49 · 1020² = 50,979,600 — below 2³¹ (it fits `i32`) and far below 2⁵³.
//! Every `f64` partial sum [`harris_score`] forms is therefore an exact
//! integer, equal to the scorer's `i32` sum in any order of summation,
//! and both finish through the same `response` expression, lane by lane
//! in the same order of operations. Rolling adds no bound: a rolled
//! column sum is the same integer as a rebuilt one, and no partial value
//! of a roll exceeds 8 · 1020². The in-crate property tests compare the
//! two by `f64::to_bits`, calling both compiled instances directly, on
//! every FAST detection of noise, saturated and sparse images, border
//! rows and columns included, and on gapped rows at ±1020 gradients
//! where both the roll and the rebuild run.

use crate::fast::FastDetection;
use crate::nms::ScoredPoint;
use crate::stream::GRAD_RING_ROWS;
use eslam_image::GrayImage;
use std::ops::Range;

/// Harris detector constant `k` in `det(M) − k·trace(M)²`.
pub const HARRIS_K: f64 = 0.04;

/// Half-size of the 7×7 scoring block (matches the 7×7 patch the paper's
/// FAST Detection module consumes).
pub const BLOCK_HALF: i64 = 3;

/// Computes the Harris corner response at `(x, y)`.
///
/// Derivatives use the 3×3 Sobel operator; the structure tensor is
/// accumulated over the 7×7 block centred on the pixel with border
/// replication. Normalization matches OpenCV's ORB convention of scaling
/// by `1 / (4 · block_area)²` on the raw Sobel sums — only relative order
/// matters for NMS/heap filtering, but a stable scale keeps scores
/// readable.
pub fn harris_score(img: &GrayImage, x: u32, y: u32) -> f64 {
    // The Sobel taps of the 7×7 block reach ±4 pixels; inside that
    // margin the hot path indexes rows directly instead of clamping
    // every sample. Identical arithmetic in identical order, so the two
    // paths are bit-exact (proven by `interior_fast_path_is_bit_exact`).
    let (cx, cy) = (x as i64, y as i64);
    let reach = BLOCK_HALF + 1;
    let interior = cx >= reach
        && cy >= reach
        && cx + reach < img.width() as i64
        && cy + reach < img.height() as i64;

    let mut sum_xx = 0.0f64;
    let mut sum_yy = 0.0f64;
    let mut sum_xy = 0.0f64;
    if interior {
        let w = img.width() as usize;
        let data = img.as_raw();
        let base = cy as usize * w + cx as usize;
        for dy in -BLOCK_HALF..=BLOCK_HALF {
            for dx in -BLOCK_HALF..=BLOCK_HALF {
                let centre = (base as i64 + dy * w as i64 + dx) as usize;
                let g =
                    |ox: i64, oy: i64| data[(centre as i64 + oy * w as i64 + ox) as usize] as f64;
                let ix =
                    (g(1, -1) + 2.0 * g(1, 0) + g(1, 1)) - (g(-1, -1) + 2.0 * g(-1, 0) + g(-1, 1));
                let iy =
                    (g(-1, 1) + 2.0 * g(0, 1) + g(1, 1)) - (g(-1, -1) + 2.0 * g(0, -1) + g(1, -1));
                sum_xx += ix * ix;
                sum_yy += iy * iy;
                sum_xy += ix * iy;
            }
        }
    } else {
        for dy in -BLOCK_HALF..=BLOCK_HALF {
            for dx in -BLOCK_HALF..=BLOCK_HALF {
                let px = cx + dx;
                let py = cy + dy;
                let ix = sobel_x(img, px, py);
                let iy = sobel_y(img, px, py);
                sum_xx += ix * ix;
                sum_yy += iy * iy;
                sum_xy += ix * iy;
            }
        }
    }
    response(sum_xx, sum_xy, sum_yy)
}

/// The Harris response of a block's structure-tensor sums
/// `(Σ Ix², Σ Ix·Iy, Σ Iy²)`: the one finishing expression both
/// [`harris_score`] and [`HarrisScorer`] evaluate, so their order of
/// operations cannot drift apart.
#[inline]
fn response(sum_xx: f64, sum_xy: f64, sum_yy: f64) -> f64 {
    let norm = 1.0 / ((4 * (2 * BLOCK_HALF + 1).pow(2)) as f64);
    let (a, b, c) = (
        sum_xx * norm * norm,
        sum_xy * norm * norm,
        sum_yy * norm * norm,
    );
    let det = a * c - b * b;
    let trace = a + c;
    det - HARRIS_K * trace * trace
}

/// The three gradient products a block sums, in this order:
/// `Ix²`, `Ix·Iy`, `Iy²`.
const PRODUCTS: usize = 3;

/// Line buffers of the streaming Harris scorer: a ring of
/// [`GRAD_RING_ROWS`] rows of Sobel gradients, one row of 7-row column
/// sums and one row of 7×7 box sums, each of the last two per gradient
/// product. Held per row band in the extractor's scratch and reused
/// across frames; [`HarrisScorer::stream`] binds it to one image.
#[derive(Debug, Default)]
pub(crate) struct HarrisScorer {
    /// Horizontal gradients `Ix`; raw row `r` lives at slot
    /// `r % GRAD_RING_ROWS`.
    gx: Vec<i16>,
    /// Vertical gradients `Iy`, in the same slots.
    gy: Vec<i16>,
    /// Column sums of `Ix²`, `Ix·Iy` and `Iy²` down the 7 block rows of
    /// the row [`HarrisStream::summed`] names, at their columns.
    sums: [Vec<i32>; PRODUCTS],
    /// 7-wide box sums of `sums` for the row being scored: the entry for
    /// column `x` sits at `x − x0`, where `x0` is the row's first
    /// detection.
    boxes: [Vec<i32>; PRODUCTS],
}

impl HarrisScorer {
    /// Sizes the buffers for `img` and starts a fresh pass over it: no
    /// gradient row or column sum of an earlier image or pass survives
    /// into the returned stream.
    pub(crate) fn stream<'a>(&'a mut self, img: &'a GrayImage) -> HarrisStream<'a> {
        let w = img.width() as usize;
        let ring = GRAD_RING_ROWS as usize * w;
        self.gx.resize(ring, 0);
        self.gy.resize(ring, 0);
        for row in self.sums.iter_mut().chain(&mut self.boxes) {
            row.resize(w, 0);
        }
        HarrisStream {
            img,
            bufs: self,
            next: 0,
            summed: None,
        }
    }

    /// Bytes held by the gradient ring, the column-sum rows and the
    /// box-sum rows — linear in the width of the last image streamed,
    /// independent of its height.
    pub(crate) fn working_bytes(&self) -> usize {
        let sums = self
            .sums
            .iter()
            .chain(&self.boxes)
            .map(Vec::len)
            .sum::<usize>();
        std::mem::size_of::<i16>() * (self.gx.len() + self.gy.len())
            + std::mem::size_of::<i32>() * sums
    }
}

/// One pass of a [`HarrisScorer`] over one image: rows of detections are
/// scored top to bottom, and gradient rows are produced as the blocks
/// reach them.
pub(crate) struct HarrisStream<'a> {
    img: &'a GrayImage,
    bufs: &'a mut HarrisScorer,
    /// Next raw row whose gradients the ring does not hold yet.
    next: usize,
    /// The row whose column sums [`HarrisScorer::sums`] hold, and the
    /// columns they hold them for; `None` before the first scored row.
    summed: Option<(usize, Range<usize>)>,
}

impl HarrisStream<'_> {
    /// Appends one [`ScoredPoint`] per detection, in order. The
    /// detections are those of one image row, sorted by `x`, as one
    /// FAST row scan yields them; rows must arrive in ascending order.
    /// Every score is bit-identical to [`harris_score`] at the same
    /// point.
    ///
    /// Runs the AVX2 instance of the row stages where the CPU has AVX2,
    /// and the baseline instance elsewhere.
    ///
    /// # Panics
    ///
    /// If a detection's 7×7 block leaves the image (FAST never detects
    /// within 3 pixels of the border).
    pub(crate) fn score_row(&mut self, detections: &[FastDetection], out: &mut Vec<ScoredPoint>) {
        #[cfg(target_arch = "x86_64")]
        if crate::avx2_available() {
            // SAFETY: AVX2 was detected on this CPU.
            unsafe { self.score_row_avx2(detections, out) };
            return;
        }
        self.score_row_baseline(detections, out);
    }

    /// [`Self::score_row`]'s row stages compiled for the target's
    /// baseline features: the only instance on hosts without AVX2.
    fn score_row_baseline(&mut self, detections: &[FastDetection], out: &mut Vec<ScoredPoint>) {
        self.score_row_stages(detections, out);
    }

    /// [`Self::score_row`]'s row stages compiled with AVX2 enabled: the
    /// same source as [`Self::score_row_baseline`], vectorized 16 `i16`,
    /// 8 `i32` or 4 `f64` lanes wide.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn score_row_avx2(&mut self, detections: &[FastDetection], out: &mut Vec<ScoredPoint>) {
        self.score_row_stages(detections, out);
    }

    /// The row stages: gradients, column sums (rolled or rebuilt), box
    /// sums and responses. Inlined into each compiled instance, so every
    /// loop below it is compiled once per instance.
    #[inline(always)]
    fn score_row_stages(&mut self, detections: &[FastDetection], out: &mut Vec<ScoredPoint>) {
        let (Some(first), Some(last)) = (detections.first(), detections.last()) else {
            return;
        };
        let half = BLOCK_HALF as usize;
        let (w, h) = (self.img.width() as usize, self.img.height() as usize);
        let (y, x0, x1) = (first.y as usize, first.x as usize, last.x as usize);
        assert!(
            y >= half && y + half < h && x0 >= half && x1 + half < w,
            "Harris block of row {y} leaves the {w}x{h} image"
        );
        debug_assert!(detections.iter().all(|d| d.y == first.y));
        // The column span every block of the row covers.
        let span = x0 - half..x1 + half + 1;
        self.ensure_gradients(y - half, y + half);

        // Columns whose sums for row `y − 1` are held roll one row down;
        // the rest of the span, on either side of them, is rebuilt from
        // its 7 rows.
        let rolled = match self.summed.take() {
            Some((row, held)) if row + 1 == y => {
                let start = held.start.clamp(span.start, span.end);
                start..held.end.clamp(start, span.end)
            }
            _ => span.start..span.start,
        };
        let HarrisScorer {
            gx,
            gy,
            sums,
            boxes,
        } = &mut *self.bufs;
        let grad = |r: usize, cols: &Range<usize>| {
            let slot = (r % GRAD_RING_ROWS as usize) * w;
            (
                &gx[slot + cols.start..slot + cols.end],
                &gy[slot + cols.start..slot + cols.end],
            )
        };
        if !rolled.is_empty() {
            let cols = sums.each_mut().map(|s| &mut s[rolled.clone()]);
            roll_columns(cols, grad(y + half, &rolled), grad(y - half - 1, &rolled));
        }
        for part in [span.start..rolled.start, rolled.end..span.end] {
            if !part.is_empty() {
                let g = |k: usize| grad(y - half + k, &part);
                let rows = [g(0), g(1), g(2), g(3), g(4), g(5), g(6)];
                rebuild_columns(sums.each_mut().map(|s| &mut s[part.clone()]), rows);
            }
        }

        let n = x1 - x0 + 1;
        for (sums, boxes) in sums.iter().zip(boxes.iter_mut()) {
            box_sums(&sums[span.clone()], &mut boxes[..n]);
        }
        self.summed = Some((y, span));

        let [box_xx, box_xy, box_yy] = boxes;
        let (box_xx, box_xy, box_yy) = (&box_xx[..n], &box_xy[..n], &box_yy[..n]);
        out.reserve(detections.len());
        for chunk in detections.chunks(4) {
            // Lanes past a short last chunk repeat its first hit; only
            // the chunk's own lanes are kept. Plain lane loops unroll into
            // 4-wide vector code; written with `array::map`, the inliner
            // left the gathers as out-of-line calls compiled without AVX2,
            // and Harris ran ~1.7× slower.
            let (mut xx, mut xy, mut yy) = ([0.0; 4], [0.0; 4], [0.0; 4]);
            for lane in 0..4 {
                let i = chunk.get(lane).unwrap_or(&chunk[0]).x as usize - x0;
                xx[lane] = f64::from(box_xx[i]);
                xy[lane] = f64::from(box_xy[i]);
                yy[lane] = f64::from(box_yy[i]);
            }
            let mut scores = [0.0; 4];
            for lane in 0..4 {
                scores[lane] = response(xx[lane], xy[lane], yy[lane]);
            }
            out.extend(chunk.iter().zip(scores).map(|(d, score)| ScoredPoint {
                x: d.x,
                y: d.y,
                score,
            }));
        }
    }

    /// Fills the ring with gradient rows `lo..=upto`. Rows below `lo`
    /// that the ring has not reached yet are skipped, not computed: no
    /// block of this or a later row reads them.
    #[inline(always)]
    fn ensure_gradients(&mut self, lo: usize, upto: usize) {
        debug_assert!(self.next <= upto + 1, "rows scored out of order");
        self.next = self.next.max(lo);
        let w = self.img.width() as usize;
        while self.next <= upto {
            let slot = (self.next % GRAD_RING_ROWS as usize) * w;
            sobel_row(
                self.img,
                self.next,
                &mut self.bufs.gx[slot..slot + w],
                &mut self.bufs.gy[slot..slot + w],
            );
            self.next += 1;
        }
    }
}

/// Moves column sums one row down: adds the products of the entering
/// gradient row `(ex, ey)` and subtracts those of the leaving row
/// `(lx, ly)`.
#[inline(always)]
fn roll_columns(sums: [&mut [i32]; PRODUCTS], enter: (&[i16], &[i16]), leave: (&[i16], &[i16])) {
    let [xx, xy, yy] = sums;
    let n = xx.len();
    let (xy, yy) = (&mut xy[..n], &mut yy[..n]);
    let (ex, ey, lx, ly) = (&enter.0[..n], &enter.1[..n], &leave.0[..n], &leave.1[..n]);
    for i in 0..n {
        let (a, b) = (i32::from(ex[i]), i32::from(ey[i]));
        let (c, d) = (i32::from(lx[i]), i32::from(ly[i]));
        xx[i] += a * a - c * c;
        xy[i] += a * b - c * d;
        yy[i] += b * b - d * d;
    }
}

/// Column sums of the three gradient products down 7 gradient rows: the
/// first row's products, then one accumulating pass per further row.
#[inline(always)]
fn rebuild_columns(sums: [&mut [i32]; PRODUCTS], rows: [(&[i16], &[i16]); 7]) {
    let [xx, xy, yy] = sums;
    let n = xx.len();
    let (xy, yy) = (&mut xy[..n], &mut yy[..n]);
    let (gx, gy) = (&rows[0].0[..n], &rows[0].1[..n]);
    for i in 0..n {
        let (a, b) = (i32::from(gx[i]), i32::from(gy[i]));
        (xx[i], xy[i], yy[i]) = (a * a, a * b, b * b);
    }
    for &(gx, gy) in &rows[1..] {
        let (gx, gy) = (&gx[..n], &gy[..n]);
        for i in 0..n {
            let (a, b) = (i32::from(gx[i]), i32::from(gy[i]));
            xx[i] += a * a;
            xy[i] += a * b;
            yy[i] += b * b;
        }
    }
}

/// 7-wide box sums of one column-sum row: `out[i]` is the sum of
/// `sums[i..i + 7]`, so `sums` holds 6 entries more than `out`.
#[inline(always)]
fn box_sums(sums: &[i32], out: &mut [i32]) {
    let n = out.len();
    let taps: [&[i32]; 7] = std::array::from_fn(|k| &sums[k..k + n]);
    for (i, o) in out.iter_mut().enumerate() {
        *o = taps[0][i]
            + taps[1][i]
            + taps[2][i]
            + taps[3][i]
            + taps[4][i]
            + taps[5][i]
            + taps[6][i];
    }
}

/// The clamped 3×3 Sobel gradients of raw row `r` — the integers
/// [`harris_score`] forms in `f64`, with the same border replication.
#[inline(always)]
fn sobel_row(img: &GrayImage, r: usize, gx: &mut [i16], gy: &mut [i16]) {
    let (w, h) = (img.width() as usize, img.height() as usize);
    let data = img.as_raw();
    let row = |j: usize| &data[j * w..(j + 1) * w];
    let (up, mid, down) = (row(r.saturating_sub(1)), row(r), row((r + 1).min(h - 1)));
    // Border columns replicate their outermost neighbour.
    let at = |row: &[u8], x: usize, dx: isize| {
        row[(x as isize + dx).clamp(0, w as isize - 1) as usize] as i16
    };
    for x in [0, w - 1] {
        gx[x] = (at(up, x, 1) + 2 * at(mid, x, 1) + at(down, x, 1))
            - (at(up, x, -1) + 2 * at(mid, x, -1) + at(down, x, -1));
        gy[x] = (at(down, x, -1) + 2 * at(down, x, 0) + at(down, x, 1))
            - (at(up, x, -1) + 2 * at(up, x, 0) + at(up, x, 1));
    }
    if w < 3 {
        return;
    }
    // Interior columns: equal-length slices let the loop vectorize.
    let n = w - 2;
    let (ul, uc, ur) = (&up[..n], &up[1..n + 1], &up[2..]);
    let (ml, mr) = (&mid[..n], &mid[2..]);
    let (dl, dc, dr) = (&down[..n], &down[1..n + 1], &down[2..]);
    let (gx, gy) = (&mut gx[1..n + 1], &mut gy[1..n + 1]);
    for i in 0..n {
        let p = |v: &[u8]| v[i] as i16;
        gx[i] = (p(ur) + 2 * p(mr) + p(dr)) - (p(ul) + 2 * p(ml) + p(dl));
        gy[i] = (p(dl) + 2 * p(dc) + p(dr)) - (p(ul) + 2 * p(uc) + p(ur));
    }
}

#[inline]
fn sobel_x(img: &GrayImage, x: i64, y: i64) -> f64 {
    let g = |dx: i64, dy: i64| img.get_clamped(x + dx, y + dy) as f64;
    (g(1, -1) + 2.0 * g(1, 0) + g(1, 1)) - (g(-1, -1) + 2.0 * g(-1, 0) + g(-1, 1))
}

#[inline]
fn sobel_y(img: &GrayImage, x: i64, y: i64) -> f64 {
    let g = |dx: i64, dy: i64| img.get_clamped(x + dx, y + dy) as f64;
    (g(-1, 1) + 2.0 * g(0, 1) + g(1, 1)) - (g(-1, -1) + 2.0 * g(0, -1) + g(1, -1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert_eq, TestCaseError};

    fn corner_image() -> GrayImage {
        // Bright quadrant: a strong L-corner at (16, 16).
        GrayImage::from_fn(32, 32, |x, y| if x >= 16 && y >= 16 { 220 } else { 30 })
    }

    #[test]
    fn flat_region_scores_zero() {
        let img = GrayImage::from_fn(16, 16, |_, _| 128);
        assert_eq!(harris_score(&img, 8, 8), 0.0);
    }

    #[test]
    fn corner_scores_higher_than_edge() {
        let img = corner_image();
        let corner = harris_score(&img, 16, 16);
        let edge = harris_score(&img, 24, 16); // on the horizontal edge
        let flat = harris_score(&img, 24, 24); // inside the bright region
        assert!(corner > edge, "corner {corner} vs edge {edge}");
        assert!(corner > flat, "corner {corner} vs flat {flat}");
        assert!(corner > 0.0);
    }

    #[test]
    fn edge_scores_negative_or_small() {
        // A pure edge has rank-1 structure tensor: det ≈ 0, so the
        // response ≈ −k·trace² < 0.
        let img = GrayImage::from_fn(32, 32, |x, _| if x < 16 { 0 } else { 255 });
        let edge = harris_score(&img, 16, 16);
        assert!(edge < 0.0, "edge response {edge}");
    }

    #[test]
    fn response_is_contrast_monotone() {
        let weak = GrayImage::from_fn(32, 32, |x, y| if x >= 16 && y >= 16 { 80 } else { 30 });
        let strong = corner_image();
        assert!(harris_score(&strong, 16, 16) > harris_score(&weak, 16, 16));
    }

    #[test]
    fn response_symmetric_under_inversion() {
        // Inverting intensity flips gradients but not the tensor products.
        let img = corner_image();
        let inverted = GrayImage::from_fn(32, 32, |x, y| 255 - img.get(x, y));
        let a = harris_score(&img, 16, 16);
        let b = harris_score(&inverted, 16, 16);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn border_evaluation_does_not_panic() {
        let img = corner_image();
        let _ = harris_score(&img, 0, 0);
        let _ = harris_score(&img, 31, 31);
    }

    /// Clamped-path evaluation of the score (the pre-fast-path formula),
    /// used to prove the interior fast path bit-exact.
    fn harris_score_clamped(img: &GrayImage, x: u32, y: u32) -> f64 {
        let mut sum_xx = 0.0f64;
        let mut sum_yy = 0.0f64;
        let mut sum_xy = 0.0f64;
        let (cx, cy) = (x as i64, y as i64);
        for dy in -BLOCK_HALF..=BLOCK_HALF {
            for dx in -BLOCK_HALF..=BLOCK_HALF {
                let ix = sobel_x(img, cx + dx, cy + dy);
                let iy = sobel_y(img, cx + dx, cy + dy);
                sum_xx += ix * ix;
                sum_yy += iy * iy;
                sum_xy += ix * iy;
            }
        }
        let norm = 1.0 / ((4 * (2 * BLOCK_HALF + 1).pow(2)) as f64);
        let (a, b, c) = (
            sum_xx * norm * norm,
            sum_xy * norm * norm,
            sum_yy * norm * norm,
        );
        a * c - b * b - HARRIS_K * (a + c) * (a + c)
    }

    #[test]
    fn interior_fast_path_is_bit_exact() {
        let img = GrayImage::from_fn(48, 40, |x, y| {
            ((x as u64 * 2654435761 + y as u64 * 40503) >> 6) as u8
        });
        for y in 0..40 {
            for x in 0..48 {
                let fast = harris_score(&img, x, y);
                let reference = harris_score_clamped(&img, x, y);
                assert!(
                    fast == reference,
                    "({x},{y}): fast {fast} vs reference {reference}"
                );
            }
        }
    }

    /// A pseudo-random 64-bit value per pixel (splitmix64 finalizer).
    fn mix(seed: u64, x: u32, y: u32) -> u64 {
        let mut z =
            seed ^ ((u64::from(x) << 32) | u64::from(y)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn noise(w: u32, h: u32, seed: u64) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| mix(seed, x, y) as u8)
    }

    /// The compiled instances of the row stages: the baseline one, run
    /// directly (an AVX2 host never dispatches to it), and the AVX2 one
    /// wherever this CPU has it.
    #[derive(Debug, Clone, Copy)]
    enum Instance {
        Baseline,
        #[cfg(target_arch = "x86_64")]
        Avx2,
    }

    fn instances() -> Vec<Instance> {
        let mut all = vec![Instance::Baseline];
        #[cfg(target_arch = "x86_64")]
        if crate::avx2_available() {
            all.push(Instance::Avx2);
        }
        all
    }

    /// Scores `rows` of detections (each one image row, sorted by `x`,
    /// rows ascending) through one stream of `scorer` per compiled
    /// instance of the row stages, and checks every score against
    /// [`harris_score`] bit for bit.
    fn check_rows(
        scorer: &mut HarrisScorer,
        img: &GrayImage,
        rows: &[Vec<FastDetection>],
    ) -> Result<(), TestCaseError> {
        for instance in instances() {
            let mut stream = scorer.stream(img);
            let mut scored = Vec::new();
            for row in rows {
                scored.clear();
                match instance {
                    Instance::Baseline => stream.score_row_baseline(row, &mut scored),
                    // SAFETY: `instances` lists AVX2 only where detected.
                    #[cfg(target_arch = "x86_64")]
                    Instance::Avx2 => unsafe { stream.score_row_avx2(row, &mut scored) },
                }
                prop_assert_eq!(scored.len(), row.len());
                for (d, p) in row.iter().zip(&scored) {
                    let oracle = harris_score(img, d.x, d.y);
                    prop_assert_eq!((p.x, p.y), (d.x, d.y));
                    prop_assert_eq!(
                        p.score.to_bits(),
                        oracle.to_bits(),
                        "{:?} {}x{} at ({}, {}): scorer {} vs harris_score {}",
                        instance,
                        img.width(),
                        img.height(),
                        d.x,
                        d.y,
                        p.score,
                        oracle
                    );
                }
            }
        }
        Ok(())
    }

    /// The FAST detections of `img`, one row scan at a time — the rows
    /// the extractor's band scan hands the scorer.
    fn fast_rows(img: &GrayImage, threshold: u8) -> Vec<Vec<FastDetection>> {
        (0..img.height())
            .map(|y| {
                let mut row = Vec::new();
                crate::fast::detect_band_into(img, threshold, y..y + 1, &mut row);
                row
            })
            .filter(|row| !row.is_empty())
            .collect()
    }

    #[test]
    fn scorer_is_exact_on_the_clamped_border_lines() {
        // Low-amplitude noise with a full-swing spike every 4 pixels
        // along the outermost detectable rows and columns: each spike is
        // a FAST corner whose block's Sobel taps clamp at the image edge.
        for (w, h) in [(7u32, 7u32), (8, 7), (7, 9), (12, 11), (23, 17), (64, 61)] {
            let img = GrayImage::from_fn(w, h, |x, y| {
                let spike = ((x == 3 || x == w - 4) && y % 4 == 3)
                    || ((y == 3 || y == h - 4) && x % 4 == 3);
                if spike {
                    255
                } else {
                    100 + (mix(u64::from(w), x, y) % 57) as u8
                }
            });
            let rows = fast_rows(&img, 20);
            let all: Vec<&FastDetection> = rows.iter().flatten().collect();
            assert!(all.iter().any(|d| d.x == 3), "{w}x{h}");
            assert!(all.iter().any(|d| d.y == 3), "{w}x{h}");
            assert!(all.iter().any(|d| d.x == w - 4), "{w}x{h}");
            assert!(all.iter().any(|d| d.y == h - 4), "{w}x{h}");
            check_rows(&mut HarrisScorer::default(), &img, &rows).unwrap();
        }
    }

    #[test]
    fn scorer_is_exact_at_full_gradient_swing() {
        // 0/255 columns of period 4 make every gradient |Ix| = 1020 and
        // every block sum of Ix² 49 · 1020² = 50,979,600, the i32
        // headroom bound (each rolled column sum adds and drops 1020² a
        // row); scored at every interior pixel, as dense detection rows,
        // in both polarities and both orientations, and at every width
        // from 7 to 200.
        let stripes = |x: u32, _y: u32| if x % 4 < 2 { 0 } else { 255 };
        let images = [
            GrayImage::from_fn(40, 24, stripes),
            GrayImage::from_fn(40, 24, |x, y| 255 - stripes(x, y)),
            GrayImage::from_fn(24, 40, |x, y| stripes(y, x)),
        ];
        let widths = (7..=200).map(|w| GrayImage::from_fn(w, 12, stripes));
        for img in images.into_iter().chain(widths) {
            let (w, h) = (img.width(), img.height());
            let rows: Vec<Vec<FastDetection>> = (3..h - 3)
                .map(|y| (3..w - 3).map(|x| FastDetection { x, y }).collect())
                .collect();
            let mut scorer = HarrisScorer::default();
            check_rows(&mut scorer, &img, &rows).unwrap();
            let peak = scorer.gx.iter().chain(&scorer.gy).map(|g| g.abs()).max();
            assert_eq!(peak, Some(1020));
        }
    }

    mod kernel_props {
        use super::*;
        use proptest::prelude::*;

        /// Detection rows for the row stages on their own: every row
        /// `y` in `3..h − 3` with `y % gap != 0`, so runs of consecutive
        /// rows (the column sums roll) alternate with skipped rows (they
        /// are rebuilt), each a random third of the interior columns
        /// (spans shift from row to row, so a roll also rebuilds the
        /// columns the previous row did not cover).
        fn gapped_rows(w: u32, h: u32, gap: u32, seed: u64) -> Vec<Vec<FastDetection>> {
            (3..h - 3)
                .filter(|y| y % gap != 0)
                .map(|y| {
                    (3..w - 3)
                        .filter(|&x| mix(seed ^ 0x5eed, x, y).is_multiple_of(3))
                        .map(|x| FastDetection { x, y })
                        .collect()
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn row_stages_match_oracle_at_full_swing(
                w in 7u32..201, h in 12u32..40, gap in 3u32..8,
                seed in 0u64..u64::MAX, cell in 1u32..4,
            ) {
                // Random 0/255 cells (single pixels when `cell` is 1):
                // gradients take every multiple of 255 up to ±1020.
                let img = GrayImage::from_fn(w, h, |x, y| {
                    if mix(seed, x / cell, y / cell) & 1 == 0 { 0 } else { 255 }
                });
                check_rows(&mut HarrisScorer::default(), &img, &gapped_rows(w, h, gap, seed))?;
            }
        }
    }

    mod scorer_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn scorer_matches_oracle_on_noise(
                w in 7u32..65, h in 7u32..65, seed in 0u64..u64::MAX, threshold in 1u8..40,
            ) {
                let img = noise(w, h, seed);
                check_rows(&mut HarrisScorer::default(), &img, &fast_rows(&img, threshold))?;
            }

            #[test]
            fn scorer_matches_oracle_on_saturated_patterns(
                w in 7u32..65, h in 7u32..65, seed in 0u64..u64::MAX, cell in 1u32..4,
            ) {
                // Random 0/255 cells push gradients to ±1020.
                let img = GrayImage::from_fn(w, h, |x, y| {
                    if mix(seed, x / cell, y / cell) & 1 == 0 { 0 } else { 255 }
                });
                check_rows(&mut HarrisScorer::default(), &img, &fast_rows(&img, 20))?;
            }

            #[test]
            fn scorer_skips_rows_without_detections(
                w in 7u32..65, gap in 9u32..40, stripes in 2u32..6, seed in 0u64..u64::MAX,
            ) {
                // Alternating 0/255 rows, `gap` rows apart, on a field
                // of noise too faint to fire FAST: every pixel of those
                // rows is a corner and no other pixel is, so the gradient
                // chain jumps over the `gap − 7` rows between blocks.
                let h = 4 + stripes * gap;
                let img = GrayImage::from_fn(w, h, |x, y| {
                    if y % gap == 3 {
                        ((u64::from(x) + seed) % 2) as u8 * 255
                    } else {
                        120 + (mix(seed, x, y) % 17) as u8
                    }
                });
                let rows = fast_rows(&img, 30);
                prop_assert_eq!(rows.len() as u32, stripes);
                prop_assert!(rows.iter().all(|r| r[0].y % gap == 3));
                check_rows(&mut HarrisScorer::default(), &img, &rows)?;
            }

            #[test]
            fn scorer_reused_across_widths(
                w1 in 7u32..65, w2 in 7u32..65, h in 7u32..40, seed in 0u64..u64::MAX,
            ) {
                // One scorer, images of two widths in turn and back: no
                // gradient row of one image leaks into the next.
                let mut scorer = HarrisScorer::default();
                for (i, w) in [w1, w2, w1].into_iter().enumerate() {
                    let img = noise(w, h, seed.wrapping_add(i as u64));
                    check_rows(&mut scorer, &img, &fast_rows(&img, 10))?;
                }
            }
        }
    }
}
