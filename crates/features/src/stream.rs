//! Two-pass streaming extraction front-end.
//!
//! The paper's accelerator (§3, Fig. 4) never materializes intermediate
//! images: each pyramid level streams row by row through line buffers,
//! and smoothing, FAST, scoring, NMS, orientation and the descriptor
//! sampler all tap the stream at fixed latencies. This module is the
//! software mirror of that dataflow, with a small ring of line buffers
//! carrying the halo rows between stages. Each row band of a level
//! streams twice:
//!
//! 1. the **detection pass** (`detect_band`) runs FAST, the Harris
//!    score and the 3×3 NMS and leaves the band's candidates (the NMS +
//!    edge-margin survivors) in raster order;
//! 2. the **description pass** (`describe_band`) runs the lazy blur,
//!    the moments, the orientation label and the descriptor, for the
//!    candidates the keep bound lets through.
//!
//! It is the extractor's only production path; the sequential scalar
//! [`OrbExtractor::extract_reference`] is its bit-exact oracle.
//!
//! # Per-stage latency offsets
//!
//! All stages are driven by the raw-row scan position `y`. The halo each
//! stage needs below its output row (its *latency* in raw rows):
//!
//! | stage                    | needs rows        | latency source                |
//! |--------------------------|-------------------|-------------------------------|
//! | horizontal blur (h-row)  | `j` only          | 0 ([`STREAM_BLUR_HALO`] cols) |
//! | vertical blur (smoothed) | h-rows `k ± 3`    | [`STREAM_BLUR_HALO`] = 3      |
//! | FAST scan of row `y`     | raw `y ± 3`       | [`STREAM_FAST_HALO`] = 3      |
//! | Harris score of row `y`  | raw `y ± 4`       | [`STREAM_HARRIS_HALO`] = 4    |
//! | NMS finalize of row `yf` | scores `yf ± 1`   | [`STREAM_NMS_DELAY`] = 1 scan |
//! | moments / descriptor     | smoothed `yc ± 15`| [`STREAM_PATCH_HALO`] = 15    |
//!
//! The Harris halo is the 7×7 block's 3 gradient rows plus the Sobel
//! tap's 1 raw row. A candidate finalized at row `yc` therefore needs
//! raw rows up to `max(yc + max(FAST, HARRIS) + NMS, yc + PATCH + BLUR)
//! = yc +` [`STREAM_LATENCY_ROWS`] (= 18): the FAST/Harris/NMS chain
//! trails the scan by 5 rows while the smoothing/descriptor chain trails
//! it by 18, which is the figure the `eslam-hw` band schedule mirrors
//! stage for stage. The hardware overlaps the two chains in one stream;
//! here each runs in its own pass.
//!
//! # Ring buffers
//!
//! * **Smoothed ring** — [`SMOOTH_RING_ROWS`] (32) logical rows, sized
//!   to the widest consumer window (2 × 15 + 1 = 31 smoothed rows),
//!   stored *mirrored* (64 physical rows: virtual row `v` at slots
//!   `v % 32` and `v % 32 + 32`) so every patch window is one contiguous
//!   block of rows and the interior hot paths of
//!   [`patch_moments`](crate::orientation::patch_moments) and the
//!   compiled descriptor tables run on the ring unchanged.
//! * **H-row ring** — [`HROW_RING_ROWS`] (8) rows of 16-bit horizontal
//!   blur sums, covering the vertical tap window (7) under monotone
//!   advance. Both blur row producers run AVX2-compiled where the CPU
//!   has it ([`eslam_image::filter`]).
//! * **Gradient ring** — [`GRAD_RING_ROWS`] (8) rows of 16-bit Sobel
//!   gradient pairs `(Ix, Iy)`, covering the 7-row Harris block and the
//!   row that leaves it when the block's column sums roll one row down,
//!   plus one row of three 32-bit column sums of the block's gradient
//!   products and one row of their three 32-bit 7-wide box sums
//!   ([`crate::harris`]).
//! * **Score rows** — 3 dense `f64` rows of the level width, one per
//!   row of the 3×3 NMS window (indexed `y % 3`), holding each scored
//!   detection's Harris response at its column and `NEG_INFINITY` in
//!   every other cell. A row is written as it is scored and reset
//!   through its own hit list (the row's x-sorted scored detections)
//!   before its slot is reused three rows later.
//!
//! Blur and gradient work is *lazy*: smoothed rows are produced only
//! when a described candidate needs them, gradient rows only when a
//! detection's block reaches them, and both chains skip ahead over
//! spans nobody reads. Peak extraction working memory is `O(width)` —
//! independent of image height: every band of a level holds its own
//! full-width rings, `64·w` smoothed-ring bytes + `2·8·w` h-row bytes +
//! `2·2·8·w` gradient bytes + `3·4·w` column-sum bytes + `3·4·w` box-sum
//! bytes + `3·8·w` score bytes = `160·w` bytes per band, where a
//! full-frame blur holds a smoothed frame plus a `u16` scratch (`3·w·h`
//! bytes).
//!
//! # 3×3 NMS
//!
//! A hit scoring `s` at column `x` of finalize row `yf` is suppressed
//! when `max(prev[x−1..=x+1], cur[x−1]) ≥ s` or
//! `max(cur[x+1], next[x−1..=x+1]) > s`, over the dense rows `yf − 1`,
//! `yf` and `yf + 1`. A neighbour earlier in raster order wins a tie and
//! a later one must score strictly higher: the `≥`/`>` split is exactly
//! the raster tie rule of [`crate::nms::suppress`]. Empty cells never
//! suppress, because Harris scores are finite (exact integer block sums,
//! [`crate::harris`]) and so exceed `NEG_INFINITY`. Only rows in
//! `[EDGE_MARGIN, h − EDGE_MARGIN)` are finalized, the only rows whose
//! survivors can pass the edge margin; since `EDGE_MARGIN ≥
//! STREAM_FAST_HALO + STREAM_NMS_DELAY`, the row below the last of them
//! is always a scanned row.
//!
//! # Keep bound
//!
//! Between the passes each level gets a cutoff (`level_cutoff`): its
//! N-th best candidate (N = `max_features`, the heap capacity) in
//! [`BestHeap`](crate::heap::BestHeap)'s order — score descending, then
//! raster order — or none when the level has at most N candidates. The
//! description pass handles only the candidates at or above the cutoff,
//! so a level describes `min(M_level, N)` of its `M_level`.
//!
//! The bound is exact. The heap keeps the frame's N best in score order,
//! ties going to the earlier arrival, and candidates arrive level by
//! level in raster order, so within one level the heap's order is the
//! cutoff's order. A candidate with N better ones in its own level has
//! N better ones in the frame and is never kept, and the candidates that
//! are described reach the heap in the same relative order as they would
//! if every candidate were.
//! The cut is per level, never per band, so no count depends on the band
//! split; each detection task pre-selects its own band's N best, so the
//! serial select between the passes sees at most `bands · N` keys per
//! level.
//!
//! # Bit-identity
//!
//! Every stage computes exactly what the scalar reference computes
//! (the band producers of the full-frame blur, the same FAST decision,
//! the same Harris score in exact integer sums, the local NMS rule of
//! [`crate::nms::suppress`], the same interior moments/descriptor
//! paths), candidates are emitted in the reference's raster order per
//! level, and the keep bound drops only candidates the heap never keeps
//! — so keypoints, responses, angles, descriptors *and stats* are
//! bit-identical to [`OrbExtractor::extract_reference`], which describes
//! every candidate and reports the bound's `Σ min(M_level, N)`.
//! `tests/stream_equivalence.rs` proves it across the paper sequences
//! and on inputs where the bound cuts through exact score ties.
//!
//! # Band parallelism
//!
//! The stream is also the unit of parallelism: a level's finalize rows
//! (`[3, h − 3)`) partition into contiguous horizontal *bands*
//! ([`band_partition`]), and each band streams independently through
//! its own ring buffers — the only duplicated work is the halo re-scan
//! above each interior band's first candidate (bounded by
//! [`STREAM_LATENCY_ROWS`], exactly the overlap the paper's accelerator
//! pays between its parallel compute units). Bands finalize their owned
//! rows only, count stats for their owned scan rows only, and emit in
//! raster order, so concatenating band outputs in band order reproduces
//! the single-band emission sequence bit for bit. Each pass runs all
//! `(level, band)` tasks of a frame as one batch on the depth-first
//! schedule ([`depth_first_schedule`]) across the worker pool: heavy
//! level-0 bands dispatch first and the small upper-level bands fill
//! the tail, with no per-level barrier; the level cutoffs are the one
//! barrier between the two batches. One band per level is one task per
//! level and pass, and a 1-thread pool runs the tasks inline. Band
//! count comes from [`BandMode`] in [`OrbConfig`](crate::orb::OrbConfig)
//! (`Auto` = pool threads).

use crate::brief::{compute_descriptor_ring, PatternOffsets};
use crate::descriptor::Descriptor;
use crate::fast::{self, FastDetection};
use crate::harris::{HarrisScorer, BLOCK_HALF};
use crate::nms::ScoredPoint;
use crate::orb::{Keypoint, OrbExtractor, EDGE_MARGIN};
use crate::orientation::patch_moments_ring;
use eslam_image::filter::{blur_hrow_7x7_into, blur_vrow_7x7_into};
use eslam_image::GrayImage;
use std::cmp::Ordering;
use std::ops::Range;

/// Columns of halo the 7-tap blur needs on each side (also its row halo
/// in the vertical pass).
pub const STREAM_BLUR_HALO: u32 = 3;
/// Rows of halo the FAST segment test needs (radius-3 Bresenham circle).
pub const STREAM_FAST_HALO: u32 = 3;
/// Rows of halo the Harris score needs: the 7×7 block's
/// [`BLOCK_HALF`] gradient rows plus the 3×3 Sobel tap's one raw row.
pub const STREAM_HARRIS_HALO: u32 = BLOCK_HALF as u32 + 1;
/// Scan rows the 3×3 NMS trails behind the FAST scan (row `y` finalizes
/// once row `y + 1` is scored).
pub const STREAM_NMS_DELAY: u32 = 1;
/// Rows of halo the orientation/descriptor patch needs (radius 15).
pub const STREAM_PATCH_HALO: u32 = 15;

/// Logical rows of the smoothed line-buffer ring: the widest consumer
/// window is `2 · STREAM_PATCH_HALO + 1 = 31` rows, rounded up to a
/// power of two for cheap slot arithmetic.
pub const SMOOTH_RING_ROWS: u32 = 32;
/// Rows of the horizontal-blur ring: the vertical tap window is
/// `2 · STREAM_BLUR_HALO + 1 = 7` rows, rounded up to a power of two.
pub const HROW_RING_ROWS: u32 = 8;
/// Rows of the Sobel gradient ring: the Harris block spans
/// `2 · BLOCK_HALF + 1 = 7` gradient rows, and rolling its column sums
/// one row down also reads the row leaving it, 8 in all.
pub const GRAD_RING_ROWS: u32 = 8;

/// Raw-row lookahead between a candidate's row and the last raw row its
/// emission touches: the maximum of the detection chain (FAST and
/// Harris side by side, then NMS:
/// `max(STREAM_FAST_HALO, STREAM_HARRIS_HALO) + STREAM_NMS_DELAY`) and
/// the smoothing/descriptor chain (`STREAM_PATCH_HALO +
/// STREAM_BLUR_HALO`).
pub const STREAM_LATENCY_ROWS: u32 = {
    let score_halo = if STREAM_HARRIS_HALO > STREAM_FAST_HALO {
        STREAM_HARRIS_HALO
    } else {
        STREAM_FAST_HALO
    };
    let fast_chain = score_halo + STREAM_NMS_DELAY;
    let descriptor_chain = STREAM_PATCH_HALO + STREAM_BLUR_HALO;
    if descriptor_chain > fast_chain {
        descriptor_chain
    } else {
        fast_chain
    }
};

/// Row-band count selector for the band-parallel streaming pass,
/// carried in [`OrbConfig`](crate::orb::OrbConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BandMode {
    /// One band per worker-pool thread — a single-core host resolves to
    /// one band and never pays the split.
    #[default]
    Auto,
    /// Exactly `n` bands per level (clamped per level by
    /// [`effective_bands`]; `Fixed(0)` is treated as 1).
    Fixed(usize),
}

/// Resolves the requested band count from the configured mode: `Auto`
/// matches the pool's thread count, so the split engages exactly where
/// workers exist to absorb it.
pub(crate) fn resolve_bands(config: BandMode, pool_threads: usize) -> usize {
    match config {
        BandMode::Auto => pool_threads.max(1),
        BandMode::Fixed(n) => n.max(1),
    }
}

/// Clamps a requested band count to what a level can support: every
/// band must own at least one finalize row of the scan range
/// `[3, h − 3)`, so the count degrades to the interior row count —
/// never an empty band — and is always at least 1 (levels too small to
/// scan, `h < 7`, degrade to one no-op band).
pub fn effective_bands(requested: usize, height: u32) -> usize {
    let interior = (height as usize).saturating_sub(6);
    requested.clamp(1, interior.max(1))
}

/// Partitions a level's finalize rows `[3, h − 3)` into
/// [`effective_bands`]`(requested, height)` contiguous bands of
/// near-equal size (the first `interior % bands` bands take one extra
/// row). Empty when the level is too small to scan (`h < 7`).
pub fn band_partition(height: u32, requested: usize) -> Vec<Range<usize>> {
    let h = height as usize;
    if h < 7 {
        return Vec::new();
    }
    let interior = h - 6;
    let bands = effective_bands(requested, height);
    let base = interior / bands;
    let rem = interior % bands;
    let mut out = Vec::with_capacity(bands);
    let mut start = 3usize;
    for b in 0..bands {
        let len = base + usize::from(b < rem);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, h - 3);
    out
}

/// One `(level, band)` task of the depth-first band schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandTask {
    /// Pyramid level index.
    pub level: usize,
    /// Band index within the level's [`band_partition`].
    pub band: usize,
    /// Finalize rows the band owns.
    pub rows: Range<usize>,
    /// Estimated cost (owned rows × level width) steering the order.
    pub cost: u64,
}

/// The depth-first band schedule across a pyramid: every level splits
/// by [`band_partition`], then all `(level, band)` tasks are ordered by
/// descending estimated cost (ties broken by `(level, band)` for
/// determinism). Heavy level-0 bands dispatch first and the small
/// upper-level bands fill the tail, so a worker finishing a level-0
/// band descends straight into the next level instead of idling at a
/// per-level barrier — levels overlap within one frame. The order is a
/// pure scheduling concern: band outputs land in disjoint slots and the
/// merge reads them back in `(level, band)` order, so results are
/// bit-identical under every schedule.
pub fn depth_first_schedule(dims: &[(u32, u32)], requested: usize) -> Vec<BandTask> {
    let mut tasks = Vec::new();
    for (level, &(w, h)) in dims.iter().enumerate() {
        for (band, rows) in band_partition(h, requested).into_iter().enumerate() {
            let cost = rows.len() as u64 * w as u64;
            tasks.push(BandTask {
                level,
                band,
                rows,
                cost,
            });
        }
    }
    tasks.sort_by(|a, b| {
        b.cost
            .cmp(&a.cost)
            .then(a.level.cmp(&b.level))
            .then(a.band.cmp(&b.band))
    });
    tasks
}

/// Per-band state of the two streaming passes: each band owns its own
/// line-buffer rings, detection buffer, candidate and result lists and
/// counters, so bands of one level stream concurrently with no shared
/// mutable state. Held per level inside
/// [`OrbScratch`](crate::orb::OrbScratch) and reused across frames. The
/// rings span the full level width — the per-band halo duplication the
/// working-memory accounting must include.
#[derive(Debug, Default)]
pub(crate) struct BandScratch {
    /// One-row FAST detection buffer.
    detections: Vec<FastDetection>,
    /// Mirrored smoothed ring: `2 · SMOOTH_RING_ROWS` physical rows.
    ring: GrayImage,
    /// Horizontal blur sums: `HROW_RING_ROWS` rows of `u16`.
    hrows: Vec<u16>,
    /// Sobel gradient ring, column sums and box sums of the Harris
    /// scorer.
    harris: HarrisScorer,
    /// Scored detections of the three NMS window rows, indexed `y % 3`,
    /// sorted by x: the hits each dense row is walked and reset through.
    hits: [Vec<ScoredPoint>; 3],
    /// Dense score rows of the NMS window, indexed `y % 3`: the level
    /// width each, `NEG_INFINITY` where a row has no detection.
    scores: [Vec<f64>; 3],
    /// Survivors of NMS + the edge margin on the band's owned rows, in
    /// raster order: the detection pass's output.
    pub(crate) candidates: Vec<ScoredPoint>,
    /// The band's N best candidates in [`heap_order`], unordered, when
    /// it has more than N (empty otherwise).
    best: Vec<ScoredPoint>,
    /// Oriented + described candidates within the keep bound, in raster
    /// order: the description pass's output.
    pub(crate) results: Vec<(Keypoint, Descriptor)>,
    /// Raw FAST detections on the band's owned scan rows (halo rows are
    /// scanned by two bands but counted by their owner only).
    pub(crate) fast_count: usize,
}

impl BandScratch {
    /// Bytes currently held by the band's line buffers (diagnostic;
    /// constant in image height for a fixed width).
    pub(crate) fn working_bytes(&self) -> usize {
        self.ring.as_raw().len()
            + 2 * self.hrows.len()
            + self.harris.working_bytes()
            + std::mem::size_of::<f64>() * self.scores.iter().map(Vec::len).sum::<usize>()
    }

    /// The band's `min(N, M_band)` best candidates, unordered: every
    /// candidate of the band among its level's N best is in here.
    fn best(&self) -> &[ScoredPoint] {
        if self.best.is_empty() {
            &self.candidates
        } else {
            &self.best
        }
    }
}

/// [`BestHeap`](crate::heap::BestHeap)'s order on one level's
/// candidates, best first: score descending, then raster order (the
/// arrival order the heap breaks ties by). Adding `0.0` folds −0.0 into
/// +0.0, so `total_cmp` orders the finite scores exactly as the heap's
/// `partial_cmp` does; its integer compares select ~2.5× faster.
fn heap_order(a: &ScoredPoint, b: &ScoredPoint) -> Ordering {
    (b.score + 0.0)
        .total_cmp(&(a.score + 0.0))
        .then((a.y, a.x).cmp(&(b.y, b.x)))
}

/// Whether `p` ranks at or above `cut` in [`heap_order`]: the keep
/// bound's test.
#[inline]
fn at_or_above(p: &ScoredPoint, cut: &ScoredPoint) -> bool {
    p.score > cut.score || (p.score == cut.score && (p.y, p.x) <= (cut.y, cut.x))
}

/// The keep bound of one level, between the two passes: the level's
/// `n`-th best candidate in [`heap_order`], or `None` when its bands
/// hold at most `n` candidates. Selects over the bands' own best lists;
/// `keys` is scratch.
pub(crate) fn level_cutoff(
    bands: &[BandScratch],
    n: usize,
    keys: &mut Vec<ScoredPoint>,
) -> Option<ScoredPoint> {
    if bands.iter().map(|bs| bs.candidates.len()).sum::<usize>() <= n {
        return None;
    }
    keys.clear();
    for bs in bands {
        keys.extend_from_slice(bs.best());
    }
    Some(*keys.select_nth_unstable_by(n - 1, heap_order).1)
}

// The last finalized row is `h − EDGE_MARGIN − 1`. Its NMS window needs
// row `h − EDGE_MARGIN` scored, and the scan stops above row
// `h − STREAM_FAST_HALO`.
const _: () = assert!(EDGE_MARGIN >= STREAM_FAST_HALO + STREAM_NMS_DELAY);

/// The 3×3 NMS rule of [`crate::nms::suppress`] on dense score rows
/// (`NEG_INFINITY` where no detection): the hit scoring `s` at column
/// `x` of `cur` survives unless a neighbour earlier in raster order (the
/// row above, or the left neighbour) scores at least `s`, or a later one
/// (the right neighbour, or the row below) scores more than `s`. `x`
/// needs a column on each side, and `s` must be finite.
#[inline]
fn nms_survives(prev: &[f64], cur: &[f64], next: &[f64], x: usize, s: f64) -> bool {
    let (prev, cur, next) = (&prev[x - 1..x + 2], &cur[x - 1..x + 2], &next[x - 1..x + 2]);
    let earlier = (prev[0] >= s) | (prev[1] >= s) | (prev[2] >= s) | (cur[0] >= s);
    let later = (cur[2] > s) | (next[0] > s) | (next[1] > s) | (next[2] > s);
    !(earlier | later)
}

/// Per-band state of the description pass: advances the lazy smoothing
/// chain and emits the oriented, described candidates.
struct StreamLevel<'a> {
    ex: &'a OrbExtractor,
    img: &'a GrayImage,
    level: usize,
    scale: f64,
    w: usize,
    h: usize,
    ring: &'a mut GrayImage,
    hrows: &'a mut [u16],
    offsets: Option<&'a PatternOffsets>,
    results: &'a mut Vec<(Keypoint, Descriptor)>,
    /// Next raw row to run the horizontal blur on.
    h_next: usize,
    /// Next smoothed row to produce into the ring.
    smooth_next: usize,
}

impl StreamLevel<'_> {
    /// Orients and describes one candidate off the ring.
    fn emit(&mut self, p: &ScoredPoint) {
        let yc = p.y as usize;
        let halo = STREAM_PATCH_HALO as usize;
        // The edge margin guarantees yc ± 15 stay inside the image.
        self.ensure_smoothed(yc - halo, yc + halo);
        let moments = patch_moments_ring(self.ring, p.x, p.y, SMOOTH_RING_ROWS);
        let kp = self
            .ex
            .orient_from_moments(moments, p, self.level, self.scale);
        let desc = if let Some(table) = self.offsets {
            compute_descriptor_ring(self.ring, p.x, p.y, SMOOTH_RING_ROWS, table).steer(kp.label)
        } else {
            let slot = (p.y - STREAM_PATCH_HALO) % SMOOTH_RING_ROWS + STREAM_PATCH_HALO;
            self.ex.describe(self.ring, p.x, slot, kp.label, kp.angle)
        };
        self.results.push((kp, desc));
    }

    /// Advances the lazy blur chain until smoothed rows `..= upto` are
    /// in the ring. `lo` is the first row the caller will read: when the
    /// chain is further back than that (a candidate-free span), it jumps
    /// ahead instead of smoothing rows nobody looks at.
    fn ensure_smoothed(&mut self, lo: usize, upto: usize) {
        if self.smooth_next < lo {
            self.smooth_next = lo;
        }
        debug_assert!(upto < self.h);
        let w = self.w;
        let data = self.img.as_raw();
        let hrow_rows = HROW_RING_ROWS as usize;
        let ring_rows = SMOOTH_RING_ROWS as usize;
        let halo = STREAM_BLUR_HALO as usize;
        while self.smooth_next <= upto {
            let k = self.smooth_next;
            // Horizontal pass for the raw rows the vertical tap touches
            // (clamped at the image borders like the full-frame pass).
            let need_lo = k.saturating_sub(halo);
            let need_hi = (k + halo).min(self.h - 1);
            if self.h_next < need_lo {
                self.h_next = need_lo;
            }
            while self.h_next <= need_hi {
                let j = self.h_next;
                blur_hrow_7x7_into(
                    &data[j * w..(j + 1) * w],
                    &mut self.hrows[(j % hrow_rows) * w..][..w],
                );
                self.h_next += 1;
            }
            // Vertical combine into the ring slot, then its mirror.
            let taps: [&[u16]; 7] = std::array::from_fn(|i| {
                let sy = (k as i64 + i as i64 - halo as i64).clamp(0, self.h as i64 - 1) as usize;
                &self.hrows[(sy % hrow_rows) * w..][..w]
            });
            let slot = k % ring_rows;
            let ring_data = self.ring.as_raw_mut();
            blur_vrow_7x7_into(&taps, &mut ring_data[slot * w..][..w]);
            let (low, high) = ring_data.split_at_mut(ring_rows * w);
            high[slot * w..][..w].copy_from_slice(&low[slot * w..][..w]);
            self.smooth_next = k + 1;
        }
    }
}

/// The detection pass of one row band of a level — the task body of the
/// first batch. One scan over the band's rows drives FAST + Harris into
/// the dense score rows and the 3×3 NMS one row behind, and collects the
/// survivors clear of the edge margin into `bs.candidates` in raster
/// order. When the band has more than `max_features` (N) candidates, it
/// then pre-selects its N best for [`level_cutoff`].
///
/// The `owned` rows inside `[EDGE_MARGIN, h − EDGE_MARGIN)` are
/// finalized, so only the rows from one above the first finalized row
/// to one below the last are Harris-scored: the rows their NMS windows
/// read. FAST scans those rows and every owned row, so the hit count is
/// exact; halo rows that are neither owned nor scored are not scanned.
/// Stats count owned rows only, so per-band sums equal the single-band
/// totals, and concatenating band candidates in band order reproduces
/// the single-band sequence exactly — the partition is invisible in the
/// results.
pub(crate) fn detect_band(
    ex: &OrbExtractor,
    img: &GrayImage,
    bs: &mut BandScratch,
    owned: Range<usize>,
) {
    let BandScratch {
        detections,
        ring,
        hrows,
        harris,
        hits,
        scores,
        candidates,
        best,
        fast_count,
        ..
    } = bs;
    candidates.clear();
    best.clear();
    *fast_count = 0;
    let w = img.width() as usize;
    let h = img.height() as usize;
    if w < 7 || h < 7 || owned.is_empty() {
        return;
    }
    debug_assert!(owned.start >= 3 && owned.end <= h - 3);
    // The description pass's rings, sized with the detection buffers so
    // every streamed band holds the same line-buffer set.
    ring.reshape(img.width(), 2 * SMOOTH_RING_ROWS);
    hrows.resize(HROW_RING_ROWS as usize * w, 0);
    // Every score cell starts empty, whatever width or image the band
    // scratch streamed before.
    for (row, dense) in hits.iter_mut().zip(scores.iter_mut()) {
        row.clear();
        dense.clear();
        dense.resize(w, f64::NEG_INFINITY);
    }
    let mut scorer = harris.stream(img);
    let threshold = ex.config().fast_threshold;

    let margin = EDGE_MARGIN as usize;
    let finalize = owned.start.max(margin)..owned.end.min(h.saturating_sub(margin));
    // The static assert above `nms_survives` keeps `scored` inside
    // `[3, h − 3)`.
    let scored = if finalize.is_empty() {
        0..0
    } else {
        finalize.start - 1..finalize.end + 1
    };
    let scan = if scored.is_empty() {
        owned.clone()
    } else {
        owned.start.min(scored.start)..owned.end.max(scored.end)
    };
    for y in scan {
        detections.clear();
        fast::detect_band_into(img, threshold, y as u32..y as u32 + 1, detections);
        if owned.contains(&y) {
            *fast_count += detections.len();
        }
        if !scored.contains(&y) {
            continue;
        }
        // Slot `y % 3` last held row `y − 3`: clear its cells through its
        // hits, then score row `y` into it.
        let (row, dense) = (&mut hits[y % 3], &mut scores[y % 3]);
        for p in row.iter() {
            dense[p.x as usize] = f64::NEG_INFINITY;
        }
        row.clear();
        scorer.score_row(detections, row);
        for p in row.iter() {
            debug_assert!(
                p.score.is_finite(),
                "the empty-cell sentinel needs finite scores"
            );
            dense[p.x as usize] = p.score;
        }
        // Row `y − 1` has its neighbours above and below scored now:
        // its survivors clear of the margin columns join the candidates
        // in x order — the raster order `nms::suppress` + margin
        // filtering produce.
        if finalize.contains(&(y - 1)) {
            let yf = y - 1;
            let (prev, cur, next) = (&scores[(yf + 2) % 3], &scores[yf % 3], &scores[y % 3]);
            for p in &hits[yf % 3] {
                let x = p.x as usize;
                if x >= margin && x + margin < w && nms_survives(prev, cur, next, x, p.score) {
                    candidates.push(*p);
                }
            }
        }
    }
    let n = ex.config().max_features;
    if candidates.len() > n {
        best.extend_from_slice(candidates);
        best.select_nth_unstable_by(n - 1, heap_order);
        best.truncate(n);
    }
}

/// The description pass of one row band — the task body of the second
/// batch. Per candidate at or above the level's `cutoff` (every
/// candidate when `None`), in raster order: lazy blur, moments,
/// orientation and descriptor off the ring buffers. `offsets` must
/// already be prepared by the caller (the table is shared read-only
/// across a level's bands).
///
/// The lazy blur chain independently re-produces up to
/// [`STREAM_LATENCY_ROWS`] raw rows above the band's first described
/// candidate — the duplicated halo work that buys band independence.
pub(crate) fn describe_band(
    ex: &OrbExtractor,
    img: &GrayImage,
    level: usize,
    scale: f64,
    offsets: Option<&PatternOffsets>,
    bs: &mut BandScratch,
    cutoff: Option<ScoredPoint>,
) {
    let BandScratch {
        ring,
        hrows,
        candidates,
        results,
        ..
    } = bs;
    results.clear();
    let mut st = StreamLevel {
        ex,
        img,
        level,
        scale,
        w: img.width() as usize,
        h: img.height() as usize,
        ring,
        hrows,
        offsets,
        results,
        h_next: 0,
        smooth_next: 0,
    };
    for p in candidates.iter() {
        if cutoff.is_none_or(|cut| at_or_above(p, &cut)) {
            st.emit(p);
        }
    }
}

/// Re-exported consistency hook for `eslam-hw`: `(halo rows carried per
/// stage, total raw-row latency)` — the numbers the hardware model's
/// band schedule must mirror.
pub fn latency_schedule() -> ([(&'static str, u32); 5], u32) {
    (
        [
            ("blur", STREAM_BLUR_HALO),
            ("fast", STREAM_FAST_HALO),
            ("harris", STREAM_HARRIS_HALO),
            ("nms", STREAM_NMS_DELAY),
            ("patch", STREAM_PATCH_HALO),
        ],
        STREAM_LATENCY_ROWS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orb::{DescriptorKind, ExtractionStats, OrbConfig, OrbScratch};
    use eslam_image::pyramid::ImagePyramid;

    fn test_image(w: u32, h: u32, seed: u64) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let base = if ((x / 12) + (y / 12)) % 2 == 0 {
                50
            } else {
                190
            };
            base + ((x as u64 * 31 + y as u64 * 17 + seed * 1009) % 23) as u8
        })
    }

    #[test]
    fn latency_is_descriptor_chain_bound() {
        assert_eq!(STREAM_LATENCY_ROWS, 18);
        assert_eq!(STREAM_HARRIS_HALO, 4);
        const { assert!(STREAM_LATENCY_ROWS >= STREAM_FAST_HALO + STREAM_NMS_DELAY) };
        const { assert!(STREAM_LATENCY_ROWS >= STREAM_HARRIS_HALO + STREAM_NMS_DELAY) };
        assert_eq!(STREAM_LATENCY_ROWS, STREAM_PATCH_HALO + STREAM_BLUR_HALO);
        // The rings hold their widest consumer window.
        const { assert!(SMOOTH_RING_ROWS > 2 * STREAM_PATCH_HALO) };
        const { assert!(HROW_RING_ROWS > 2 * STREAM_BLUR_HALO) };
        const { assert!(GRAD_RING_ROWS as i64 >= 2 * BLOCK_HALF + 2) };
    }

    #[test]
    fn band_count_resolution_prefers_config_then_pool() {
        assert_eq!(BandMode::default(), BandMode::Auto);
        assert_eq!(resolve_bands(BandMode::Fixed(4), 1), 4);
        assert_eq!(resolve_bands(BandMode::Fixed(0), 8), 1);
        assert_eq!(resolve_bands(BandMode::Auto, 1), 1);
        assert_eq!(resolve_bands(BandMode::Auto, 6), 6);
        assert_eq!(resolve_bands(BandMode::Auto, 0), 1);
    }

    #[test]
    fn band_partition_covers_the_finalize_rows_exactly() {
        for h in [7u32, 8, 10, 19, 37, 96, 100, 480, 481] {
            for requested in [1usize, 2, 3, 4, 7, 16, 1000] {
                let parts = band_partition(h, requested);
                let interior = h as usize - 6;
                assert_eq!(
                    parts.len(),
                    effective_bands(requested, h),
                    "{h} {requested}"
                );
                assert!(parts.len() <= interior);
                // Contiguous cover of [3, h - 3), every band non-empty,
                // sizes within one row of each other.
                let mut next = 3usize;
                let (mut min_len, mut max_len) = (usize::MAX, 0);
                for band in &parts {
                    assert_eq!(band.start, next, "{h} {requested}");
                    assert!(!band.is_empty(), "{h} {requested}");
                    min_len = min_len.min(band.len());
                    max_len = max_len.max(band.len());
                    next = band.end;
                }
                assert_eq!(next, h as usize - 3, "{h} {requested}");
                assert!(max_len - min_len <= 1, "{h} {requested}");
            }
        }
    }

    #[test]
    fn band_clamp_degrades_never_empties() {
        // Levels too small to scan yield one (no-op) band and an empty
        // partition; tiny-but-scannable levels degrade the count.
        for h in [0u32, 1, 3, 6] {
            assert_eq!(effective_bands(4, h), 1, "h={h}");
            assert!(band_partition(h, 4).is_empty(), "h={h}");
        }
        assert_eq!(effective_bands(1000, 10), 4); // interior rows = 4
        assert_eq!(effective_bands(0, 480), 1);
        assert_eq!(effective_bands(4, 480), 4);
    }

    #[test]
    fn depth_first_schedule_interleaves_levels_by_cost() {
        // A VGA-ish 3-level pyramid, 2 bands: level-0 bands lead, the
        // small upper-level bands fill the tail, every (level, band)
        // task appears exactly once.
        let dims = [(640u32, 480u32), (320, 240), (160, 120)];
        let tasks = depth_first_schedule(&dims, 2);
        assert_eq!(tasks.len(), 6);
        assert_eq!((tasks[0].level, tasks[0].band), (0, 0));
        assert_eq!((tasks[1].level, tasks[1].band), (0, 1));
        assert_eq!(tasks.last().unwrap().level, 2);
        for pair in tasks.windows(2) {
            assert!(pair[0].cost >= pair[1].cost);
        }
        let mut seen: Vec<(usize, usize)> = tasks.iter().map(|t| (t.level, t.band)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        // The rows in the schedule are the level partitions verbatim.
        for t in &tasks {
            assert_eq!(t.rows, band_partition(dims[t.level].1, 2)[t.band]);
        }
    }

    #[test]
    fn band_split_matches_single_band_across_counts_and_sizes() {
        // The tentpole identity at unit scale: Fixed(n) splits must be
        // invisible in the output (features AND stats) for every band
        // count, including counts past the interior-row clamp.
        let reference = OrbExtractor::new(OrbConfig::default());
        for (w, h) in [(64u32, 64u32), (200, 150), (40, 400), (97, 83)] {
            let img = test_image(w, h, 21);
            let oracle = reference.extract_reference(&img);
            for bands in [1usize, 2, 3, 4, 7, 64, 500] {
                let e = OrbExtractor::new(OrbConfig {
                    bands: BandMode::Fixed(bands),
                    ..Default::default()
                });
                let split = e.extract_with(&img, &mut OrbScratch::default());
                assert_eq!(split, oracle, "{w}x{h} bands={bands}");
            }
        }
    }

    mod band_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            // Degenerate sizes down to 0×0 must degrade the band count,
            // never panic or drift from the scalar reference.
            #[test]
            fn banded_stream_matches_reference_on_degenerate_sizes(
                w in 0u32..40, h in 0u32..40, bands in 1usize..10, seed in 0u64..1000,
            ) {
                let img = test_image(w, h, seed);
                let e = OrbExtractor::new(OrbConfig {
                    bands: BandMode::Fixed(bands),
                    ..Default::default()
                });
                let split = e.extract_with(&img, &mut OrbScratch::default());
                prop_assert_eq!(split, e.extract_reference(&img));
            }

            #[test]
            fn band_partition_is_total_and_exact(h in 0u32..2000, requested in 0usize..4000) {
                let parts = band_partition(h, requested.max(1));
                if h < 7 {
                    prop_assert!(parts.is_empty());
                } else {
                    prop_assert_eq!(parts.len(), effective_bands(requested.max(1), h));
                    let mut next = 3usize;
                    for band in &parts {
                        prop_assert_eq!(band.start, next);
                        prop_assert!(!band.is_empty());
                        next = band.end;
                    }
                    prop_assert_eq!(next, h as usize - 3);
                }
            }
        }
    }

    #[test]
    fn band_split_scratch_reuse_is_equivalent() {
        // Reused band scratches across frames and geometry changes —
        // including a band-count change on the same scratch.
        let mut scratch = OrbScratch::default();
        for (frame, bands) in [(0u64, 4usize), (1, 4), (2, 2), (3, 5)] {
            let e = OrbExtractor::new(OrbConfig {
                bands: BandMode::Fixed(bands),
                ..Default::default()
            });
            let img = test_image(160, 120, frame);
            let reused = e.extract_with(&img, &mut scratch);
            assert_eq!(
                reused,
                e.extract_reference(&img),
                "frame {frame} bands {bands}"
            );
        }
        let small = test_image(96, 80, 9);
        let e = OrbExtractor::new(OrbConfig {
            bands: BandMode::Fixed(3),
            ..Default::default()
        });
        assert_eq!(
            e.extract_with(&small, &mut scratch),
            e.extract_reference(&small)
        );
    }

    #[test]
    fn stream_matches_reference_across_kinds_and_sizes() {
        for kind in [DescriptorKind::RsBrief, DescriptorKind::OriginalLut] {
            let e = OrbExtractor::new(OrbConfig {
                descriptor: kind,
                max_features: 200,
                ..Default::default()
            });
            for (w, h) in [(200u32, 150u32), (64, 64), (40, 400), (400, 40)] {
                let img = test_image(w, h, kind as u64);
                let stream = e.extract_with(&img, &mut OrbScratch::default());
                assert_eq!(stream, e.extract_reference(&img), "{kind:?} {w}x{h}");
            }
        }
    }

    #[test]
    fn stream_handles_degenerate_sizes() {
        let e = OrbExtractor::new(OrbConfig::default());
        for (w, h) in [
            (0u32, 0u32),
            (0, 40),
            (40, 0),
            (1, 1),
            (6, 6),
            (8, 40),
            (40, 8),
            (17, 19),
            (33, 33),
        ] {
            let img = test_image(w, h, 7);
            let stream = e.extract_with(&img, &mut OrbScratch::default());
            assert_eq!(stream, e.extract_reference(&img), "{w}x{h}");
            if w == 0 || h == 0 {
                assert!(stream.is_empty(), "{w}x{h}");
                assert_eq!(stream.stats, ExtractionStats::default(), "{w}x{h}");
            }
        }
    }

    #[test]
    fn stream_scratch_reuse_is_equivalent() {
        let e = OrbExtractor::new(OrbConfig::default());
        let mut scratch = OrbScratch::default();
        for seed in 0..3u64 {
            let img = test_image(160, 120, seed);
            let reused = e.extract_with(&img, &mut scratch);
            let fresh = e.extract_with(&img, &mut OrbScratch::default());
            assert_eq!(reused, fresh, "frame {seed}");
        }
        // Geometry change mid-stream.
        let small = test_image(96, 80, 9);
        assert_eq!(
            e.extract_with(&small, &mut scratch),
            e.extract_reference(&small)
        );
    }

    #[test]
    fn working_memory_is_independent_of_image_height() {
        let e = OrbExtractor::new(OrbConfig {
            bands: BandMode::Fixed(1),
            ..Default::default()
        });
        let mut short = OrbScratch::default();
        let mut tall = OrbScratch::default();
        let short_img = test_image(128, 96, 0);
        e.extract_with(&short_img, &mut short);
        e.extract_with(&test_image(128, 768, 0), &mut tall);
        let bytes = short.stream_working_bytes();
        assert_eq!(
            bytes,
            tall.stream_working_bytes(),
            "line-buffer memory must not scale with height"
        );
        // The single band of every level holds exactly the module docs'
        // 160·w bytes.
        let widths: usize = ImagePyramid::build(&short_img, &e.config().pyramid)
            .iter()
            .map(|(_, level)| level.width() as usize)
            .sum();
        assert_eq!(bytes, 160 * widths);
    }

    mod nms_props {
        use super::*;
        use crate::nms::suppress;
        use proptest::prelude::*;

        /// Window width; the middle row's hits sit in `1..NMS_W - 1`.
        const NMS_W: usize = 8;
        /// Cell values: a few scores (ties are common, one is negative)
        /// and, for the rest of the range, no detection.
        const ALPHABET: [f64; 4] = [-1.0, 0.0, 0.5, 1.0];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn dense_window_rule_matches_suppress(
                cells in proptest::collection::vec(0usize..8, 3 * NMS_W..3 * NMS_W + 1),
            ) {
                let mut rows = [[f64::NEG_INFINITY; NMS_W]; 3];
                let mut points = Vec::new();
                for (i, &c) in cells.iter().enumerate() {
                    if let Some(&score) = ALPHABET.get(c) {
                        let (x, y) = (i % NMS_W, i / NMS_W);
                        rows[y][x] = score;
                        points.push(ScoredPoint { x: x as u32, y: y as u32, score });
                    }
                }
                let kept = suppress(&points);
                for p in points.iter().filter(|p| p.y == 1) {
                    let x = p.x as usize;
                    if x == 0 || x == NMS_W - 1 {
                        continue;
                    }
                    prop_assert_eq!(
                        nms_survives(&rows[0], &rows[1], &rows[2], x, p.score),
                        kept.contains(p),
                        "hit at column {} of {:?}",
                        x,
                        rows
                    );
                }
            }
        }
    }

    mod keep_bound_props {
        use super::*;
        use proptest::prelude::*;

        /// Scores with exact ties, signed zeros among them; positions on
        /// a 3×3 grid so raster ties between distinct points are common
        /// too.
        const SCORES: [f64; 4] = [-1.0, -0.0, 0.0, 2.5];

        proptest! {
            #[test]
            fn keep_test_is_the_heap_order(
                (ax, ay, a) in (0u32..3, 0u32..3, 0usize..4),
                (bx, by, b) in (0u32..3, 0u32..3, 0usize..4),
            ) {
                let p = ScoredPoint { x: ax, y: ay, score: SCORES[a] };
                let cut = ScoredPoint { x: bx, y: by, score: SCORES[b] };
                prop_assert_eq!(at_or_above(&p, &cut), heap_order(&p, &cut).is_le());
            }
        }
    }
}
