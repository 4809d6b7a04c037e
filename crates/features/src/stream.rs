//! Fused single-pass streaming extraction front-end.
//!
//! The paper's accelerator (§3, Fig. 4) never materializes intermediate
//! images: each pyramid level streams row by row through line buffers,
//! and smoothing, FAST, scoring, NMS, orientation and the descriptor
//! sampler all tap the stream at fixed latencies. This module is the
//! software mirror of that dataflow — one pass over each level, tiling
//! the image through L1/L2 once, with a small ring of line buffers
//! carrying the halo rows between stages. It is the extractor's only
//! production path; the sequential scalar
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
//! stage for stage.
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
//!   advance.
//! * **Gradient ring** — [`GRAD_RING_ROWS`] (8) rows of 16-bit Sobel
//!   gradient pairs `(Ix, Iy)`, covering the 7-row Harris block, plus
//!   one row of three 32-bit column sums of the block's gradient
//!   products ([`crate::harris`]).
//! * **Score rows** — 3 rotating rows of scored detections for the 3×3
//!   NMS window.
//!
//! Blur and gradient work is *lazy*: smoothed rows are produced only
//! when a surviving candidate needs them, gradient rows only when a
//! detection's block reaches them, and both chains skip ahead over
//! spans nobody reads. Peak extraction working memory is `O(width)` —
//! independent of image height: every band of a level holds its own
//! full-width rings, `64·w` smoothed-ring bytes + `2·8·w` h-row bytes +
//! `2·2·8·w` gradient bytes + `3·4·w` column-sum bytes = `124·w` bytes
//! per band, where a full-frame blur holds a smoothed frame plus a `u16`
//! scratch (`3·w·h` bytes).
//!
//! # Bit-identity
//!
//! Every stage computes exactly what the scalar reference computes
//! (the band producers of the full-frame blur, the same FAST decision,
//! the same Harris score in exact integer sums, the local NMS rule of
//! [`crate::nms::suppress`], the same interior moments/descriptor
//! paths), candidates are emitted in the reference's raster order per
//! level, and the heap sees them in the same order — so keypoints,
//! responses, angles, descriptors *and stats* are bit-identical to
//! [`OrbExtractor::extract_reference`]. `tests/stream_equivalence.rs`
//! proves it across the paper sequences.
//!
//! Under [`Workflow::Original`] the bands detect and orient only; the
//! extractor describes the N features its heap keeps afterwards, off
//! full smoothed levels, so exactly N descriptors are computed.
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
//! the single-band emission sequence bit for bit. All `(level, band)`
//! tasks of a frame run on one depth-first schedule
//! ([`depth_first_schedule`]) across the worker pool: heavy level-0
//! bands dispatch first and the small upper-level bands fill the tail,
//! with no per-level barrier. One band per level is one task per level,
//! and a 1-thread pool runs the tasks inline. Band count comes from
//! [`BandMode`] in [`OrbConfig`](crate::orb::OrbConfig) (`Auto` = pool
//! threads), overridable per process via [`BANDS_ENV`].

use crate::brief::{compute_descriptor_ring, PatternOffsets};
use crate::descriptor::Descriptor;
use crate::envopt;
use crate::fast::{self, FastDetection};
use crate::harris::{HarrisScorer, BLOCK_HALF};
use crate::nms::ScoredPoint;
use crate::orb::{Keypoint, OrbExtractor, Workflow, EDGE_MARGIN};
use crate::orientation::patch_moments_ring;
use eslam_image::filter::{blur_hrow_7x7_into, blur_vrow_7x7_into};
use eslam_image::GrayImage;
use std::ops::Range;
use std::sync::OnceLock;

/// Environment override forcing the per-level row-band count of the
/// band-parallel streaming pass; `auto` (or unset/empty) defers to
/// [`BandMode`] in the config, a positive integer forces that many
/// bands (see `eslam_core::overrides`).
pub const BANDS_ENV: &str = "ESLAM_BANDS";

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
/// `2 · BLOCK_HALF + 1 = 7` gradient rows, rounded up to a power of two.
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
/// carried in [`OrbConfig`](crate::orb::OrbConfig) and overridable per
/// process via [`BANDS_ENV`].
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

impl BandMode {
    /// Parses a lowercased override value: `auto`, or a positive band
    /// count; `None` for anything else (including `0`).
    pub fn parse(value: &str) -> Option<BandMode> {
        if value == "auto" {
            return Some(BandMode::Auto);
        }
        value
            .parse::<usize>()
            .ok()
            .filter(|n| *n >= 1)
            .map(BandMode::Fixed)
    }
}

impl std::fmt::Display for BandMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BandMode::Auto => f.write_str("auto"),
            BandMode::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// The process-wide forced band count, read once. Typos (anything that
/// is not `auto` or a positive integer) hard-error via
/// [`envopt::forced`]; `auto` (or unset/empty) forces nothing.
pub(crate) fn forced_bands() -> Option<usize> {
    static FORCED: OnceLock<Option<usize>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        envopt::forced(BANDS_ENV, "auto or a positive band count", |v| {
            v.parse::<usize>().ok().filter(|n| *n >= 1)
        })
    })
}

/// Resolves the requested band count: the forced env value wins over
/// the configured mode; `Auto` matches the pool's thread count, so the
/// split engages exactly where workers exist to absorb it.
pub(crate) fn resolve_bands(config: BandMode, pool_threads: usize) -> usize {
    match forced_bands() {
        Some(n) => n,
        None => match config {
            BandMode::Auto => pool_threads.max(1),
            BandMode::Fixed(n) => n.max(1),
        },
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

/// Per-band state of the streaming pass: each band owns its own
/// line-buffer rings, detection buffer, result lists and counters, so
/// bands of one level stream concurrently with no shared mutable state.
/// Held per level inside [`OrbScratch`](crate::orb::OrbScratch) and
/// reused across frames. The rings span the full level width — the
/// per-band halo duplication the working-memory accounting must
/// include.
#[derive(Debug, Default)]
pub(crate) struct BandScratch {
    /// One-row FAST detection buffer.
    detections: Vec<FastDetection>,
    /// Mirrored smoothed ring: `2 · SMOOTH_RING_ROWS` physical rows.
    ring: GrayImage,
    /// Horizontal blur sums: `HROW_RING_ROWS` rows of `u16`.
    hrows: Vec<u16>,
    /// Sobel gradient ring and column sums of the Harris scorer.
    harris: HarrisScorer,
    /// Scored detections of the three NMS window rows, indexed `y % 3`.
    rows: [Vec<ScoredPoint>; 3],
    /// Oriented + described survivors of the band's owned rows, in
    /// raster order ([`Workflow::Rescheduled`]).
    pub(crate) results: Vec<(Keypoint, Descriptor)>,
    /// Oriented survivors of the band's owned rows, in raster order
    /// ([`Workflow::Original`], which describes after filtering).
    pub(crate) keypoints: Vec<Keypoint>,
    /// Raw FAST detections on the band's owned scan rows (halo rows are
    /// scanned by two bands but counted by their owner only).
    pub(crate) fast_count: usize,
    /// Survivors of NMS + the edge margin on the band's owned rows.
    pub(crate) cand_count: usize,
}

impl BandScratch {
    /// Bytes currently held by the band's line buffers (diagnostic;
    /// constant in image height for a fixed width).
    pub(crate) fn working_bytes(&self) -> usize {
        self.ring.as_raw().len() + 2 * self.hrows.len() + self.harris.working_bytes()
    }
}

/// `q` suppresses `p` under the 3×3 NMS rule of
/// [`crate::nms::suppress`]: strictly higher score, or an equal score at
/// an earlier raster position.
#[inline]
fn beats(q: &ScoredPoint, p: &ScoredPoint) -> bool {
    q.score > p.score || (q.score == p.score && (q.y, q.x) < (p.y, p.x))
}

/// The detections of `row` (sorted by x) within `[x − 1, x + 1]`.
#[inline]
fn row_neighbors(row: &[ScoredPoint], x: u32) -> &[ScoredPoint] {
    let lo = x.saturating_sub(1);
    let from = row.partition_point(|q| q.x < lo);
    let to = from + row[from..].partition_point(|q| q.x <= x + 1);
    &row[from..to]
}

/// The three score rows forming the NMS window around finalize row `yf`
/// (`yf − 1`, `yf`, `yf + 1` at slots `(yf + 2) % 3`, `yf % 3`,
/// `(yf + 1) % 3`).
fn nms_window(rows: &[Vec<ScoredPoint>; 3], yf: usize) -> (&[ScoredPoint], &[ScoredPoint]) {
    (&rows[(yf + 2) % 3], &rows[yf % 3])
}

/// Per-level state of the streaming pass that advances the lazy
/// smoothing chain and emits finished candidates.
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
    keypoints: &'a mut Vec<Keypoint>,
    cand_count: &'a mut usize,
    /// Next raw row to run the horizontal blur on.
    h_next: usize,
    /// Next smoothed row to produce into the ring.
    smooth_next: usize,
}

impl StreamLevel<'_> {
    /// Finalizes NMS for row `yf` and emits every survivor behind the
    /// edge margin, in x order — the raster order
    /// [`crate::nms::suppress`] + margin filtering produce.
    fn finalize_row(&mut self, prev: &[ScoredPoint], cur: &[ScoredPoint], next: &[ScoredPoint]) {
        'candidate: for (i, p) in cur.iter().enumerate() {
            // In-row neighbours are adjacent in the sorted row.
            if i > 0 {
                let q = &cur[i - 1];
                if q.x + 1 == p.x && beats(q, p) {
                    continue 'candidate;
                }
            }
            if let Some(q) = cur.get(i + 1) {
                if q.x == p.x + 1 && beats(q, p) {
                    continue 'candidate;
                }
            }
            for q in row_neighbors(prev, p.x) {
                if beats(q, p) {
                    continue 'candidate;
                }
            }
            for q in row_neighbors(next, p.x) {
                if beats(q, p) {
                    continue 'candidate;
                }
            }
            if p.x < EDGE_MARGIN
                || p.y < EDGE_MARGIN
                || p.x + EDGE_MARGIN >= self.img.width()
                || p.y + EDGE_MARGIN >= self.img.height()
            {
                continue 'candidate;
            }
            *self.cand_count += 1;
            self.emit(p);
        }
    }

    /// Orients one surviving candidate off the ring and, under
    /// [`Workflow::Rescheduled`], describes it there too.
    fn emit(&mut self, p: &ScoredPoint) {
        let yc = p.y as usize;
        let halo = STREAM_PATCH_HALO as usize;
        // The edge margin guarantees yc ± 15 stay inside the image.
        self.ensure_smoothed(yc - halo, yc + halo);
        let moments = patch_moments_ring(self.ring, p.x, p.y, SMOOTH_RING_ROWS);
        let kp = self
            .ex
            .orient_from_moments(moments, p, self.level, self.scale);
        if self.ex.config().workflow == Workflow::Original {
            self.keypoints.push(kp);
            return;
        }
        let desc = if let Some(table) = self.offsets {
            compute_descriptor_ring(self.ring, p.x, p.y, SMOOTH_RING_ROWS, table).steer(kp.label)
        } else {
            let slot = (p.y - STREAM_PATCH_HALO) % SMOOTH_RING_ROWS + STREAM_PATCH_HALO;
            self.ex
                .describe_at(self.ring, p.x, slot, kp.label, kp.angle, None)
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

/// Streams one row band of a level into its [`BandScratch`] — the task
/// body of the band schedule. One scan over the band's rows drives
/// FAST + Harris, 3×3 NMS one row behind, and — per surviving
/// candidate — lazy blur, moments and (under [`Workflow::Rescheduled`])
/// the descriptor off the ring buffers. `offsets` must already be
/// prepared by the caller (the table is shared read-only across a
/// level's bands).
///
/// Raw rows `max(3, owned.start − 1) .. min(h − 3, owned.end + 1)` are
/// scanned and scored (one row of NMS halo on each interior side),
/// exactly the `owned` rows are finalized, and survivors emit in raster
/// order. The lazy blur chain independently re-produces up to
/// [`STREAM_LATENCY_ROWS`] raw rows above the band's first candidate —
/// the duplicated halo work that buys band independence. Stats count
/// owned rows only, so per-band sums equal the single-band totals, and
/// concatenating band outputs in band order reproduces the single-band
/// emission sequence exactly — the partition is invisible in the
/// results.
pub(crate) fn process_band_stream(
    ex: &OrbExtractor,
    img: &GrayImage,
    level: usize,
    scale: f64,
    offsets: Option<&PatternOffsets>,
    bs: &mut BandScratch,
    owned: Range<usize>,
) {
    let BandScratch {
        detections,
        ring,
        hrows,
        harris,
        rows,
        results,
        keypoints,
        fast_count,
        cand_count,
    } = bs;
    results.clear();
    keypoints.clear();
    *fast_count = 0;
    *cand_count = 0;
    for row in rows.iter_mut() {
        row.clear();
    }
    let w = img.width() as usize;
    let h = img.height() as usize;
    if w < 7 || h < 7 || owned.is_empty() {
        return;
    }
    debug_assert!(owned.start >= 3 && owned.end <= h - 3);
    ring.reshape(img.width(), 2 * SMOOTH_RING_ROWS);
    hrows.resize(HROW_RING_ROWS as usize * w, 0);
    let mut scorer = harris.stream(img);

    let mut st = StreamLevel {
        ex,
        img,
        level,
        scale,
        w,
        h,
        ring,
        hrows,
        offsets,
        results,
        keypoints,
        cand_count,
        h_next: 0,
        smooth_next: 0,
    };
    let threshold = ex.config().fast_threshold;

    let scan_lo = owned.start.max(4) - 1;
    let scan_hi = (owned.end + 1).min(h - 3);
    for y in scan_lo..scan_hi {
        detections.clear();
        fast::detect_band_into(img, threshold, y as u32..y as u32 + 1, detections);
        if owned.contains(&y) {
            *fast_count += detections.len();
        }
        let row = &mut rows[y % 3];
        row.clear();
        scorer.score_row(detections, row);
        if y > scan_lo {
            let yf = y - 1;
            // A band's first owned row sees its upper neighbour either
            // as the scanned halo row (interior band) or as the cleared
            // ring slot (`owned.start == 3`, the image border).
            if owned.contains(&yf) {
                let (prev, cur) = nms_window(rows, yf);
                st.finalize_row(prev, cur, &rows[(yf + 1) % 3]);
            }
        }
    }
    // The level's last finalize row has no successor: finalize against
    // an empty "next" row (its ring slot holds a stale row from 3 scans
    // back). Interior bands already finalized their last owned row
    // against the scanned halo row below inside the loop.
    if owned.end == h - 3 {
        let yf = h - 4;
        let (prev, cur) = nms_window(rows, yf);
        st.finalize_row(prev, cur, &[]);
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
    use crate::orb::{DescriptorKind, OrbConfig, OrbScratch};

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
        const { assert!(GRAD_RING_ROWS as i64 > 2 * BLOCK_HALF) };
    }

    #[test]
    fn band_mode_parse_round_trips() {
        for mode in [BandMode::Auto, BandMode::Fixed(1), BandMode::Fixed(8)] {
            assert_eq!(BandMode::parse(&mode.to_string()), Some(mode));
        }
        // `0` bands is a typo, not a request: it must hard-error at the
        // envopt layer rather than silently mean anything.
        assert_eq!(BandMode::parse("0"), None);
        assert_eq!(BandMode::parse("two"), None);
        assert_eq!(BandMode::parse(""), None);
        assert_eq!(BandMode::default(), BandMode::Auto);
    }

    #[test]
    fn band_count_resolution_prefers_config_then_pool() {
        // (No env override in-process: forced_bands is exercised by the
        // subprocess probes in eslam_core::overrides.)
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

            // Satellite: degenerate sizes down to 1×1 must degrade the
            // band count, never panic or drift from the scalar reference.
            #[test]
            fn banded_stream_matches_reference_on_degenerate_sizes(
                w in 1u32..40, h in 1u32..40, bands in 1usize..10, seed in 0u64..1000,
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
        for kind in [
            DescriptorKind::RsBrief,
            DescriptorKind::OriginalLut,
            DescriptorKind::OriginalDirect,
        ] {
            for workflow in [Workflow::Rescheduled, Workflow::Original] {
                let e = OrbExtractor::new(OrbConfig {
                    descriptor: kind,
                    workflow,
                    max_features: 200,
                    ..Default::default()
                });
                for (w, h) in [(200u32, 150u32), (64, 64), (40, 400), (400, 40)] {
                    let img = test_image(w, h, kind as u64);
                    let stream = e.extract_with(&img, &mut OrbScratch::default());
                    assert_eq!(
                        stream,
                        e.extract_reference(&img),
                        "{kind:?} {workflow:?} {w}x{h}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_handles_degenerate_sizes() {
        let e = OrbExtractor::new(OrbConfig::default());
        for (w, h) in [(1u32, 1u32), (6, 6), (8, 40), (40, 8), (17, 19), (33, 33)] {
            let img = test_image(w, h, 7);
            let stream = e.extract_with(&img, &mut OrbScratch::default());
            assert_eq!(stream, e.extract_reference(&img), "{w}x{h}");
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
        let e = OrbExtractor::new(OrbConfig::default());
        let mut short = OrbScratch::default();
        let mut tall = OrbScratch::default();
        e.extract_with(&test_image(128, 96, 0), &mut short);
        e.extract_with(&test_image(128, 768, 0), &mut tall);
        let bytes = short.stream_working_bytes();
        assert!(bytes > 0, "streaming pass must have used its rings");
        assert_eq!(
            bytes,
            tall.stream_working_bytes(),
            "line-buffer memory must not scale with height"
        );
    }

    #[test]
    fn original_workflow_streams_and_matches_reference() {
        // Original streams detection and orientation through the bands
        // and describes only the kept N off smoothed levels held in the
        // scratch; reuse across frames and a geometry change must not
        // leak stale smoothed rows into the descriptors.
        let e = OrbExtractor::new(OrbConfig {
            workflow: Workflow::Original,
            max_features: 100,
            bands: BandMode::Fixed(3),
            ..Default::default()
        });
        let mut scratch = OrbScratch::default();
        for (w, h, seed) in [(160u32, 120u32, 3u64), (160, 120, 4), (96, 80, 9)] {
            let img = test_image(w, h, seed);
            let f = e.extract_with(&img, &mut scratch);
            assert_eq!(f.stats.descriptors_computed, f.stats.kept);
            assert_eq!(f, e.extract_reference(&img), "{w}x{h} seed {seed}");
        }
    }
}
