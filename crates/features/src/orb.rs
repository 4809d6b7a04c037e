//! The complete ORB feature extractor.
//!
//! Mirrors the paper's ORB Extractor datapath (§3.1, Fig. 4): per pyramid
//! level, FAST detection + Harris scoring → NMS → Gaussian smoothing →
//! orientation (32-label) → (RS-)BRIEF descriptor → bounded heap keeping
//! the best 1024 features.
//!
//! The extractor runs the paper's rescheduled order, detect → compute →
//! filter, through the two-pass streaming front-end of [`crate::stream`]:
//! its one production path. The paper's workflow rescheduling (§3.1) is a
//! hardware decision — it removes the accelerator's idle states and its
//! on-chip frame buffer, while the two schedules select the same
//! features — so the Original-vs-Rescheduled comparison lives in the
//! `eslam-hw` timing and memory model, fed by the counters of
//! [`ExtractionStats`]. The model's accelerator describes all M
//! candidates; this extractor describes only each level's best N,
//! `Σ min(M_level, N)`, since the heap can never keep the rest (the keep
//! bound of [`crate::stream`]). [`OrbExtractor::extract_reference`] is
//! the sequential scalar oracle of the production path.

use crate::brief::{pattern_fingerprint, OriginalBrief, PatternOffsets, RsBrief};
use crate::descriptor::Descriptor;
use crate::fast;
use crate::harris::harris_score;
use crate::heap::{BestHeap, DEFAULT_HEAP_CAPACITY};
use crate::nms::{suppress, ScoredPoint};
use crate::orientation::{label_to_angle, patch_moments, Moments, OrientationLut};
use crate::pool::WorkerPool;
use crate::stream::{self, BandMode, BandScratch};
use eslam_image::filter::gaussian_blur_7x7_fixed_reference;
use eslam_image::pyramid::{ImagePyramid, PyramidConfig, PyramidScratch};
use eslam_image::GrayImage;
use eslam_telemetry::{Stage, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Margin (pixels) a keypoint must keep from the level border so that the
/// radius-15 descriptor/orientation patch (plus rounding) stays inside.
pub const EDGE_MARGIN: u32 = 16;

/// Descriptor flavour used by the extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescriptorKind {
    /// The paper's rotationally symmetric pattern; steering by descriptor
    /// rotation (hardware-friendly).
    RsBrief,
    /// Original ORB pattern steered through the 30-angle LUT \[8\].
    OriginalLut,
}

/// Configuration of the [`OrbExtractor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbConfig {
    /// Pyramid layout (4 levels × 1.2 by default, as in the paper).
    pub pyramid: PyramidConfig,
    /// FAST intensity threshold.
    pub fast_threshold: u8,
    /// Maximum features kept per frame (the Heap capacity, 1024).
    pub max_features: usize,
    /// Descriptor flavour.
    pub descriptor: DescriptorKind,
    /// Seed for the descriptor pattern generation.
    pub pattern_seed: u64,
    /// Row-band count of the streaming pass: each level splits into
    /// this many independently streamed horizontal bands (clamped per
    /// level to the usable interior rows), scheduled depth-first across
    /// levels on the worker pool. `Auto` matches the pool's thread
    /// count.
    pub bands: BandMode,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            pyramid: PyramidConfig::default(),
            fast_threshold: fast::DEFAULT_THRESHOLD,
            max_features: DEFAULT_HEAP_CAPACITY,
            descriptor: DescriptorKind::RsBrief,
            pattern_seed: 0xe51a,
            bands: BandMode::Auto,
        }
    }
}

/// An oriented, scored multi-scale keypoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// Column in base-image coordinates.
    pub x: f64,
    /// Row in base-image coordinates.
    pub y: f64,
    /// Pyramid level the keypoint was detected at.
    pub level: usize,
    /// Column in level coordinates.
    pub level_x: u32,
    /// Row in level coordinates.
    pub level_y: u32,
    /// Harris corner score.
    pub score: f64,
    /// Continuous orientation angle (radians).
    pub angle: f64,
    /// Discretized orientation label (0..31, 11.25° steps).
    pub label: u8,
}

/// Counters describing one extraction run; these feed the `eslam-hw`
/// latency/memory model of the workflow-rescheduling ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractionStats {
    /// Raw FAST detections across all levels (before NMS) — the paper's M
    /// is measured after NMS; this counter exposes the upstream volume.
    pub fast_detections: usize,
    /// Candidates surviving NMS and the border margin (the paper's M).
    pub candidates: usize,
    /// Features finally kept (the paper's N ≤ 1024).
    pub kept: usize,
    /// Descriptors actually computed: `Σ_levels min(M_level, N)`, each
    /// level's best N (the accelerator of the `eslam-hw` model describes
    /// all M).
    pub descriptors_computed: usize,
    /// Total pixels processed across the pyramid.
    pub pixels_processed: u64,
}

/// Extraction result: keypoints with aligned descriptors.
#[derive(Debug, Clone, PartialEq)]
pub struct OrbFeatures {
    /// Keypoints ordered by descending Harris score.
    pub keypoints: Vec<Keypoint>,
    /// `descriptors[i]` belongs to `keypoints[i]`.
    pub descriptors: Vec<Descriptor>,
    /// Work counters.
    pub stats: ExtractionStats,
}

impl OrbFeatures {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.keypoints.len()
    }

    /// Whether no features were extracted.
    pub fn is_empty(&self) -> bool {
        self.keypoints.is_empty()
    }
}

/// Descriptor engines, instantiated once per extractor.
#[derive(Debug, Clone)]
enum Engine {
    Rs(RsBrief),
    Original(OriginalBrief),
}

/// Per-pyramid-level scratch of the frame loop, reused across frames.
#[derive(Debug, Default)]
struct LevelScratch {
    /// RS-BRIEF sampling table compiled for this level's stride.
    offsets: Option<PatternOffsets>,
    /// Per-band rings, candidates, results and counters of the two
    /// streaming passes.
    bands: Vec<BandScratch>,
}

/// Caller-owned scratch for [`OrbExtractor::extract_with`]: holds the
/// pyramid and every band's line buffers and result lists, so
/// steady-state frames reuse them instead of reallocating (after the
/// first frame of a given geometry). Each frame still allocates its
/// band schedule, the boxed band tasks, the heap and the returned
/// vectors.
///
/// The scratch may also own a persistent [`WorkerPool`]
/// ([`OrbScratch::with_threads`] / [`OrbScratch::with_pool`]); without
/// one, parallel sections run on the process-global pool. Either way,
/// steady-state frames never spawn threads.
#[derive(Debug, Default)]
pub struct OrbScratch {
    pyramid: ImagePyramid,
    pyramid_scratch: PyramidScratch,
    levels: Vec<LevelScratch>,
    /// Selection scratch of the per-level keep bound.
    keys: Vec<ScoredPoint>,
    /// Owned worker pool; `None` → [`WorkerPool::global`].
    pool: Option<WorkerPool>,
    /// Telemetry sink extraction records into; `None` → telemetry off.
    telemetry: Option<Arc<Telemetry>>,
}

impl OrbScratch {
    /// Scratch with an owned worker pool sized by the clamped override
    /// rules of [`eslam_pool::resolve_thread_count`]: `None` → one
    /// thread per core, `Some(0)` → panic, `Some(n)` → capped at
    /// available parallelism.
    ///
    /// [`eslam_pool::resolve_thread_count`]: crate::pool::resolve_thread_count
    pub fn with_threads(requested: Option<usize>) -> Self {
        OrbScratch::with_pool(WorkerPool::with_threads(requested))
    }

    /// Scratch owning an explicit (possibly unclamped) worker pool.
    pub fn with_pool(pool: WorkerPool) -> Self {
        OrbScratch {
            pool: Some(pool),
            ..Default::default()
        }
    }

    /// The pool parallel sections run on: the owned pool when present,
    /// the process-global pool otherwise.
    pub fn pool(&self) -> &WorkerPool {
        self.pool.as_ref().unwrap_or_else(|| WorkerPool::global())
    }

    /// Attaches (or detaches) the telemetry sink extraction spans
    /// record into. Telemetry observes only — extraction results are
    /// bit-identical with and without a sink.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    /// Bytes currently held by the streaming pass's line buffers across
    /// all pyramid levels — every band's own rings, whose full-width
    /// halo duplication is exactly what the bound must charge for.
    /// Diagnostic for the `O(width · bands)` working-memory claim: for a
    /// fixed width and band count this is constant in image height
    /// (whereas a full smoothed frame + `u16` blur scratch would scale
    /// with `width × height`).
    pub fn stream_working_bytes(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|ls| &ls.bands)
            .map(BandScratch::working_bytes)
            .sum()
    }
}

/// The ORB feature extractor (software reference of the FPGA datapath).
///
/// # Examples
///
/// ```
/// use eslam_image::GrayImage;
/// use eslam_features::orb::{OrbExtractor, OrbConfig};
///
/// // A checkerboard with per-pixel variation (a perfectly symmetric
/// // X-junction is not a FAST-9 corner, so pure checkerboards are empty).
/// let img = GrayImage::from_fn(320, 240, |x, y| {
///     let base = if (x / 16 + y / 16) % 2 == 0 { 40 } else { 200 };
///     base + ((x * 31 + y * 17) % 23) as u8
/// });
/// let extractor = OrbExtractor::new(OrbConfig::default());
/// let features = extractor.extract(&img);
/// assert!(!features.is_empty());
/// assert_eq!(features.keypoints.len(), features.descriptors.len());
/// ```
#[derive(Debug, Clone)]
pub struct OrbExtractor {
    config: OrbConfig,
    engine: Engine,
    lut: OrientationLut,
}

/// Runs one batch of band tasks, parked in their `slots[level][band]`
/// (`Option` so each is taken exactly once), on the depth-first
/// `schedule` across `pool`: one `pool_queue_wait` record and one
/// `extract_band` span per task, inside one `pool_dispatch` span.
fn run_band_batch<'env, F: FnOnce() + Send + 'env>(
    pool: &WorkerPool,
    schedule: &[stream::BandTask],
    timing: Option<&'env Telemetry>,
    mut slots: Vec<Vec<Option<F>>>,
) {
    let tasks: Vec<Box<dyn FnOnce() + Send + 'env>> = schedule
        .iter()
        .map(|task| {
            let body = slots[task.level][task.band]
                .take()
                .expect("each band scheduled once");
            let enqueued = timing.map(|_| Instant::now());
            Box::new(move || {
                if let (Some(t), Some(start)) = (timing, enqueued) {
                    t.record_since(Stage::PoolQueueWait, start);
                }
                let _span = Telemetry::span_opt(timing, Stage::ExtractBand);
                body();
            }) as Box<dyn FnOnce() + Send + 'env>
        })
        .collect();
    let _span = Telemetry::span_opt(timing, Stage::PoolDispatch);
    pool.scope_run(tasks);
}

impl OrbExtractor {
    /// Creates an extractor, generating the descriptor pattern from
    /// `config.pattern_seed`.
    pub fn new(config: OrbConfig) -> Self {
        let engine = match config.descriptor {
            DescriptorKind::RsBrief => Engine::Rs(RsBrief::new(config.pattern_seed)),
            DescriptorKind::OriginalLut => {
                Engine::Original(OriginalBrief::new(config.pattern_seed))
            }
        };
        OrbExtractor {
            config,
            engine,
            lut: OrientationLut::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &OrbConfig {
        &self.config
    }

    /// Extracts up to `max_features` oriented, described keypoints.
    ///
    /// Convenience wrapper over [`OrbExtractor::extract_with`] with
    /// throwaway scratch; frame loops should hold an [`OrbScratch`] and
    /// call `extract_with` to reuse its buffers across frames.
    pub fn extract(&self, image: &GrayImage) -> OrbFeatures {
        self.extract_with(image, &mut OrbScratch::default())
    }

    /// Extracts features using caller-owned scratch buffers.
    ///
    /// Every pyramid level splits into horizontal row bands
    /// ([`stream::band_partition`]; band count from
    /// [`OrbConfig::bands`], one band per pool thread
    /// under `Auto`), and the frame's (level, band) tasks run the two
    /// passes of the streaming front-end ([`crate::stream`]) as two
    /// batches on one depth-first schedule across the worker pool:
    /// detection, then description of each level's best
    /// `max_features` candidates. Results merge in deterministic
    /// (level, band) order, so the result — keypoints, descriptors, and
    /// [`ExtractionStats`] — is identical to the sequential scalar
    /// reference ([`OrbExtractor::extract_reference`]) regardless of
    /// thread or band count.
    pub fn extract_with(&self, image: &GrayImage, scratch: &mut OrbScratch) -> OrbFeatures {
        let OrbScratch {
            pyramid,
            pyramid_scratch,
            levels,
            keys,
            pool,
            telemetry,
        } = scratch;
        // `Option<&Telemetry>` is `Copy`, so the band tasks can capture
        // it by value; `timing` is `None` unless full mode is active, so
        // counters/off modes read no clocks here at all.
        let telemetry = telemetry.as_deref();
        let timing = telemetry.filter(|t| t.timing());
        let _extraction_span = Telemetry::span_opt(timing, Stage::Extraction);
        {
            let _span = Telemetry::span_opt(timing, Stage::PyramidBuild);
            pyramid.build_into(image, &self.config.pyramid, pyramid_scratch);
        }
        levels.resize_with(pyramid.levels(), LevelScratch::default);

        // Both passes run every (level, band) task on one depth-first
        // schedule, so small upper levels fill in around the heavy
        // level-0 bands instead of waiting behind a per-level barrier.
        // Each band writes into its own `BandScratch` slot; the merge
        // below reads the slots back in (level, band) order, which makes
        // the result independent of the execution order.
        let pool = pool.as_ref().unwrap_or_else(|| WorkerPool::global());
        let bands = stream::resolve_bands(self.config.bands, pool.threads());
        let dims: Vec<(u32, u32)> = pyramid
            .iter()
            .map(|(_, img)| (img.width(), img.height()))
            .collect();
        let schedule = stream::depth_first_schedule(&dims, bands);

        // Batch 1: detection — FAST, Harris and NMS leave each band's
        // candidates in raster order.
        let mut slots = Vec::with_capacity(levels.len());
        for ((_, img), ls) in pyramid.iter().zip(levels.iter_mut()) {
            let parts = stream::band_partition(img.height(), bands);
            ls.bands.resize_with(parts.len(), BandScratch::default);
            let level_tasks: Vec<_> = (ls.bands.iter_mut().zip(parts))
                .map(|(bs, rows)| Some(move || stream::detect_band(self, img, bs, rows)))
                .collect();
            slots.push(level_tasks);
        }
        run_band_batch(pool, &schedule, timing, slots);

        // Batch 2: description, bounded per level by its N-th best
        // candidate in the heap's order (the keep bound of
        // `crate::stream`): the heap never keeps a candidate below it.
        let mut slots = Vec::with_capacity(levels.len());
        for ((level, img), ls) in pyramid.iter().zip(levels.iter_mut()) {
            let scale = self.config.pyramid.scale_of(level);
            let cutoff = stream::level_cutoff(&ls.bands, self.config.max_features, keys);
            // The offset table is compiled once up front and shared
            // read-only across the level's bands.
            self.prepare_offsets(img.width(), ls);
            let offsets = ls.offsets.as_ref();
            let level_tasks: Vec<_> = (ls.bands.iter_mut())
                .map(|bs| {
                    Some(move || {
                        stream::describe_band(self, img, level, scale, offsets, bs, cutoff)
                    })
                })
                .collect();
            slots.push(level_tasks);
        }
        run_band_batch(pool, &schedule, timing, slots);

        // Deterministic merge in (level, band) order. Bands partition a
        // level's finalize rows in raster order, so reading them in band
        // order *is* the level's sequential emission order: the heap sees
        // the described candidates in the reference's order, and
        // tie-breaking by arrival matches it bit-for-bit (stats sum per
        // owning band for the same reason).
        let mut stats = ExtractionStats {
            pixels_processed: pyramid.total_pixels(),
            ..Default::default()
        };
        let mut heap: BestHeap<(Keypoint, Descriptor)> = BestHeap::new(self.config.max_features);
        for bs in levels.iter().flat_map(|ls| &ls.bands) {
            stats.fast_detections += bs.fast_count;
            stats.candidates += bs.candidates.len();
            stats.descriptors_computed += bs.results.len();
            for &(kp, desc) in &bs.results {
                heap.push(kp.score, (kp, desc));
            }
        }
        into_features(heap, stats)
    }

    /// Sequential scalar reference of [`OrbExtractor::extract`]: the
    /// original per-pixel implementation built from the reference kernels
    /// ([`fast::detect_reference`], [`gaussian_blur_7x7_fixed_reference`],
    /// [`suppress`], clamped descriptor sampling). Retained as the
    /// bit-exact oracle the optimized path is tested against: it
    /// describes every candidate, which shows the keep bound loses
    /// nothing, and reports the `Σ min(M_level, N)` descriptors the keep
    /// bound computes.
    pub fn extract_reference(&self, image: &GrayImage) -> OrbFeatures {
        let pyramid = ImagePyramid::build(image, &self.config.pyramid);
        let mut stats = ExtractionStats {
            pixels_processed: pyramid.total_pixels(),
            ..Default::default()
        };

        // Per level: detect, score, suppress; keep the smoothed image for
        // the descriptor/orientation stages.
        let mut level_candidates: Vec<Vec<ScoredPoint>> = Vec::with_capacity(pyramid.levels());
        let mut smoothed: Vec<GrayImage> = Vec::with_capacity(pyramid.levels());
        for (_, img) in pyramid.iter() {
            let detections = fast::detect_reference(img, self.config.fast_threshold);
            stats.fast_detections += detections.len();
            let scored: Vec<ScoredPoint> = detections
                .iter()
                .map(|d| ScoredPoint {
                    x: d.x,
                    y: d.y,
                    score: harris_score(img, d.x, d.y),
                })
                .collect();
            let surviving: Vec<ScoredPoint> = suppress(&scored)
                .into_iter()
                .filter(|p| {
                    p.x >= EDGE_MARGIN
                        && p.y >= EDGE_MARGIN
                        && p.x + EDGE_MARGIN < img.width()
                        && p.y + EDGE_MARGIN < img.height()
                })
                .collect();
            stats.candidates += surviving.len();
            level_candidates.push(surviving);
            smoothed.push(gaussian_blur_7x7_fixed_reference(img));
        }

        // Compute descriptors for every candidate, then filter. The count
        // reported is the keep bound's: the streaming pass describes each
        // level's best N only.
        let mut heap: BestHeap<(Keypoint, Descriptor)> = BestHeap::new(self.config.max_features);
        for (level, candidates) in level_candidates.iter().enumerate() {
            let scale = pyramid.scale_of(level);
            stats.descriptors_computed += candidates.len().min(self.config.max_features);
            for c in candidates {
                let kp = self.orient(&smoothed[level], c, level, scale);
                let desc = self.describe(&smoothed[level], c.x, c.y, kp.label, kp.angle);
                heap.push(kp.score, (kp, desc));
            }
        }
        into_features(heap, stats)
    }

    /// Compiles the RS-BRIEF sampling table for a level's stride (only
    /// when the geometry or the pattern changed since the last frame —
    /// the fingerprint guards scratch buffers shared across extractors
    /// with different engines or pattern seeds).
    fn prepare_offsets(&self, width: u32, ls: &mut LevelScratch) {
        if let Engine::Rs(rs) = &self.engine {
            let fp = pattern_fingerprint(rs.pattern());
            if ls
                .offsets
                .as_ref()
                .is_none_or(|t| t.width() != width || t.fingerprint() != fp)
            {
                ls.offsets = Some(PatternOffsets::new(rs.pattern(), width));
            }
        } else {
            // A stale RS table must never survive into a non-RS engine.
            ls.offsets = None;
        }
    }

    /// Builds the oriented keypoint for a surviving candidate.
    fn orient(&self, smoothed: &GrayImage, c: &ScoredPoint, level: usize, scale: f64) -> Keypoint {
        self.orient_from_moments(patch_moments(smoothed, c.x, c.y), c, level, scale)
    }

    /// Keypoint construction from already-computed patch moments (the
    /// streaming pass reads moments off its ring buffer rather than a
    /// full smoothed frame).
    pub(crate) fn orient_from_moments(
        &self,
        moments: Moments,
        c: &ScoredPoint,
        level: usize,
        scale: f64,
    ) -> Keypoint {
        let label = self.lut.label(moments.m10, moments.m01);
        // The continuous angle is retained for the Original descriptor's
        // LUT steering; RS-BRIEF uses only the label, as the hardware does.
        let angle = match self.config.descriptor {
            DescriptorKind::RsBrief => label_to_angle(label),
            DescriptorKind::OriginalLut => moments.angle(),
        };
        Keypoint {
            x: c.x as f64 * scale,
            y: c.y as f64 * scale,
            level,
            level_x: c.x,
            level_y: c.y,
            score: c.score,
            angle,
            label,
        }
    }

    /// Computes the steered descriptor at explicit level coordinates
    /// with the clamped sampling of the configured engine. The reference
    /// calls it at the keypoint's own coordinates on a full smoothed
    /// level; the streaming pass calls it with ring-buffer coordinates,
    /// where `y` is the keypoint row's slot in the mirrored ring (its
    /// caller guarantees a full radius-15 interior around `(x, y)`, so
    /// the clamping never engages).
    pub(crate) fn describe(
        &self,
        smoothed: &GrayImage,
        x: u32,
        y: u32,
        label: u8,
        angle: f64,
    ) -> Descriptor {
        match &self.engine {
            Engine::Rs(rs) => rs.compute(smoothed, x, y, label),
            Engine::Original(orig) => orig.compute_lut(smoothed, x, y, angle),
        }
    }
}

/// Drains the heap, best first, into the extraction result.
fn into_features(
    heap: BestHeap<(Keypoint, Descriptor)>,
    mut stats: ExtractionStats,
) -> OrbFeatures {
    let (keypoints, descriptors): (Vec<Keypoint>, Vec<Descriptor>) =
        heap.into_sorted_vec().into_iter().map(|(_, kd)| kd).unzip();
    stats.kept = keypoints.len();
    OrbFeatures {
        keypoints,
        descriptors,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::angle_to_label;

    /// A corner-rich checkerboard with mild pseudo-random variation.
    fn test_image(w: u32, h: u32, seed: u64) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let base = if ((x / 12) + (y / 12)) % 2 == 0 {
                50
            } else {
                190
            };
            let jitter = ((x as u64 * 31 + y as u64 * 17 + seed * 1009) % 23) as u8;
            base + jitter
        })
    }

    #[test]
    fn extracts_features_from_checkerboard() {
        let img = test_image(320, 240, 0);
        let extractor = OrbExtractor::new(OrbConfig::default());
        let f = extractor.extract(&img);
        assert!(f.len() > 50, "got {}", f.len());
        assert_eq!(f.keypoints.len(), f.descriptors.len());
        assert!(f.stats.kept <= 1024);
        assert_eq!(f.stats.kept, f.len());
    }

    #[test]
    fn respects_max_features() {
        let img = test_image(320, 240, 1);
        let cfg = OrbConfig {
            max_features: 20,
            ..Default::default()
        };
        let f = OrbExtractor::new(cfg).extract(&img);
        assert!(f.len() <= 20);
        // Sorted by descending score.
        for pair in f.keypoints.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn rescheduled_computes_more_descriptors() {
        // The keep bound: the extractor describes min(M_level, N) per
        // level — all M when N ≥ M, levels × N when every level has more
        // than N — which still exceeds the N it keeps.
        // Random 5×5 blocks have corners on every pyramid level (the
        // checkerboard of `test_image` has none on level 0).
        let img = GrayImage::from_fn(160, 120, |x, y| {
            let block = ((x / 5) as u64 * 2_654_435_761) ^ ((y / 5) as u64 * 40_503);
            (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
        });
        let extract = |max_features| {
            OrbExtractor::new(OrbConfig {
                max_features,
                ..Default::default()
            })
            .extract(&img)
        };
        let n = 64;
        let rescheduled = extract(n);
        let m = rescheduled.stats.candidates;
        let all = extract(m);
        assert_eq!(all.stats.kept, m);
        assert_eq!(all.stats.descriptors_computed, m);
        // Every candidate is kept at N = M, so its keypoints count each
        // level's M.
        let levels = PyramidConfig::default().levels;
        for level in 0..levels {
            let m_level = all.keypoints.iter().filter(|k| k.level == level).count();
            assert!(m_level > n, "level {level} has {m_level} candidates");
        }
        assert_eq!(rescheduled.stats.descriptors_computed, levels * n);
        assert!(rescheduled.stats.kept < rescheduled.stats.descriptors_computed);
    }

    #[test]
    fn keypoints_respect_edge_margin() {
        let img = test_image(160, 120, 4);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        for kp in &f.keypoints {
            assert!(kp.level_x >= EDGE_MARGIN);
            assert!(kp.level_y >= EDGE_MARGIN);
        }
    }

    #[test]
    fn base_coordinates_scale_with_level() {
        let img = test_image(320, 240, 5);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        let mut seen_upper_level = false;
        for kp in &f.keypoints {
            let scale = 1.2f64.powi(kp.level as i32);
            assert!((kp.x - kp.level_x as f64 * scale).abs() < 1e-9);
            assert!((kp.y - kp.level_y as f64 * scale).abs() < 1e-9);
            if kp.level > 0 {
                seen_upper_level = true;
            }
        }
        assert!(seen_upper_level, "multi-scale detection expected");
    }

    #[test]
    fn flat_image_yields_nothing() {
        let img = GrayImage::from_fn(160, 120, |_, _| 127);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        assert!(f.is_empty());
        assert_eq!(f.stats.candidates, 0);
        assert_eq!(f.stats.descriptors_computed, 0);
    }

    #[test]
    fn stats_pixels_match_pyramid() {
        let img = test_image(320, 240, 6);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        let cfg = PyramidConfig::default();
        assert_eq!(f.stats.pixels_processed, cfg.total_pixels(320, 240));
    }

    #[test]
    fn descriptor_kinds_all_work() {
        let img = test_image(240, 180, 7);
        for kind in [DescriptorKind::RsBrief, DescriptorKind::OriginalLut] {
            let f = OrbExtractor::new(OrbConfig {
                descriptor: kind,
                max_features: 64,
                ..Default::default()
            })
            .extract(&img);
            assert!(!f.is_empty(), "{kind:?} extracted nothing");
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let img = test_image(240, 180, 8);
        let e = OrbExtractor::new(OrbConfig::default());
        let a = e.extract(&img);
        let b = e.extract(&img);
        assert_eq!(a, b);
    }

    #[test]
    fn optimized_extractor_matches_scalar_reference() {
        // The headline equivalence: bitmask FAST + the banded streaming
        // pass + offset-table descriptors + the parallel band schedule vs
        // the sequential per-pixel reference, bit for bit — features AND
        // stats.
        for seed in 0..3u64 {
            let img = test_image(200, 150, seed);
            for kind in [DescriptorKind::RsBrief, DescriptorKind::OriginalLut] {
                let e = OrbExtractor::new(OrbConfig {
                    descriptor: kind,
                    max_features: 200,
                    ..Default::default()
                });
                let fast_path = e.extract(&img);
                let reference = e.extract_reference(&img);
                assert_eq!(fast_path, reference, "seed {seed} {kind:?}");
            }
        }
    }

    #[test]
    fn scratch_shared_across_extractors_stays_correct() {
        // Regression: a scratch previously used by an RS-BRIEF extractor
        // must not leak its offset table into another engine (or an RS
        // engine with a different pattern seed) on same-width frames.
        let img = test_image(160, 120, 3);
        let mut scratch = OrbScratch::default();
        let rs = OrbExtractor::new(OrbConfig::default());
        let _ = rs.extract_with(&img, &mut scratch);

        let lut = OrbExtractor::new(OrbConfig {
            descriptor: DescriptorKind::OriginalLut,
            ..Default::default()
        });
        assert_eq!(
            lut.extract_with(&img, &mut scratch),
            lut.extract_reference(&img)
        );

        let rs_other = OrbExtractor::new(OrbConfig {
            pattern_seed: 0x1234,
            ..Default::default()
        });
        assert_eq!(
            rs_other.extract_with(&img, &mut scratch),
            rs_other.extract_reference(&img)
        );
    }

    #[test]
    fn scratch_reuse_is_equivalent_across_frames() {
        let e = OrbExtractor::new(OrbConfig::default());
        let mut scratch = OrbScratch::default();
        for seed in 0..4u64 {
            let img = test_image(160, 120, seed);
            let with_scratch = e.extract_with(&img, &mut scratch);
            assert_eq!(with_scratch, e.extract_reference(&img), "frame {seed}");
        }
        // Geometry changes mid-stream must also be handled.
        let small = test_image(96, 80, 9);
        assert_eq!(
            e.extract_with(&small, &mut scratch),
            e.extract_reference(&small)
        );
    }

    #[test]
    fn labels_consistent_with_angles() {
        let img = test_image(320, 240, 9);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        for kp in &f.keypoints {
            assert!(kp.label < 32);
            // RS-BRIEF keypoints carry the label's representative angle.
            assert_eq!(angle_to_label(kp.angle), kp.label);
        }
    }
}
