//! The eSLAM system: the full per-frame loop of Fig. 1, plus the
//! keyframe backend.
//!
//! `Slam::process` runs feature extraction, feature matching, pose
//! estimation (PnP + RANSAC), pose optimization (Levenberg-Marquardt) and
//! — on key frames — map updating, exactly the five stages of the paper.
//! Every frame also reports the modelled FPGA latencies of its front-end
//! stages ([`FrameHwTiming`]) for its actual workload.
//!
//! On top of the per-frame loop sits the keyframe backend
//! (`eslam-backend`): every promoted frame becomes a covisibility-linked
//! keyframe, and a windowed local bundle adjustment jointly refines the
//! recent keyframe poses and their landmarks — inline or asynchronously
//! on the worker pool per [`crate::config::BackendConfig::mode`].
//! Refinements are swapped into the map and trajectory **at the next
//! frame boundary** (the start of the next [`Slam::process`] call, or
//! [`Slam::finish`] at end of sequence), a deterministic application
//! point that makes the async mode bit-identical to the sync one.

use crate::atlas::{Atlas, AtlasState};
use crate::config::SlamConfig;
use crate::map::Map;
use crate::tracking::track_frame_with_telemetry;
use eslam_backend::keyframe::KeyframeObservation;
use eslam_backend::{BackendRunner, BackendStats, KeyframeData};
use eslam_dataset::Trajectory;
use eslam_features::orb::{ExtractionStats, Keypoint, OrbExtractor, OrbScratch};
use eslam_geometry::{Se3, Vec2};
use eslam_hw::extractor::{ExtractionWorkload, ExtractorModel, Workflow};
use eslam_hw::matcher::MatcherModel;
use eslam_image::{DepthImage, GrayImage};
use eslam_telemetry::{Counter, Stage, Telemetry, TelemetrySummary};
use std::sync::Arc;

/// Modelled accelerator latencies for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameHwTiming {
    /// ORB Extractor latency, ms.
    pub fe_ms: f64,
    /// BRIEF Matcher latency, ms.
    pub fm_ms: f64,
}

/// Per-frame processing report.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Frame index (0-based).
    pub index: usize,
    /// Frame timestamp, seconds.
    pub timestamp: f64,
    /// Estimated camera-to-world pose.
    pub pose_c2w: Se3,
    /// Whether this frame became a key frame.
    pub is_keyframe: bool,
    /// Whether tracking met the inlier threshold.
    pub tracking_ok: bool,
    /// Whether this frame was recovered by the relocalization fallback
    /// (tracking failed under nominal thresholds but succeeded with the
    /// relaxed recovery configuration).
    pub relocalized: bool,
    /// Descriptor matches before geometric checks.
    pub raw_matches: usize,
    /// Geometric inliers.
    pub inliers: usize,
    /// Map size after processing this frame.
    pub map_size: usize,
    /// Extraction work counters.
    pub extraction: ExtractionStats,
    /// Modelled accelerator latencies of this frame's front-end stages.
    pub hw_timing: FrameHwTiming,
    /// Measured wall-clock time the caller blocked waiting for this
    /// frame's pixels (dataset render/load/prefetch-join latency).
    /// Filled by [`crate::run_sequence`]; 0 when frames are handed to
    /// [`Slam::process`] directly. Together with
    /// [`FrameReport::track_ms`] this makes the frame-production /
    /// tracking overlap measurable: with prefetch enabled the wait
    /// collapses toward zero while `track_ms` is unchanged.
    pub frame_wait_ms: f64,
    /// Measured wall-clock time of the [`Slam::process`] call for this
    /// frame: the five-stage tracking pipeline plus the backend's
    /// application point — if an async local-BA solve outlasted its
    /// frame, the time spent joining it lands here (and is broken out
    /// in `BackendStats::join_wait_ms`), so per-frame wall reports
    /// never under-state the critical path.
    pub track_ms: f64,
    /// Whether a backend refinement (local BA result) was swapped into
    /// the map/trajectory at the start of this frame's processing.
    pub backend_applied: bool,
    /// Whether a verified loop closure's pose-graph correction was
    /// propagated through the map and trajectory at the start of this
    /// frame's processing.
    pub loop_closed: bool,
}

/// The SLAM system state.
///
/// # Examples
///
/// See the crate-level documentation and `examples/quickstart.rs`.
#[derive(Debug)]
pub struct Slam {
    config: SlamConfig,
    extractor: OrbExtractor,
    /// Reusable extraction buffers: steady-state frames allocate nothing
    /// in the front-end.
    extractor_scratch: OrbScratch,
    extractor_model: ExtractorModel,
    matcher_model: MatcherModel,
    map: Map,
    trajectory: Trajectory,
    /// The trajectory exactly as tracked, never touched by backend
    /// refinements — the "before BA" reference for drift reporting.
    raw_trajectory: Trajectory,
    /// The trajectory with local-BA refinements but **without** loop
    /// corrections — the "before closure" reference that splits the
    /// drift reduction into its BA and loop-closure shares. (Frames
    /// tracked after a closure continue from the corrected pose, so
    /// past the first closure this is a reference, not a counterfactual
    /// no-loop run.)
    ba_trajectory: Trajectory,
    frame_index: usize,
    pose_w2c: Se3,
    /// Last inter-frame motion `T_k ∘ T_{k-1}⁻¹` (world-to-camera), the
    /// constant-velocity predictor.
    velocity: Se3,
    last_keyframe_c2w: Se3,
    keyframes: usize,
    /// The keyframe backend (covisibility graph + windowed local BA);
    /// `None` when the configured mode is off.
    backend: Option<BackendRunner>,
    /// Publish target for the finished map: [`Slam::finish`] builds a
    /// query-ready [`AtlasState`] and publishes it here. `None` when
    /// the run is not feeding a shared atlas.
    atlas: Option<Arc<Atlas>>,
    /// Telemetry sink shared with the extraction scratch, the backend
    /// runner and (via [`crate::run_sequence`]) the prefetcher. `None`
    /// when the configured mode is off — the absence of the sink *is* the
    /// zero-cost off implementation.
    telemetry: Option<Arc<Telemetry>>,
}

/// Builder for [`Slam`] — the one way to assemble a system.
///
/// ```
/// use eslam_core::{Slam, SlamConfig};
///
/// let slam = Slam::builder()
///     .config(SlamConfig::scaled_for_tests(4.0))
///     .worker_pool(2)
///     .build();
/// assert!(slam.worker_threads() >= 1);
/// ```
///
/// Attach a shared [`Atlas`] with [`SlamBuilder::atlas`] to make the
/// run a *mapping* session: [`Slam::finish`] then publishes the
/// finished map (landmarks, keyframes, covisibility, offline-trained
/// vocabulary) for concurrent [`crate::session::Session`] readers.
#[derive(Debug, Default)]
#[must_use = "call .build() to assemble the system"]
pub struct SlamBuilder {
    config: SlamConfig,
    atlas: Option<Arc<Atlas>>,
    worker_pool: Option<usize>,
}

impl SlamBuilder {
    /// Replaces the whole configuration (defaults to
    /// [`SlamConfig::default`], the TUM fr1 tuning).
    pub fn config(mut self, config: SlamConfig) -> SlamBuilder {
        self.config = config;
        self
    }

    /// Attaches a shared atlas as the publish target of this run's
    /// finished map.
    pub fn atlas(mut self, atlas: Arc<Atlas>) -> SlamBuilder {
        self.atlas = Some(atlas);
        self
    }

    /// Sizes the persistent front-end worker pool (overrides
    /// `config.worker_threads`; clamped to available parallelism).
    ///
    /// # Panics
    /// `build` panics on `0` — a present-but-empty pool is a
    /// configuration error, not a request for sequential execution.
    pub fn worker_pool(mut self, threads: usize) -> SlamBuilder {
        self.worker_pool = Some(threads);
        self
    }

    /// Assembles the system.
    ///
    /// Builds the persistent front-end worker pool here, sized by
    /// [`SlamBuilder::worker_pool`] (falling back to
    /// `config.worker_threads`, clamped to available parallelism).
    /// Extraction levels and matcher rows reuse this pool on every
    /// frame instead of spawning scoped threads per call.
    pub fn build(self) -> Slam {
        let mut config = self.config;
        if self.worker_pool.is_some() {
            config.worker_threads = self.worker_pool;
        }
        let telemetry = Telemetry::new(config.telemetry);
        let mut extractor_scratch = OrbScratch::with_threads(config.worker_threads);
        extractor_scratch.set_telemetry(telemetry.clone());
        let mut backend = BackendRunner::new(config.backend, config.camera);
        if let Some(runner) = backend.as_mut() {
            runner.set_telemetry(telemetry.clone());
        }
        Slam {
            extractor: OrbExtractor::new(config.orb),
            extractor_scratch,
            extractor_model: ExtractorModel::default(),
            matcher_model: MatcherModel::default(),
            backend,
            telemetry,
            config,
            map: Map::new(),
            trajectory: Trajectory::new(),
            raw_trajectory: Trajectory::new(),
            ba_trajectory: Trajectory::new(),
            frame_index: 0,
            pose_w2c: Se3::identity(),
            velocity: Se3::identity(),
            last_keyframe_c2w: Se3::identity(),
            keyframes: 0,
            atlas: self.atlas,
        }
    }
}

impl Slam {
    /// Starts assembling a system: `Slam::builder().config(..).build()`.
    pub fn builder() -> SlamBuilder {
        SlamBuilder::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &SlamConfig {
        &self.config
    }

    /// The global map.
    pub fn map(&self) -> &Map {
        &self.map
    }

    /// The estimated trajectory so far (camera-to-world poses), with
    /// every applied backend refinement swapped in.
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// The trajectory exactly as tracked, before any backend
    /// refinement — the "before BA" reference for drift reporting.
    pub fn raw_trajectory(&self) -> &Trajectory {
        &self.raw_trajectory
    }

    /// The trajectory with local-BA refinements swapped in but loop
    /// corrections withheld — the "before closure" reference. Identical
    /// to [`Slam::trajectory`] until a loop closes.
    pub fn ba_trajectory(&self) -> &Trajectory {
        &self.ba_trajectory
    }

    /// Number of key frames so far.
    pub fn keyframes(&self) -> usize {
        self.keyframes
    }

    /// The keyframe backend's aggregate diagnostics, when it is
    /// enabled.
    pub fn backend_stats(&self) -> Option<&BackendStats> {
        self.backend.as_ref().map(|b| b.stats())
    }

    /// The keyframe backend's covisibility-linked store, when enabled.
    pub fn backend(&self) -> Option<&eslam_backend::LocalMapper> {
        self.backend.as_ref().map(|b| b.mapper())
    }

    /// The BA-refined keyframe trajectory (camera-to-world poses, one
    /// per keyframe). Empty when the backend is off.
    pub fn keyframe_trajectory(&self) -> Trajectory {
        let mut out = Trajectory::new();
        if let Some(backend) = &self.backend {
            for kf in backend.mapper().store().keyframes() {
                out.push(kf.timestamp, kf.pose_w2c.inverse());
            }
        }
        out
    }

    /// Collects and applies every in-flight backend result — local-BA
    /// refinements *and* pending loop corrections — then, when an
    /// [`Atlas`] is attached ([`SlamBuilder::atlas`]), publishes the
    /// finished map to it for concurrent session readers. Call after
    /// the last frame of a sequence so the final keyframe's BA and any
    /// just-verified closure land in the exported trajectory
    /// ([`crate::run_sequence`] does this for you); [`Slam::process`]
    /// applies pending results at every frame boundary on its own.
    pub fn finish(&mut self) {
        loop {
            let refined = self.apply_backend_refinement();
            let closed = self.apply_loop_corrections();
            if !refined && !closed {
                break;
            }
        }
        if let Some(atlas) = self.atlas.clone() {
            let _span = Telemetry::span_opt(self.telemetry.as_deref(), Stage::AtlasPublish);
            atlas.publish(self.atlas_state());
        }
    }

    /// The telemetry sink of this run, when the configured mode is not
    /// off. Exposes histograms, counters, the flight recorder and the
    /// exporters (`summary()`, `prometheus()`, `chrome_trace()`).
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Aggregated per-stage percentiles + counters, when telemetry is
    /// active ([`crate::RunResult`] carries the same summary).
    pub fn telemetry_summary(&self) -> Option<TelemetrySummary> {
        self.telemetry.as_ref().map(|t| t.summary())
    }

    /// Builds a query-ready [`AtlasState`] from the current map: the
    /// landmark map, the backend's keyframe store and covisibility
    /// graph (empty when the backend is off), and a vocabulary trained
    /// **offline** over the full keyframe descriptor corpus with
    /// tf-idf weights fitted per keyframe. This is the state
    /// [`Slam::finish`] publishes to an attached atlas; call it
    /// directly to save a map without sharing it.
    pub fn atlas_state(&self) -> AtlasState {
        let (store, graph) = match &self.backend {
            Some(runner) => (
                runner.mapper().store().clone(),
                runner.mapper().covisibility().clone(),
            ),
            None => (
                eslam_backend::KeyframeStore::new(),
                eslam_backend::CovisibilityGraph::new(),
            ),
        };
        AtlasState::build(
            self.map.clone(),
            store,
            graph,
            &self.config.backend.loop_closure.bow,
        )
        .expect("backend store and covisibility graph are maintained in lockstep")
    }

    /// Deterministic application point of the backend: joins the oldest
    /// pending local-BA solve (if any), swaps its refined landmark
    /// positions and keyframe poses into the map/trajectory, and
    /// re-bases the tracker's current pose on the refined newest
    /// keyframe. Returns whether a refinement was applied.
    fn apply_backend_refinement(&mut self) -> bool {
        let Some(runner) = self.backend.as_mut() else {
            return false;
        };
        let Some(outcome) = runner.take_refinement() else {
            return false;
        };
        for &(id, position) in &outcome.landmarks {
            // Points culled since the snapshot are silently dropped.
            self.map.set_position(id, position);
        }
        for kf in &outcome.keyframes {
            // The estimate trajectory has exactly one pose per frame,
            // so the keyframe's frame index addresses it directly. The
            // raw trajectory keeps the as-tracked pose; the BA
            // reference trajectory takes the refinement (it withholds
            // only loop corrections).
            self.trajectory
                .set_pose(kf.frame_index, kf.pose_w2c.inverse());
            self.ba_trajectory
                .set_pose(kf.frame_index, kf.pose_w2c.inverse());
        }
        if let Some(newest) = outcome.keyframes.last() {
            // The newest window member is the keyframe processed on the
            // previous frame (solves are dispatched at keyframes and
            // collected one frame later), so the tracker's held pose is
            // that keyframe's: re-base it and the keyframe reference on
            // the refined estimate. The velocity stays — it is a
            // frame-to-frame motion estimate, unaffected by the small
            // absolute correction.
            self.pose_w2c = newest.pose_w2c;
            self.last_keyframe_c2w = newest.pose_w2c.inverse();
        }
        true
    }

    /// Deterministic application point of the loop closer: collects
    /// every pending verification outcome and, for each accepted one,
    /// propagates the pose-graph drift correction through the whole
    /// system — re-anchored landmark positions into the map, corrected
    /// keyframe poses into the trajectory (frames between keyframes
    /// ride with the correction of their governing keyframe), and the
    /// tracker's held pose onto the corrected newest keyframe. Returns
    /// whether a correction was applied.
    fn apply_loop_corrections(&mut self) -> bool {
        let Some(runner) = self.backend.as_mut() else {
            return false;
        };
        let mut applied = false;
        while let Some(outcome) = runner.take_loop_closure() {
            if !outcome.accepted || outcome.keyframes.is_empty() {
                continue;
            }
            applied = true;
            for &(id, position) in &outcome.landmarks {
                // Landmarks culled since the snapshot are silently
                // dropped.
                self.map.set_position(id, position);
            }
            // Keyframe frames take their corrected pose exactly; every
            // frame in between rides with the camera-to-world
            // correction `C_k = new_c2w ∘ old_w2c` of the latest
            // preceding keyframe (the snapshot covers all keyframes,
            // and frame 0 is always one, so every frame is governed).
            let keyframes = &outcome.keyframes;
            let mut k = 0usize;
            for f in 0..self.trajectory.len() {
                if f < keyframes[0].frame_index {
                    continue;
                }
                while k + 1 < keyframes.len() && keyframes[k + 1].frame_index <= f {
                    k += 1;
                }
                let kf = &keyframes[k];
                let pose = if kf.frame_index == f {
                    kf.pose_w2c.inverse()
                } else {
                    let correction = kf.pose_w2c.inverse().compose(&kf.old_pose_w2c);
                    correction.compose(&self.trajectory.poses()[f].pose)
                };
                self.trajectory.set_pose(f, pose);
            }
            if let Some(newest) = outcome.keyframes.last() {
                // The loop keyframe was the previous processed frame;
                // the tracker continues from its corrected pose. The
                // velocity is frame-relative and survives the global
                // correction.
                self.pose_w2c = newest.pose_w2c;
                self.last_keyframe_c2w = newest.pose_w2c.inverse();
            }
        }
        applied
    }

    /// Total parallelism of the persistent front-end worker pool (the
    /// clamped resolution of `SlamConfig::worker_threads`).
    pub fn worker_threads(&self) -> usize {
        self.extractor_scratch.pool().threads()
    }

    /// The relaxed configuration used by the relocalization fallback:
    /// a wider Hamming gate, a looser reprojection threshold and a lower
    /// inlier bar.
    fn recovery_config(&self) -> SlamConfig {
        let mut cfg = self.config;
        cfg.matcher_max_distance = (self.config.matcher_max_distance + 24).min(128);
        cfg.pnp.ransac.threshold = self.config.pnp.ransac.threshold * 2.0;
        cfg.pnp.ransac.max_iterations = self.config.pnp.ransac.max_iterations * 2;
        cfg.min_inliers = (self.config.min_inliers * 2 / 3).max(6);
        // When tracking is lost the motion prediction is exactly what
        // failed — anchoring recovery to it would fight the retry.
        cfg.lm.motion_prior_weight = 0.0;
        cfg
    }

    /// Processes one RGB-D frame through the five-stage pipeline.
    ///
    /// Frame boundaries are also the backend's application points: any
    /// local-BA refinement dispatched at the previous keyframe is
    /// collected and swapped in *before* this frame is tracked, so the
    /// map and pose prior this frame sees are the refined ones —
    /// identically in sync and async mode.
    pub fn process(&mut self, timestamp: f64, gray: &GrayImage, depth: &DepthImage) -> FrameReport {
        // The clock starts before the application point: joining an
        // async solve that outlasted its frame is real critical-path
        // time and must show up in `track_ms`.
        let track_start = std::time::Instant::now();
        if let Some(t) = &self.telemetry {
            t.frame_start(self.frame_index, timestamp);
        }
        let mut backend_applied = false;
        while self.apply_backend_refinement() {
            backend_applied = true;
        }
        let loop_closed = self.apply_loop_corrections();
        let features = self
            .extractor
            .extract_with(gray, &mut self.extractor_scratch);
        let extraction = features.stats;
        let frame = self.frame_index;

        let map_size_before = self.map.len();
        // The metric depth under a keypoint, where the frame has one: the
        // features a keyframe can turn into landmarks. A depth image of
        // another size than the gray one does not register with it, so
        // the frame carries no depth at all.
        let registered = depth.width() == gray.width() && depth.height() == gray.height();
        let depth_at = |kp: &Keypoint| {
            let (px, py) = (kp.x.round() as i64, kp.y.round() as i64);
            let inside = registered
                && px >= 0
                && py >= 0
                && px < gray.width() as i64
                && py < gray.height() as i64;
            inside.then(|| depth.metres(px as u32, py as u32)).flatten()
        };
        let mut relocalized = false;
        let (pose_c2w, tracking_ok, raw_matches, inliers, matched_feats, matched_map) =
            if self.map.is_empty() {
                // Bootstrap: the first frame that adds a landmark defines
                // the world origin. One without any feature at a valid
                // depth (a blank, flat or zero-size frame) fails and holds
                // the pose, leaving the map empty.
                let ok = features.keypoints.iter().any(|kp| depth_at(kp).is_some());
                let pose_c2w = if ok {
                    Se3::identity()
                } else {
                    self.pose_w2c.inverse()
                };
                (pose_c2w, ok, 0, 0, Vec::new(), Vec::new())
            } else {
                // Prior: the constant-velocity prediction.
                let prior = self.velocity.compose(&self.pose_w2c);
                let pool = self.extractor_scratch.pool();
                let telemetry = self.telemetry.as_deref();
                let mut outcome = track_frame_with_telemetry(
                    &features,
                    &self.map,
                    &prior,
                    &self.config,
                    pool,
                    telemetry,
                );
                if !outcome.ok {
                    // Relocalization fallback: retry with relaxed
                    // matching/geometry gates before declaring the frame
                    // lost.
                    if let Some(t) = telemetry {
                        t.count(Counter::RelocAttempts, 1);
                    }
                    let recovery = self.recovery_config();
                    let retry = track_frame_with_telemetry(
                        &features, &self.map, &prior, &recovery, pool, telemetry,
                    );
                    if retry.ok {
                        outcome = retry;
                        relocalized = true;
                        if let Some(t) = telemetry {
                            t.count(Counter::RelocSuccesses, 1);
                        }
                    }
                }
                let pose_c2w = if outcome.ok {
                    self.velocity = outcome.pose_w2c.compose(&self.pose_w2c.inverse());
                    self.pose_w2c = outcome.pose_w2c;
                    outcome.pose_w2c.inverse()
                } else {
                    // Tracking failure: hold the last pose and reset the
                    // velocity (the prediction is no longer trustworthy).
                    self.velocity = Se3::identity();
                    self.pose_w2c.inverse()
                };
                (
                    pose_c2w,
                    outcome.ok,
                    outcome.raw_matches,
                    outcome.inliers,
                    outcome.matched_feature_indices,
                    outcome.matched_map_indices,
                )
            };

        // Bookkeeping for matched landmarks.
        for &mi in &matched_map {
            self.map.mark_matched(mi, frame);
        }
        if let Some(t) = &self.telemetry {
            t.count(Counter::RawMatches, raw_matches as u64);
            t.count(Counter::MatchInliers, inliers as u64);
            if !tracking_ok {
                t.count(Counter::TrackingFailures, 1);
            }
        }

        // Key-frame decision (§2.1): translation or rotation relative to
        // the last key frame above threshold. A successful bootstrap frame
        // is always a key frame.
        let rel = self.last_keyframe_c2w.relative_to(&pose_c2w);
        let is_keyframe = tracking_ok
            && (self.map.is_empty()
                || rel.translation.norm() > self.config.keyframe_translation
                || rel.rotation_angle() > self.config.keyframe_rotation);

        if is_keyframe {
            let _kf_span = Telemetry::span_opt(self.telemetry.as_deref(), Stage::KeyframePromotion);
            if let Some(t) = &self.telemetry {
                t.count(Counter::KeyframesPromoted, 1);
            }
            // The keyframe id: the backend's store assigns the same
            // insertion index and never renumbers, so the map's
            // observation lists and the store share this numbering.
            let kf_id = self.keyframes;
            self.keyframes += 1;
            self.last_keyframe_c2w = pose_c2w;
            // Keyframe observations: every matched landmark, then every
            // landmark this keyframe creates (deterministic order — the
            // backend's problem layout depends on it). The matcher is
            // per-query nearest-neighbour without a cross-check, so two
            // features can match the same landmark; one keyframe still
            // observes it once (first match wins) — duplicates would
            // inflate the cull tie-break and misclassify the landmark
            // as multi-view in the local-BA window. The snapshot Vec
            // feeds only the backend, so it stays empty (unallocated)
            // when the backend is off; the map-side bookkeeping runs
            // either way.
            let backend_active = self.backend.is_some();
            let mut observations: Vec<KeyframeObservation> = Vec::new();
            let mut descriptors: Vec<eslam_features::Descriptor> = Vec::new();
            if backend_active {
                observations.reserve(matched_feats.len());
                descriptors.reserve(matched_feats.len());
            }
            let pose_w2c = pose_c2w.inverse();
            let mut seen: std::collections::HashSet<usize> =
                std::collections::HashSet::with_capacity(matched_map.len());
            for (&feat_idx, &map_idx) in matched_feats.iter().zip(&matched_map) {
                if !seen.insert(map_idx) {
                    continue;
                }
                let kp = &features.keypoints[feat_idx];
                let pixel = Vec2::new(kp.x, kp.y);
                self.map.record_observation(map_idx, kf_id, pixel);
                if backend_active {
                    let point = self.map.point(map_idx);
                    observations.push(KeyframeObservation {
                        landmark: point.id,
                        pixel,
                        // Camera-frame snapshot: drift-free 3-D the
                        // loop verifier can PnP against later.
                        position: pose_w2c.transform(point.position),
                    });
                    descriptors.push(features.descriptors[feat_idx]);
                }
            }
            // Map updating: add unmatched features with valid depth.
            let matched: std::collections::HashSet<usize> = matched_feats.iter().copied().collect();
            for (i, kp) in features.keypoints.iter().enumerate() {
                if matched.contains(&i) {
                    continue;
                }
                if let Some(z) = depth_at(kp) {
                    let pixel = Vec2::new(kp.x, kp.y);
                    let cam_pt = self.config.camera.unproject(pixel, z);
                    let world = pose_c2w.transform(cam_pt);
                    let landmark =
                        self.map
                            .insert(world, features.descriptors[i], frame, kf_id, pixel);
                    if backend_active {
                        observations.push(KeyframeObservation {
                            landmark,
                            pixel,
                            position: cam_pt,
                        });
                        descriptors.push(features.descriptors[i]);
                    }
                }
            }
            // Cull stale landmarks and enforce the matcher cache budget.
            let culled = self
                .map
                .cull(frame, self.config.map_cull_age, self.config.max_map_points);
            if let Some(t) = &self.telemetry {
                t.count(Counter::LandmarksCulled, culled as u64);
            }
            // Hand the keyframe to the backend: it wires the
            // covisibility graph and dispatches the windowed local BA
            // (inline, or async on the *global* pool — the same
            // reasoning as the dataset prefetcher: the Slam-owned pool
            // runs the extraction levels and matcher rows, whose
            // help-drain loops would otherwise steal the solve onto
            // the tracking thread mid-batch). Landmark positions are
            // snapshotted post-cull, so dropped points never enter the
            // problem.
            if let Some(runner) = self.backend.as_mut() {
                let map = &self.map;
                runner.on_keyframe(
                    eslam_features::pool::WorkerPool::global(),
                    KeyframeData {
                        frame_index: frame,
                        timestamp,
                        pose_w2c: pose_c2w.inverse(),
                        observations,
                        descriptors,
                    },
                    &mut |id| map.position_of(id),
                );
            }
        }

        let workload = ExtractionWorkload::from_pyramid(
            gray.width(),
            gray.height(),
            &self.config.orb.pyramid,
            extraction.candidates as u64,
            extraction.kept as u64,
        );
        let hw_timing = FrameHwTiming {
            fe_ms: self
                .extractor_model
                .extraction_timing(&workload, Workflow::Rescheduled)
                .total_ms(),
            fm_ms: self
                .matcher_model
                .matching_timing(extraction.kept as u64, map_size_before as u64)
                .total_ms(),
        };

        self.trajectory.push(timestamp, pose_c2w);
        self.raw_trajectory.push(timestamp, pose_c2w);
        self.ba_trajectory.push(timestamp, pose_c2w);
        self.frame_index += 1;

        let track_ms = track_start.elapsed().as_secs_f64() * 1e3;
        if let Some(t) = &self.telemetry {
            t.frame_end(track_ms);
        }
        FrameReport {
            index: frame,
            timestamp,
            pose_c2w,
            is_keyframe,
            tracking_ok,
            relocalized,
            raw_matches,
            inliers,
            map_size: self.map.len(),
            extraction,
            hw_timing,
            frame_wait_ms: 0.0,
            track_ms,
            backend_applied,
            loop_closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslam_dataset::sequence::SequenceSpec;

    fn quarter_scale_sequence(idx: usize, frames: usize) -> eslam_dataset::SyntheticSequence {
        SequenceSpec::paper_sequences(frames, 0.25)[idx].build()
    }

    #[test]
    fn bootstrap_creates_keyframe_and_map() {
        let seq = quarter_scale_sequence(0, 2);
        let mut slam = Slam::builder()
            .config(SlamConfig::scaled_for_tests(4.0))
            .build();
        let f = seq.frame(0);
        let report = slam.process(f.timestamp, &f.gray, &f.depth);
        assert!(report.is_keyframe);
        assert!(report.tracking_ok);
        assert!(report.map_size > 50, "map size {}", report.map_size);
        assert_eq!(report.pose_c2w, Se3::identity());
        assert_eq!(slam.keyframes(), 1);
        // Wall-clock split: `process` measures its own tracking time;
        // the frame wait belongs to the caller (run_sequence) and is
        // zero when frames are handed in directly.
        assert!(report.track_ms > 0.0);
        assert_eq!(report.frame_wait_ms, 0.0);
    }

    #[test]
    fn bootstrap_needs_a_landmark() {
        // Frames that add no landmark fail the bootstrap and leave the
        // map empty: zero-size, flat (no features), and textured without
        // any valid depth. The first real frame then bootstraps.
        let seq = quarter_scale_sequence(0, 1);
        let real = seq.frame(0);
        let (w, h) = (real.gray.width(), real.gray.height());
        let mut slam = Slam::builder()
            .config(SlamConfig::scaled_for_tests(4.0))
            .build();
        let flat_depth = DepthImage::from_fn(w, h, |_, _| 5000);
        let blank: [(GrayImage, DepthImage); 4] = [
            (GrayImage::new(0, 0), DepthImage::new(0, 0)),
            (GrayImage::new(40, 0), DepthImage::new(40, 0)),
            (GrayImage::from_fn(w, h, |_, _| 128), flat_depth),
            (real.gray.clone(), DepthImage::new(w, h)),
        ];
        for (i, (gray, depth)) in blank.iter().enumerate() {
            let report = slam.process(i as f64 * 0.03, gray, depth);
            assert!(!report.tracking_ok, "blank frame {i}");
            assert!(!report.is_keyframe, "blank frame {i}");
            assert_eq!(report.map_size, 0, "blank frame {i}");
            assert_eq!(slam.keyframes(), 0, "blank frame {i}");
        }
        let report = slam.process(0.12, &real.gray, &real.depth);
        assert!(report.tracking_ok && report.is_keyframe);
        assert!(report.map_size > 0);
        assert_eq!(report.pose_c2w, Se3::identity());
        assert_eq!(slam.keyframes(), 1);
    }

    /// Crops of `depth` that do not register with its gray frame: half
    /// size, and half width at full height.
    fn unregistered_depths(depth: &DepthImage) -> [DepthImage; 2] {
        let (w, h) = (depth.width(), depth.height());
        [
            DepthImage::from_fn(w / 2, h / 2, |x, y| depth.get(x, y)),
            DepthImage::from_fn(w / 2, h, |x, y| depth.get(x, y)),
        ]
    }

    /// The newest landmark id in the map.
    fn newest_landmark(slam: &Slam) -> Option<u64> {
        slam.map().points().iter().map(|p| p.id).max()
    }

    #[test]
    fn unregistered_depth_cannot_bootstrap() {
        // A depth image of another size than the gray one carries no
        // depth: the bootstrap fails and holds the pose instead of
        // indexing past the depth buffer or reading depths off the wrong
        // pixels. A matching frame then bootstraps.
        let seq = quarter_scale_sequence(0, 1);
        let real = seq.frame(0);
        let mut slam = Slam::builder()
            .config(SlamConfig::scaled_for_tests(4.0))
            .build();
        for (i, depth) in unregistered_depths(&real.depth).iter().enumerate() {
            let report = slam.process(i as f64 * 0.03, &real.gray, depth);
            assert!(!report.tracking_ok, "depth {i}");
            assert!(!report.is_keyframe, "depth {i}");
            assert_eq!(report.map_size, 0, "depth {i}");
            assert_eq!(report.pose_c2w, Se3::identity(), "depth {i}");
        }
        let report = slam.process(0.06, &real.gray, &real.depth);
        assert!(report.tracking_ok && report.is_keyframe);
        assert!(report.map_size > 0);
        assert_eq!(slam.keyframes(), 1);
    }

    #[test]
    fn unregistered_depth_adds_no_landmarks() {
        // Mid-stream, such a frame still tracks on its gray image, but
        // the keyframe it makes adds no landmark; the next matching
        // frame does.
        let seq = quarter_scale_sequence(0, 4);
        let mut cfg = SlamConfig::scaled_for_tests(4.0);
        cfg.keyframe_translation = 0.0; // every tracked frame is a keyframe
        let mut slam = Slam::builder().config(cfg).build();
        let f = seq.frame(0);
        slam.process(f.timestamp, &f.gray, &f.depth);
        for k in 0..2 {
            let f = seq.frame(1 + k);
            let depth = &unregistered_depths(&f.depth)[k];
            let before = newest_landmark(&slam);
            let report = slam.process(f.timestamp, &f.gray, depth);
            assert!(report.tracking_ok && report.is_keyframe, "frame {}", 1 + k);
            assert_eq!(newest_landmark(&slam), before, "frame {}", 1 + k);
        }
        let f = seq.frame(3);
        let before = newest_landmark(&slam);
        let report = slam.process(f.timestamp, &f.gray, &f.depth);
        assert!(report.tracking_ok && report.is_keyframe);
        assert!(newest_landmark(&slam) > before);
    }

    #[test]
    fn tracks_second_frame_of_sequence() {
        let seq = quarter_scale_sequence(0, 3);
        let mut slam = Slam::builder()
            .config(SlamConfig::scaled_for_tests(4.0))
            .build();
        for i in 0..2 {
            let f = seq.frame(i);
            let report = slam.process(f.timestamp, &f.gray, &f.depth);
            assert!(report.tracking_ok, "frame {i} lost tracking");
        }
        // The second frame's pose should be near its ground truth,
        // expressed relative to frame 0 (the world origin of the run).
        let gt0 = seq.trajectory.poses()[0].pose;
        let gt1 = seq.trajectory.poses()[1].pose;
        let rel_truth = gt0.relative_to(&gt1); // frame1 in frame0 coords? see below
        let est1 = slam.trajectory().poses()[1].pose;
        // est1 maps frame-1 camera to the world defined by frame 0, which
        // equals gt0⁻¹ ∘ gt1.
        let expect = gt0.inverse().compose(&gt1);
        let t_err = (est1.translation - expect.translation).norm();
        // At quarter scale (160×120, fx ≈ 129) the pose is weakly
        // constrained: the estimate and the ground truth differ by under
        // 0.01 px of RMS reprojection cost, so several cm of translation
        // sit inside a noise-level ambiguity valley. The motion-prior
        // regularizer (`LmParams::motion_prior_weight`) resolves the
        // valley toward the motion prediction, which cut the measured
        // error on this frame from 0.053 m (prior off — the old
        // workaround threshold was 0.06) to 0.0375 m. Bound at 0.045 m:
        // headroom for legitimate RNG-stream changes, tight enough that
        // losing the prior (or real accuracy regressions) fails.
        assert!(t_err < 0.045, "translation error {t_err}");
        let _ = rel_truth;
    }

    #[test]
    fn accelerator_backend_reports_hw_timing() {
        let seq = quarter_scale_sequence(0, 1);
        let mut slam = Slam::builder()
            .config(SlamConfig::scaled_for_tests(4.0))
            .build();
        let f = seq.frame(0);
        let hw = slam.process(f.timestamp, &f.gray, &f.depth).hw_timing;
        assert!(hw.fe_ms > 0.0);
        // Quarter-scale frames extract faster than the 9.1 ms VGA budget.
        assert!(hw.fe_ms < 9.1);
    }

    #[test]
    fn trajectory_grows_per_frame() {
        let seq = quarter_scale_sequence(4, 3); // rpy
        let mut slam = Slam::builder()
            .config(SlamConfig::scaled_for_tests(4.0))
            .build();
        for f in seq.frames() {
            slam.process(f.timestamp, &f.gray, &f.depth);
        }
        assert_eq!(slam.trajectory().len(), 3);
    }

    #[test]
    fn relocalization_flag_off_during_normal_tracking() {
        let seq = quarter_scale_sequence(0, 4);
        let mut slam = Slam::builder()
            .config(SlamConfig::scaled_for_tests(4.0))
            .build();
        for f in seq.frames() {
            let r = slam.process(f.timestamp, &f.gray, &f.depth);
            assert!(!r.relocalized, "frame {} should not need recovery", r.index);
        }
    }

    #[test]
    fn worker_thread_override_is_clamped() {
        let mut cfg = SlamConfig::scaled_for_tests(4.0);
        cfg.worker_threads = Some(10_000);
        let slam = Slam::builder().config(cfg).build();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(slam.worker_threads(), cores);

        cfg.worker_threads = Some(1);
        assert_eq!(Slam::builder().config(cfg).build().worker_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_worker_threads_rejected() {
        let mut cfg = SlamConfig::scaled_for_tests(4.0);
        cfg.worker_threads = Some(0);
        let _ = Slam::builder().config(cfg).build();
    }

    #[test]
    fn map_respects_capacity() {
        let seq = quarter_scale_sequence(3, 4); // room (wide motion)
        let mut cfg = SlamConfig::scaled_for_tests(4.0);
        cfg.max_map_points = 300;
        cfg.keyframe_translation = 0.0; // every tracked frame is a keyframe
        let mut slam = Slam::builder().config(cfg).build();
        for f in seq.frames() {
            let r = slam.process(f.timestamp, &f.gray, &f.depth);
            assert!(r.map_size <= 300, "map grew to {}", r.map_size);
        }
    }
}
