//! The local mapper: keyframe insertion, covisibility maintenance, and
//! windowed local bundle adjustment — synchronously or asynchronously
//! on the shared [`WorkerPool`].
//!
//! # Execution model
//!
//! The backend follows the classic local-mapping thread pattern with a
//! determinism twist. When a frame is promoted to a keyframe, the
//! tracker hands the backend a [`KeyframeData`] snapshot; the mapper
//! inserts it (updating the covisibility graph), builds a
//! self-contained [`LocalBaJob`] over the last
//! [`BackendConfig::window`] keyframes, and either
//!
//! * runs it inline ([`BackendMode::Sync`]), or
//! * submits it to the worker pool ([`BackendMode::Async`]) via the
//!   fire-and-collect `submit`/`TaskHandle` API, so the solve overlaps
//!   the next frame's acquisition and tracking.
//!
//! Either way the *result* is only handed back through
//! [`BackendRunner::take_refinement`], which the tracker calls at the
//! **next frame boundary** — a deterministic application point. Because
//! the job input is a snapshot, the solver is deterministic, and the
//! application point does not depend on thread timing, the async mode
//! is bit-identical to the sync mode (proven by
//! `tests/backend_equivalence.rs`); asynchrony only moves the solve
//! off the tracking thread's critical path.

use crate::covisibility::CovisibilityGraph;
use crate::keyframe::{KeyframeId, KeyframeObservation, KeyframeStore};
use crate::loop_closure::{LoopClosureConfig, LoopClosureJob, LoopClosureOutcome, LoopDetector};
use eslam_features::pool::{TaskHandle, WorkerPool};
use eslam_features::Descriptor;
use eslam_geometry::ba::{bundle_adjust, BaObservation, BaParams, BaResult};
use eslam_geometry::{PinholeCamera, Se3, Vec3};
use eslam_telemetry::{Counter, Stage, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Execution mode of the keyframe backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendMode {
    /// No backend: track against the flat map exactly as before.
    Off,
    /// Run local BA inline on the tracking thread at each keyframe
    /// (deterministic reference mode; results still apply at the next
    /// frame boundary, so `Sync` and `Async` are bit-identical).
    Sync,
    /// Submit local BA to the worker pool and collect the result at
    /// the next frame boundary (the local-mapping thread pattern;
    /// tracking never blocks unless the solve outlasts a whole frame).
    #[default]
    Async,
}

/// Configuration of the keyframe backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendConfig {
    /// Execution mode.
    pub mode: BackendMode,
    /// Sliding-window size: the last `window` keyframes are jointly
    /// refined (at least 2).
    pub window: usize,
    /// How many of the oldest window poses are held fixed as the
    /// gauge anchor (clamped so at least one pose stays free). Two
    /// fixed poses anchor scale as well as pose; with fewer, the
    /// solver relies on [`BaParams::pose_prior_weight`] to pin the
    /// scale gauge of the reprojection-only problem.
    pub fixed_anchor: usize,
    /// Solver parameters for the windowed bundle adjustment.
    pub ba: BaParams,
    /// Loop closure: place recognition, geometric verification and the
    /// pose-graph correction.
    pub loop_closure: LoopClosureConfig,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            mode: BackendMode::Async,
            window: 5,
            fixed_anchor: 2,
            ba: BaParams {
                // Depth-seeded landmarks start close to truth; a few
                // iterations per keyframe keep the backend well under
                // one frame of budget.
                max_iterations: 8,
                // Anchor each pose (and through the poses, the scale
                // gauge) to the tracked estimate: BA refines, it does
                // not rewrite.
                pose_prior_weight: 25.0,
                // The RGB-D depth residual in prior form: 1000 px²/m²
                // means moving a landmark 3 cm off its depth-seeded
                // position costs ~1 px² — landmarks average multi-view
                // pixel evidence without discarding the depth sensor.
                point_prior_weight: 1000.0,
                ..BaParams::default()
            },
            loop_closure: LoopClosureConfig::default(),
        }
    }
}

/// The keyframe snapshot the tracker hands the backend.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyframeData {
    /// Index of the frame in the processed sequence.
    pub frame_index: usize,
    /// Frame timestamp, seconds.
    pub timestamp: f64,
    /// Tracked world-to-camera pose of the keyframe.
    pub pose_w2c: Se3,
    /// Landmark observations: every map point matched in this frame
    /// plus every point the keyframe created (each carrying its
    /// camera-frame position at promotion).
    pub observations: Vec<KeyframeObservation>,
    /// BRIEF descriptors index-aligned with `observations` (empty
    /// disables place recognition for this keyframe).
    pub descriptors: Vec<Descriptor>,
}

/// A refined keyframe pose, addressed both by keyframe id and by the
/// source frame index (so the tracker can patch its trajectory without
/// consulting the store).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinedKeyframe {
    /// Keyframe id in the store.
    pub id: KeyframeId,
    /// Source frame index in the processed sequence.
    pub frame_index: usize,
    /// BA-refined world-to-camera pose.
    pub pose_w2c: Se3,
}

/// The outcome of one windowed local bundle adjustment.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalBaOutcome {
    /// Refined poses of the window keyframes (fixed anchors included,
    /// unchanged, so the application loop is uniform).
    pub keyframes: Vec<RefinedKeyframe>,
    /// Refined landmark positions by stable id (free landmarks only).
    pub landmarks: Vec<(u64, Vec3)>,
    /// Solver diagnostics.
    pub result: BaResult,
    /// Wall-clock time of the solve, milliseconds (measured on
    /// whichever thread ran it; excluded from the bit-identity
    /// guarantee).
    pub solve_ms: f64,
}

/// A self-contained local-BA problem: owns every input, so it can run
/// on any thread ('static, as [`WorkerPool::submit`] requires).
#[derive(Debug, Clone)]
pub struct LocalBaJob {
    keyframes: Vec<(KeyframeId, usize)>,
    poses: Vec<Se3>,
    fixed_poses: Vec<bool>,
    landmark_ids: Vec<u64>,
    points: Vec<Vec3>,
    fixed_points: Vec<bool>,
    observations: Vec<BaObservation>,
    camera: PinholeCamera,
    params: BaParams,
}

impl LocalBaJob {
    /// Number of window poses in the problem.
    pub fn window(&self) -> usize {
        self.poses.len()
    }

    /// Number of landmarks in the problem.
    pub fn landmarks(&self) -> usize {
        self.points.len()
    }

    /// Number of observations in the problem.
    pub fn observations(&self) -> usize {
        self.observations.len()
    }

    /// Runs the solver to completion and packages the refinement.
    pub fn run(mut self) -> LocalBaOutcome {
        let start = std::time::Instant::now();
        let result = bundle_adjust(
            &mut self.poses,
            &mut self.points,
            &self.observations,
            &self.fixed_poses,
            &self.fixed_points,
            &self.camera,
            &self.params,
        );
        let keyframes = self
            .keyframes
            .iter()
            .zip(&self.poses)
            .map(|(&(id, frame_index), &pose_w2c)| RefinedKeyframe {
                id,
                frame_index,
                pose_w2c,
            })
            .collect();
        let landmarks = self
            .landmark_ids
            .iter()
            .zip(&self.points)
            .zip(&self.fixed_points)
            .filter(|(_, &fixed)| !fixed)
            .map(|((&id, &p), _)| (id, p))
            .collect();
        LocalBaOutcome {
            keyframes,
            landmarks,
            result,
            solve_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// Keyframe bookkeeping: store + covisibility + the inverted
/// landmark→keyframes index, and the local-BA problem builder.
#[derive(Debug, Clone, Default)]
pub struct LocalMapper {
    store: KeyframeStore,
    covisibility: CovisibilityGraph,
    /// Inverted index: landmark id → keyframes observing it, in
    /// insertion order.
    observers: HashMap<u64, Vec<KeyframeId>>,
}

impl LocalMapper {
    /// Creates an empty mapper.
    pub fn new() -> Self {
        LocalMapper::default()
    }

    /// The keyframe store.
    pub fn store(&self) -> &KeyframeStore {
        &self.store
    }

    /// The covisibility graph.
    pub fn covisibility(&self) -> &CovisibilityGraph {
        &self.covisibility
    }

    /// The keyframes observing `landmark`, in insertion order.
    pub fn observers(&self, landmark: u64) -> &[KeyframeId] {
        self.observers.get(&landmark).map_or(&[], |v| v)
    }

    /// Inserts a keyframe, wiring it into the covisibility graph by
    /// counting shared landmarks against every keyframe that already
    /// observes one of its landmarks.
    pub fn insert_keyframe(&mut self, data: KeyframeData) -> KeyframeId {
        let id = self.store.push(
            data.frame_index,
            data.timestamp,
            data.pose_w2c,
            data.observations,
            data.descriptors,
        );
        let node = self.covisibility.add_node();
        debug_assert_eq!(node, id);
        // Count shared landmarks per already-observing keyframe. A
        // BTreeMap keeps the accumulation order deterministic.
        let mut shared: std::collections::BTreeMap<KeyframeId, usize> =
            std::collections::BTreeMap::new();
        for obs in &self.store.get(id).observations {
            let entry = self.observers.entry(obs.landmark).or_default();
            // Two features of one keyframe can match the same landmark;
            // the keyframe still observes it once (no self-edges, no
            // duplicate observer entries — `id` is always the newest,
            // so a duplicate can only sit at the tail).
            if entry.last() == Some(&id) {
                continue;
            }
            for &other in entry.iter() {
                *shared.entry(other).or_insert(0) += 1;
            }
            entry.push(id);
        }
        for (other, count) in shared {
            self.covisibility.accumulate(id, other, count);
        }
        id
    }

    /// Applies a refinement to the stored keyframe poses.
    pub fn apply(&mut self, outcome: &LocalBaOutcome) {
        for kf in &outcome.keyframes {
            self.store.set_pose(kf.id, kf.pose_w2c);
        }
    }

    /// Builds the local-BA problem over the last `config.window`
    /// keyframes. `position_of` resolves a landmark id to its current
    /// map position (`None` for culled landmarks, whose observations
    /// are dropped).
    ///
    /// Returns `None` when the window holds fewer than two keyframes
    /// or no surviving observations.
    pub fn local_ba_job(
        &self,
        config: &BackendConfig,
        camera: &PinholeCamera,
        position_of: &mut dyn FnMut(u64) -> Option<Vec3>,
    ) -> Option<LocalBaJob> {
        let window = self.store.window(config.window.max(2));
        if window.len() < 2 {
            return None;
        }
        // At least one pose free, at least one fixed (the gauge).
        let fixed_count = config.fixed_anchor.clamp(1, window.len() - 1);

        let keyframes: Vec<(KeyframeId, usize)> =
            window.iter().map(|kf| (kf.id, kf.frame_index)).collect();
        let poses: Vec<Se3> = window.iter().map(|kf| kf.pose_w2c).collect();
        let fixed_poses: Vec<bool> = (0..window.len()).map(|i| i < fixed_count).collect();

        // Landmarks in deterministic first-observation order.
        let mut landmark_ids: Vec<u64> = Vec::new();
        let mut points: Vec<Vec3> = Vec::new();
        let mut slot: HashMap<u64, Option<usize>> = HashMap::new();
        // Distinct *poses* observing each landmark — not raw
        // observation count: duplicate observations from one keyframe
        // add no parallax, and a landmark without a second viewpoint
        // must stay fixed (its reprojection Hessian is rank-deficient
        // along the viewing ray).
        let mut pose_count: Vec<usize> = Vec::new();
        let mut last_counted_pose: Vec<usize> = Vec::new();
        let mut observations: Vec<BaObservation> = Vec::new();
        for (pose_idx, kf) in window.iter().enumerate() {
            for obs in &kf.observations {
                let entry = slot.entry(obs.landmark).or_insert_with(|| {
                    position_of(obs.landmark).map(|p| {
                        landmark_ids.push(obs.landmark);
                        points.push(p);
                        pose_count.push(0);
                        last_counted_pose.push(usize::MAX);
                        points.len() - 1
                    })
                });
                let Some(point) = *entry else { continue };
                if last_counted_pose[point] != pose_idx {
                    last_counted_pose[point] = pose_idx;
                    pose_count[point] += 1;
                }
                observations.push(BaObservation {
                    pose: pose_idx,
                    point,
                    pixel: obs.pixel,
                });
            }
        }
        if observations.is_empty() {
            return None;
        }
        // A landmark seen from a single viewpoint inside the window
        // cannot be triangulated by it; keep it fixed so its
        // (depth-seeded) position still constrains the observing pose.
        let fixed_points: Vec<bool> = pose_count.iter().map(|&c| c < 2).collect();

        Some(LocalBaJob {
            keyframes,
            poses,
            fixed_poses,
            landmark_ids,
            points,
            fixed_points,
            observations,
            camera: *camera,
            params: config.ba,
        })
    }
}

/// Aggregate backend diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendStats {
    /// Local-BA solves dispatched.
    pub runs: usize,
    /// Refinements applied back to the map.
    pub applied: usize,
    /// Total accepted LM iterations across all solves.
    pub iterations: usize,
    /// Keyframe poses refined (window members, cumulative).
    pub refined_keyframes: usize,
    /// Landmark positions refined (cumulative).
    pub refined_landmarks: usize,
    /// Total solver wall-clock time, ms (on whichever thread ran it).
    pub solve_ms: f64,
    /// Total wall-clock time the *application points* spent blocked
    /// collecting solves, ms. Near zero when solves finish within a
    /// frame (or run inline in sync mode, where the collect is just a
    /// buffer take); grows when an async solve outlasts its frame and
    /// the next frame has to wait for it.
    pub join_wait_ms: f64,
    /// Initial cost of the most recent solve.
    pub last_initial_cost: f64,
    /// Final cost of the most recent solve.
    pub last_final_cost: f64,
    /// Loop verifications dispatched (consistent gated candidates).
    pub loop_candidates: usize,
    /// Loops that passed geometric verification and produced a
    /// pose-graph correction.
    pub loops_closed: usize,
    /// Loop candidates rejected by geometric verification.
    pub loops_rejected: usize,
    /// Cross-checked matches of the most recent verification.
    pub last_loop_matches: usize,
    /// PnP inliers of the most recent verification.
    pub last_loop_inliers: usize,
    /// Accepted pose-graph LM iterations across all closures.
    pub pose_graph_iterations: usize,
    /// Total loop verification + solve wall-clock, ms (on whichever
    /// thread ran it).
    pub loop_solve_ms: f64,
}

/// One dispatched job (a local-BA solve, or a loop verification +
/// correction), either in flight or already finished.
enum Pending<T> {
    /// Running (or queued) on the worker pool.
    Handle(TaskHandle<T>),
    /// Solved inline (sync mode), waiting for its application point.
    Ready(Box<T>),
}

impl<T> std::fmt::Debug for Pending<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pending::Handle(h) => f.debug_tuple("Handle").field(h).finish(),
            Pending::Ready(_) => f.debug_tuple("Ready").finish(),
        }
    }
}

/// Drives the mapper under the configured execution mode and owns the
/// in-flight solve.
///
/// The tracker calls [`BackendRunner::take_refinement`] at the start of
/// every frame (the deterministic application point) and
/// [`BackendRunner::on_keyframe`] whenever a frame is promoted. In
/// steady state at most one solve is pending; the queue exists so
/// callers that skip application points still never lose a result.
#[derive(Debug)]
pub struct BackendRunner {
    mapper: LocalMapper,
    config: BackendConfig,
    camera: PinholeCamera,
    pending: VecDeque<Pending<LocalBaOutcome>>,
    /// Place recognition state; `None` when loop closure is disabled.
    detector: Option<LoopDetector>,
    pending_loops: VecDeque<Pending<LoopClosureOutcome>>,
    stats: BackendStats,
    /// Telemetry sink backend stages record into; `None` → off.
    telemetry: Option<Arc<Telemetry>>,
}

impl BackendRunner {
    /// Creates a runner for the configured mode, or `None` when it is
    /// [`BackendMode::Off`].
    pub fn new(config: BackendConfig, camera: PinholeCamera) -> Option<Self> {
        if config.mode == BackendMode::Off {
            return None;
        }
        Some(BackendRunner {
            mapper: LocalMapper::new(),
            camera,
            pending: VecDeque::new(),
            detector: config
                .loop_closure
                .enabled
                .then(|| LoopDetector::new(config.loop_closure)),
            pending_loops: VecDeque::new(),
            config,
            stats: BackendStats::default(),
            telemetry: None,
        })
    }

    /// Attaches (or detaches) the telemetry sink backend spans and
    /// counters record into. Telemetry observes only — job scheduling
    /// and solve results are bit-identical with and without a sink.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    /// The mapper (keyframe store + covisibility graph).
    pub fn mapper(&self) -> &LocalMapper {
        &self.mapper
    }

    /// Whether solves run on the worker pool rather than inline.
    pub fn is_async(&self) -> bool {
        self.config.mode == BackendMode::Async
    }

    /// Aggregate diagnostics.
    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    /// Whether a local-BA solve is waiting for its application point.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Inserts a keyframe and drives the whole backend step: place
    /// recognition (possibly dispatching a loop verification +
    /// pose-graph job) and the windowed local BA — jobs run inline in
    /// sync mode, on `pool` in async mode. `position_of` resolves
    /// landmark ids to current map positions for the problem
    /// snapshots.
    pub fn on_keyframe(
        &mut self,
        pool: &WorkerPool,
        data: KeyframeData,
        position_of: &mut dyn FnMut(u64) -> Option<Vec3>,
    ) {
        let id = self.mapper.insert_keyframe(data);
        // Place recognition on the tracking thread (cheap, state must
        // evolve deterministically); verification + pose graph as a
        // dispatched job.
        if let Some(detector) = self.detector.as_mut() {
            let candidate = {
                let _span = Telemetry::span_opt(self.telemetry.as_deref(), Stage::LoopDetect);
                detector.observe(
                    self.mapper.store(),
                    self.mapper.covisibility(),
                    id,
                    &mut |landmark| position_of(landmark).is_some(),
                )
            };
            if let Some(candidate) = candidate {
                let job = LoopClosureJob::snapshot(
                    candidate,
                    self.mapper.store(),
                    self.mapper.covisibility(),
                    &self.camera,
                    &self.config.loop_closure,
                    position_of,
                );
                self.stats.loop_candidates += 1;
                if let Some(t) = &self.telemetry {
                    t.count(Counter::LoopCandidates, 1);
                }
                let pending = self.dispatch(pool, Stage::LoopVerify, move || job.run());
                self.pending_loops.push_back(pending);
            }
        }
        let Some(job) = self
            .mapper
            .local_ba_job(&self.config, &self.camera, position_of)
        else {
            return;
        };
        self.stats.runs += 1;
        let pending = self.dispatch(pool, Stage::BackendSolve, move || job.run());
        self.pending.push_back(pending);
    }

    /// Runs `job` under a `stage` span: on `pool` in async mode, inline
    /// in sync mode. The telemetry `Arc` travels into the job, so the
    /// span times it on whichever thread runs it.
    fn dispatch<T: Send + 'static>(
        &self,
        pool: &WorkerPool,
        stage: Stage,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Pending<T> {
        let telemetry = self
            .telemetry
            .as_ref()
            .filter(|t| t.timing())
            .map(Arc::clone);
        let run = move || {
            let _span = Telemetry::span_opt(telemetry.as_deref(), stage);
            job()
        };
        if self.is_async() {
            Pending::Handle(pool.submit(run))
        } else {
            Pending::Ready(Box::new(run()))
        }
    }

    /// Collects a dispatched job's outcome, blocking (help-draining the
    /// pool) while it still runs, and books the wait as join time.
    fn collect<T>(&mut self, pending: Pending<T>) -> T {
        let collect_start = std::time::Instant::now();
        let outcome = match pending {
            Pending::Handle(handle) => handle.join(),
            Pending::Ready(ready) => *ready,
        };
        self.stats.join_wait_ms += collect_start.elapsed().as_secs_f64() * 1e3;
        if let Some(t) = &self.telemetry {
            t.record_since(Stage::BackendJoin, collect_start);
        }
        outcome
    }

    /// Collects the oldest dispatched solve, applying its poses to the
    /// keyframe store, and hands it to the caller to swap into the map
    /// and trajectory. Blocks (help-draining the pool) if the solve is
    /// still running — the deterministic application point must not
    /// depend on whether the solve happened to finish in time.
    ///
    /// Returns `None` when nothing is pending.
    pub fn take_refinement(&mut self) -> Option<LocalBaOutcome> {
        let pending = self.pending.pop_front()?;
        let outcome = self.collect(pending);
        self.mapper.apply(&outcome);
        self.stats.applied += 1;
        self.stats.iterations += outcome.result.iterations;
        self.stats.refined_keyframes += outcome.keyframes.len();
        self.stats.refined_landmarks += outcome.landmarks.len();
        self.stats.solve_ms += outcome.solve_ms;
        self.stats.last_initial_cost = outcome.result.initial_cost;
        self.stats.last_final_cost = outcome.result.final_cost;
        Some(outcome)
    }

    /// Collects the oldest dispatched loop verification. An accepted
    /// outcome's corrected poses are swapped into the keyframe store;
    /// either way the outcome is handed to the caller (who propagates
    /// accepted corrections into the map and trajectory). Blocks
    /// (help-draining the pool) while the job is still running — the
    /// application point must not depend on scheduler timing.
    ///
    /// Returns `None` when nothing is pending.
    pub fn take_loop_closure(&mut self) -> Option<LoopClosureOutcome> {
        let pending = self.pending_loops.pop_front()?;
        let outcome = self.collect(pending);
        if let Some(t) = &self.telemetry {
            t.count(
                if outcome.accepted {
                    Counter::LoopClosuresAccepted
                } else {
                    Counter::LoopClosuresRejected
                },
                1,
            );
        }
        self.stats.last_loop_matches = outcome.matches;
        self.stats.last_loop_inliers = outcome.inliers;
        self.stats.loop_solve_ms += outcome.solve_ms;
        if outcome.accepted {
            self.stats.loops_closed += 1;
            if let Some(result) = &outcome.result {
                self.stats.pose_graph_iterations += result.iterations;
            }
            for kf in &outcome.keyframes {
                self.mapper.store.set_pose(kf.id, kf.pose_w2c);
            }
        } else {
            self.stats.loops_rejected += 1;
        }
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyframe::KeyframeObservation;

    fn camera() -> PinholeCamera {
        PinholeCamera::tum_fr1()
    }

    /// A two-keyframe scene over a shared landmark grid, with the
    /// second pose perturbed away from its ground truth.
    fn scene() -> (Vec<Vec3>, Se3, Se3, KeyframeData, KeyframeData) {
        let camera = camera();
        let truth0 = Se3::identity();
        let truth1 = Se3::from_translation(Vec3::new(0.15, -0.05, 0.02));
        let points: Vec<Vec3> = (0..40)
            .map(|i| {
                Vec3::new(
                    ((i % 8) as f64) * 0.35 - 1.2,
                    ((i / 8) as f64) * 0.35 - 0.8,
                    2.5 + ((i * 7) % 5) as f64 * 0.3,
                )
            })
            .collect();
        let obs_from = |pose: &Se3| -> Vec<KeyframeObservation> {
            points
                .iter()
                .enumerate()
                .filter_map(|(i, p)| {
                    let cam = pose.transform(*p);
                    camera.project(cam).map(|uv| KeyframeObservation {
                        landmark: i as u64,
                        pixel: uv,
                        position: cam,
                    })
                })
                .collect()
        };
        let kf0 = KeyframeData {
            frame_index: 0,
            timestamp: 0.0,
            pose_w2c: truth0,
            observations: obs_from(&truth0),
            descriptors: Vec::new(),
        };
        let kf1 = KeyframeData {
            frame_index: 4,
            timestamp: 0.133,
            // Tracked pose is off-truth: BA should pull it back.
            pose_w2c: Se3::from_translation(truth1.translation + Vec3::new(0.02, -0.015, 0.01)),
            observations: obs_from(&truth1),
            descriptors: Vec::new(),
        };
        (points, truth0, truth1, kf0, kf1)
    }

    #[test]
    fn insert_maintains_covisibility_and_observers() {
        let (_, _, _, kf0, kf1) = scene();
        let shared = kf1
            .observations
            .iter()
            .filter(|o| kf0.observations.iter().any(|p| p.landmark == o.landmark))
            .count();
        let mut mapper = LocalMapper::new();
        let a = mapper.insert_keyframe(kf0);
        let b = mapper.insert_keyframe(kf1);
        assert_eq!((a, b), (0, 1));
        assert_eq!(mapper.covisibility().weight(0, 1), shared);
        assert_eq!(mapper.covisibility().weight(1, 0), shared);
        assert_eq!(mapper.observers(0), &[0, 1]);
        assert_eq!(mapper.store().len(), 2);
    }

    #[test]
    fn local_ba_needs_two_keyframes() {
        let (points, _, _, kf0, _) = scene();
        let mut mapper = LocalMapper::new();
        mapper.insert_keyframe(kf0);
        let job = mapper.local_ba_job(&BackendConfig::default(), &camera(), &mut |id| {
            points.get(id as usize).copied()
        });
        assert!(job.is_none());
    }

    #[test]
    fn culled_landmarks_are_dropped_from_the_problem() {
        let (points, _, _, kf0, kf1) = scene();
        let mut mapper = LocalMapper::new();
        mapper.insert_keyframe(kf0);
        mapper.insert_keyframe(kf1);
        // Landmarks 0..10 have been culled from the map.
        let job = mapper
            .local_ba_job(&BackendConfig::default(), &camera(), &mut |id| {
                (id >= 10).then(|| points[id as usize])
            })
            .expect("job");
        assert_eq!(job.landmarks(), points.len() - 10);
        assert!(job.observations() > 0);
    }

    #[test]
    fn sync_runner_refines_the_tracked_pose() {
        let (points, _, truth1, kf0, kf1) = scene();
        let config = BackendConfig {
            mode: BackendMode::Sync,
            ..Default::default()
        };
        let tracked = kf1.pose_w2c;
        let mut runner = BackendRunner::new(config, camera()).unwrap();
        let pool = WorkerPool::new(1);
        let mut lookup = |id: u64| points.get(id as usize).copied();
        runner.on_keyframe(&pool, kf0, &mut lookup);
        assert!(!runner.has_pending(), "single keyframe cannot BA");
        runner.on_keyframe(&pool, kf1, &mut lookup);
        assert!(runner.has_pending());
        let outcome = runner.take_refinement().expect("refinement");
        assert!(runner.take_refinement().is_none());
        assert_eq!(outcome.keyframes.len(), 2);
        let refined = outcome.keyframes[1].pose_w2c;
        let before = (tracked.translation - truth1.translation).norm();
        let after = (refined.translation - truth1.translation).norm();
        // Full recovery is not expected: the pose prior deliberately
        // anchors toward the tracked pose, and the free landmarks
        // absorb part of the discrepancy — but the error must shrink
        // decisively.
        assert!(
            after < before * 0.5,
            "BA should shrink the pose error: {before} -> {after}"
        );
        // The store carries the refined pose.
        assert_eq!(runner.mapper().store().get(1).pose_w2c, refined);
        assert_eq!(runner.stats().applied, 1);
        assert!(runner.stats().last_final_cost <= runner.stats().last_initial_cost);
    }

    #[test]
    fn async_runner_matches_sync_runner_bitwise() {
        let (points, _, _, kf0, kf1) = scene();
        let run = |mode: BackendMode, threads: usize| {
            let config = BackendConfig {
                mode,
                ..Default::default()
            };
            let mut runner = BackendRunner::new(config, camera()).unwrap();
            let pool = WorkerPool::new(threads);
            let mut lookup = |id: u64| points.get(id as usize).copied();
            runner.on_keyframe(&pool, kf0.clone(), &mut lookup);
            runner.on_keyframe(&pool, kf1.clone(), &mut lookup);
            runner.take_refinement().expect("refinement")
        };
        let sync = run(BackendMode::Sync, 1);
        for threads in [1, 2, 4] {
            let theirs = run(BackendMode::Async, threads);
            assert_eq!(sync.keyframes, theirs.keyframes, "{threads} threads");
            assert_eq!(sync.landmarks, theirs.landmarks, "{threads} threads");
            assert_eq!(sync.result, theirs.result, "{threads} threads");
        }
    }

    #[test]
    fn off_mode_yields_no_runner() {
        let config = BackendConfig {
            mode: BackendMode::Off,
            ..Default::default()
        };
        assert!(BackendRunner::new(config, camera()).is_none());
    }

    #[test]
    fn duplicate_observations_from_one_keyframe_do_not_free_a_point() {
        // Two features of the same keyframe matching one landmark add
        // no parallax: the landmark is still single-view and must stay
        // fixed in the window problem.
        let (points, _, _, mut kf0, mut kf1) = scene();
        kf1.observations.retain(|o| o.landmark != 0);
        let first = kf0
            .observations
            .iter()
            .find(|o| o.landmark == 0)
            .copied()
            .expect("kf0 sees landmark 0");
        kf0.observations.push(KeyframeObservation {
            landmark: 0,
            pixel: eslam_geometry::Vec2::new(first.pixel.x + 0.5, first.pixel.y),
            position: first.position,
        });
        let mut mapper = LocalMapper::new();
        mapper.insert_keyframe(kf0);
        mapper.insert_keyframe(kf1);
        let job = mapper
            .local_ba_job(&BackendConfig::default(), &camera(), &mut |id| {
                points.get(id as usize).copied()
            })
            .expect("job");
        let outcome = job.run();
        assert!(
            outcome.landmarks.iter().all(|&(id, _)| id != 0),
            "single-view landmark freed by duplicate observations"
        );
    }

    #[test]
    fn single_window_observation_points_stay_fixed() {
        let (points, _, _, kf0, mut kf1) = scene();
        // Landmark 0 is only seen by kf0 within the window.
        kf1.observations.retain(|o| o.landmark != 0);
        let mut mapper = LocalMapper::new();
        mapper.insert_keyframe(kf0);
        mapper.insert_keyframe(kf1);
        let job = mapper
            .local_ba_job(&BackendConfig::default(), &camera(), &mut |id| {
                points.get(id as usize).copied()
            })
            .expect("job");
        let outcome = job.run();
        assert!(
            outcome.landmarks.iter().all(|&(id, _)| id != 0),
            "fixed landmark must not be reported as refined"
        );
    }

    #[test]
    fn redundant_keyframes_keep_their_ids() {
        // Eight identical keyframes with descriptors, the loop detector
        // active: every landmark is seen by every keyframe, yet each
        // keyframe keeps the id it was inserted with.
        let camera = camera();
        let pose = Se3::identity();
        let points: Vec<Vec3> = (0..30)
            .map(|i| {
                Vec3::new(
                    ((i % 6) as f64) * 0.4 - 1.0,
                    ((i / 6) as f64) * 0.4 - 1.0,
                    3.0,
                )
            })
            .collect();
        let config = BackendConfig {
            mode: BackendMode::Sync,
            ..Default::default()
        };
        assert!(config.loop_closure.enabled);
        let mut runner = BackendRunner::new(config, camera).unwrap();
        let pool = WorkerPool::new(1);
        let insert = |runner: &mut BackendRunner, k: usize| {
            let mut observations = Vec::new();
            let mut descriptors = Vec::new();
            for (i, p) in points.iter().enumerate() {
                let cam = pose.transform(*p);
                if let Some(uv) = camera.project(cam) {
                    observations.push(KeyframeObservation {
                        landmark: i as u64,
                        pixel: uv,
                        position: cam,
                    });
                    descriptors.push(Descriptor::from_words([i as u64, 1, 2, 3]));
                }
            }
            runner.on_keyframe(
                &pool,
                KeyframeData {
                    frame_index: k,
                    timestamp: k as f64 / 30.0,
                    pose_w2c: pose,
                    observations,
                    descriptors,
                },
                &mut |id| points.get(id as usize).copied(),
            );
            // Drain at every boundary like the tracker does.
            while runner.take_refinement().is_some() {}
            while runner.take_loop_closure().is_some() {}
        };
        for k in 0..8 {
            insert(&mut runner, k);
        }
        let store = runner.mapper().store();
        assert_eq!(store.len(), 8);
        for (k, kf) in store.keyframes().iter().enumerate() {
            assert_eq!((kf.id, kf.frame_index), (k, k));
        }
        let covisibility = runner.mapper().covisibility();
        assert_eq!(covisibility.len(), 8);
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    assert_eq!(covisibility.weight(a, b), 30, "pair ({a}, {b})");
                }
            }
        }
        insert(&mut runner, 8);
        let newest = runner.mapper().store().last().expect("nine keyframes");
        assert_eq!((newest.id, newest.frame_index), (8, 8));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Whatever observation structure keyframes arrive with,
            /// insertion keeps store ids dense and aligned with the
            /// covisibility graph, keeps the graph symmetric with weights
            /// equal to the shared landmarks, keeps the observer index
            /// consistent with the store, and leaves the windowed-BA
            /// problem builder functional.
            #[test]
            fn insertion_preserves_backend_invariants(
                // keyframes as landmark-id lists (a small id space forces
                // heavy sharing).
                frames in proptest::collection::vec(
                    proptest::collection::vec(0u64..12, 1..10), 3..12),
            ) {
                let camera = camera();
                let mut mapper = LocalMapper::new();
                for (k, landmarks) in frames.iter().enumerate() {
                    let observations: Vec<KeyframeObservation> = landmarks
                        .iter()
                        .map(|&l| KeyframeObservation {
                            landmark: l,
                            pixel: eslam_geometry::Vec2::new(
                                40.0 + (l % 5) as f64 * 90.0,
                                40.0 + (l / 5) as f64 * 90.0,
                            ),
                            position: Vec3::new(l as f64 * 0.1, 0.0, 2.0),
                        })
                        .collect();
                    mapper.insert_keyframe(KeyframeData {
                        frame_index: k,
                        timestamp: k as f64,
                        pose_w2c: Se3::identity(),
                        observations,
                        descriptors: Vec::new(),
                    });
                }
                let store = mapper.store();
                let cov = mapper.covisibility();
                // Ids dense and aligned across store and graph.
                prop_assert_eq!(store.len(), cov.len());
                for (i, kf) in store.keyframes().iter().enumerate() {
                    prop_assert_eq!(kf.id, i);
                }
                // Symmetry + neighbour/weight consistency.
                for a in 0..cov.len() {
                    for b in 0..cov.len() {
                        if a != b {
                            prop_assert_eq!(cov.weight(a, b), cov.weight(b, a));
                        }
                    }
                    for (b, w) in cov.neighbors(a, 1) {
                        prop_assert_eq!(cov.weight(a, b), w);
                    }
                }
                // Edge weights equal recomputed shared-landmark counts.
                for a in 0..store.len() {
                    for b in (a + 1)..store.len() {
                        let la: std::collections::BTreeSet<u64> = store.get(a)
                            .observations.iter().map(|o| o.landmark).collect();
                        let shared = store.get(b).observations.iter()
                            .map(|o| o.landmark)
                            .collect::<std::collections::BTreeSet<u64>>()
                            .intersection(&la).count();
                        prop_assert_eq!(cov.weight(a, b), shared, "pair ({},{})", a, b);
                    }
                }
                // The observer index agrees with the store.
                for kf in store.keyframes() {
                    for obs in &kf.observations {
                        prop_assert!(mapper.observers(obs.landmark).contains(&kf.id));
                    }
                }
                // The windowed-BA problem builder works (every case has
                // at least three keyframes).
                let job = mapper.local_ba_job(
                    &BackendConfig::default(),
                    &camera,
                    &mut |id| Some(Vec3::new(id as f64 * 0.1, 0.0, 2.0)),
                );
                prop_assert!(job.is_some_and(|job| job.observations() > 0));
            }
        }
    }
}
