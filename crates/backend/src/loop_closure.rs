//! Loop closure: place recognition over the keyframe store, geometric
//! verification, and the Se(3) pose-graph correction.
//!
//! The pipeline turns locally-consistent odometry into a globally
//! consistent map in four stages, mirroring ORB-SLAM's loop thread:
//!
//! 1. **Candidate retrieval** — every keyframe is quantized into a
//!    BoW vector over an online-trained binary vocabulary
//!    (`eslam_features::bow`), retrieved through the inverted word →
//!    keyframe index the relocalizer uses too. Before the vocabulary has
//!    enough training descriptors, a brute-force SIMD
//!    descriptor-matching fallback scores the (gated) candidates
//!    directly.
//! 2. **Gating** — a candidate must be temporally distant (keyframe-id
//!    gap), **covisibility-distant** (outside the BFS neighbourhood of
//!    the current keyframe: a place the graph already connects you to
//!    is not a loop), and must out-score the current keyframe's own
//!    covisible neighbours. A candidate region must persist over
//!    [`LoopClosureConfig::consistency`] consecutive keyframes before
//!    it is trusted (temporal consistency).
//! 3. **Geometric verification** — descriptors of the two keyframes are
//!    cross-checked-matched (the one-pass mutual-nearest SIMD search),
//!    and the matches feed the existing P3P + RANSAC pipeline against
//!    the candidate's *camera-frame* landmark positions (recorded at
//!    promotion, so the check is drift-free and survives map culling).
//!    Success yields the measured relative pose `Z = T_cur ∘ T_cand⁻¹`.
//! 4. **Pose-graph correction** — odometry + strong-covisibility edges
//!    snapshot the trajectory as tracked; the verified loop edge pulls
//!    its two ends together and `eslam_geometry::pose_graph`
//!    redistributes the accumulated drift. The outcome carries
//!    corrected keyframe poses *and* re-anchored landmark positions
//!    (each landmark rides with its most recent observing keyframe).
//!
//! Stages 3–4 are packaged as a self-contained [`LoopClosureJob`]
//! (owned snapshot, `'static`) so the runner can execute them inline
//! or on the persistent worker pool with bit-identical results; stage
//! 1–2 run on the tracking thread at keyframe insertion (they are
//! cheap and their state must evolve deterministically).

use crate::bow_index::BowIndex;
use crate::covisibility::CovisibilityGraph;
use crate::keyframe::{KeyframeId, KeyframeStore};
use eslam_features::bow::{BowParams, BowVector, Vocabulary};
use eslam_features::matcher::{active_kernel, match_mutual_with_kernel, MatchKernel};
use eslam_features::Descriptor;
use eslam_geometry::pnp::{solve_pnp_ransac, PnpParams};
use eslam_geometry::pose_graph::{
    optimize_pose_graph, PoseGraphEdge, PoseGraphParams, PoseGraphResult,
};
use eslam_geometry::{PinholeCamera, Se3, Vec2, Vec3};
use std::collections::HashMap;

/// Configuration of the loop-closure pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopClosureConfig {
    /// Whether loop detection runs at all.
    pub enabled: bool,
    /// Vocabulary shape (branching/levels/k-medians rounds).
    pub bow: BowParams,
    /// Pooled keyframe descriptors required before the vocabulary is
    /// trained (the brute-force fallback scores candidates until then).
    pub min_training_descriptors: usize,
    /// Minimum keyframe-id gap between the current keyframe and a
    /// candidate (temporal gate).
    pub min_keyframe_gap: usize,
    /// Candidates within this many covisibility-graph hops of the
    /// current keyframe are rejected. Hop distance is the proxy for
    /// accumulated drift: a place a few hops away is locally consistent
    /// already (the sliding-window BA covers it), while a genuine loop
    /// reconnects regions many hops apart, where only a pose-graph
    /// correction can reconcile the accumulated error.
    pub covisibility_distance: usize,
    /// Minimum edge weight for a hop to count in the gating BFS.
    pub covisibility_min_weight: usize,
    /// A candidate is only a *loop* if the map has forgotten it:
    /// candidates with more than this fraction of their observed
    /// landmarks still alive in the front-end map are rejected —
    /// tracking re-matches live landmarks directly, so a revisit the
    /// map still covers needs no place recognition (this is what keeps
    /// fr1/room's continuously-mapped sweep from closing a redundant
    /// loop while a genuinely forgotten place still fires).
    pub max_alive_fraction: f64,
    /// Absolute floor on the candidate score: the cross-checked
    /// descriptor match fraction (matches / current descriptors).
    pub min_similarity: f64,
    /// How many of the best BoW-ranked candidates are re-scored with
    /// the exact (cross-checked SIMD) descriptor match fraction. BoW
    /// alone ranks; the match fraction decides — an online-trained
    /// vocabulary is small, and places unseen at training time can
    /// collapse onto shared words, so word overlap is a retrieval
    /// signal, not a detection score.
    pub max_bow_candidates: usize,
    /// Consecutive keyframes whose best candidate falls in the same
    /// covisibility group before verification is dispatched.
    pub consistency: usize,
    /// Maximum Hamming distance for a verification descriptor match.
    pub match_max_distance: u32,
    /// Minimum cross-checked matches to attempt PnP.
    pub min_matches: usize,
    /// Minimum PnP inliers for the loop to be accepted.
    pub min_inliers: usize,
    /// Robust PnP configuration for geometric verification.
    pub pnp: PnpParams,
    /// Pose-graph solver parameters.
    pub pose_graph: PoseGraphParams,
    /// Weight of consecutive-keyframe (odometry) edges.
    pub odometry_weight: f64,
    /// Minimum shared-observation count for a covisibility pair to add
    /// a pose-graph edge (beyond the consecutive chain).
    pub covisibility_edge_min_weight: usize,
    /// Weight of those covisibility edges.
    pub covisibility_edge_weight: f64,
    /// Weight of the verified loop edge.
    pub loop_edge_weight: f64,
    /// Keyframes after a dispatched verification before the detector
    /// may fire again (suppresses re-detecting the same loop while the
    /// correction settles).
    pub cooldown: usize,
}

impl Default for LoopClosureConfig {
    fn default() -> Self {
        LoopClosureConfig {
            enabled: true,
            bow: BowParams::default(),
            min_training_descriptors: 512,
            min_keyframe_gap: 8,
            covisibility_distance: 6,
            covisibility_min_weight: 1,
            max_alive_fraction: 0.4,
            min_similarity: 0.15,
            max_bow_candidates: 3,
            consistency: 2,
            match_max_distance: 64,
            min_matches: 20,
            min_inliers: 12,
            pnp: PnpParams::default(),
            pose_graph: PoseGraphParams::default(),
            odometry_weight: 1.0,
            covisibility_edge_min_weight: 30,
            covisibility_edge_weight: 1.0,
            loop_edge_weight: 3.0,
            cooldown: 10,
        }
    }
}

/// A gated, temporally-consistent loop candidate awaiting geometric
/// verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopCandidate {
    /// The keyframe that (re)visits the place.
    pub current: KeyframeId,
    /// The stored keyframe it appears to revisit.
    pub candidate: KeyframeId,
    /// Cross-checked descriptor match fraction against the current
    /// keyframe (matches / current descriptors).
    pub score: f64,
    /// Whether the vocabulary ranked the candidate (false = the
    /// brute-force fallback scored every gated keyframe).
    pub bow_backed: bool,
}

/// Place-recognition state: the online vocabulary, the BoW keyframe
/// index, and the temporal-consistency tracker.
#[derive(Debug, Clone)]
pub struct LoopDetector {
    config: LoopClosureConfig,
    vocabulary: Option<Vocabulary>,
    /// Descriptors pooled for vocabulary training (until trained).
    training: Vec<Descriptor>,
    /// Per-keyframe BoW vectors, store-id aligned (empty vectors before
    /// the vocabulary exists), with their inverted word index.
    index: BowIndex,
    /// Covisibility group of the previous keyframe's best candidate.
    last_group: Vec<KeyframeId>,
    /// Consecutive keyframes agreeing on that group.
    consistency: usize,
    /// Keyframe id before which detection is suppressed.
    cooldown_until: KeyframeId,
}

impl LoopDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: LoopClosureConfig) -> Self {
        LoopDetector {
            config,
            vocabulary: None,
            training: Vec::new(),
            index: BowIndex::default(),
            last_group: Vec::new(),
            consistency: 0,
            cooldown_until: 0,
        }
    }

    /// Whether the vocabulary has been trained (false = the detector is
    /// still pooling descriptors and scoring via brute force).
    pub fn vocabulary_ready(&self) -> bool {
        self.vocabulary.is_some()
    }

    /// Ingests the freshly inserted keyframe `id` (must be the newest
    /// store entry), updates the vocabulary/BoW state, and returns a
    /// temporally-consistent, gated loop candidate if one emerges.
    /// `landmark_alive` reports whether a landmark id is still in the
    /// front-end map (the forgotten-place gate).
    pub fn observe(
        &mut self,
        store: &KeyframeStore,
        covisibility: &CovisibilityGraph,
        id: KeyframeId,
        landmark_alive: &mut dyn FnMut(u64) -> bool,
    ) -> Option<LoopCandidate> {
        debug_assert_eq!(id + 1, store.len(), "observe expects the newest keyframe");
        let descriptors = &store.get(id).descriptors;

        // Vocabulary bookkeeping: pool until trainable, then quantize
        // everything seen so far (including this keyframe) in id order.
        if self.vocabulary.is_none() {
            self.training.extend_from_slice(descriptors);
            if self.training.len() >= self.config.min_training_descriptors {
                if let Some(vocab) = Vocabulary::train(&self.training, &self.config.bow) {
                    self.vocabulary = Some(vocab);
                    self.training = Vec::new();
                    self.index = BowIndex::default();
                    for kf in store.keyframes() {
                        self.index_keyframe(kf.id, &kf.descriptors);
                    }
                }
            }
            if self.vocabulary.is_none() {
                self.index.push(BowVector::empty());
            }
        } else {
            self.index_keyframe(id, descriptors);
        }
        debug_assert_eq!(self.index.len(), store.len());

        if descriptors.is_empty() {
            self.reset_consistency();
            return None;
        }

        // Gating: temporally near or covisibility-connected keyframes
        // are not loop candidates.
        let connected = covisibility.within_distance(
            id,
            self.config.covisibility_distance,
            self.config.covisibility_min_weight,
        );
        let max_alive = self.config.max_alive_fraction;
        let mut gated = |c: KeyframeId| -> bool {
            if id.saturating_sub(c) < self.config.min_keyframe_gap.max(1)
                || connected.binary_search(&c).is_ok()
                || store.get(c).descriptors.is_empty()
            {
                return false;
            }
            // Forgotten-place gate: a candidate whose landmarks mostly
            // survive in the live map is a place ordinary map-based
            // tracking still covers, not a loop.
            let observations = &store.get(c).observations;
            if observations.is_empty() {
                return false;
            }
            let alive = observations
                .iter()
                .filter(|o| landmark_alive(o.landmark))
                .count();
            (alive as f64) <= max_alive * (observations.len() as f64)
        };

        // The vocabulary ranks a few candidates; until it is trained,
        // every gated keyframe is one, in id order.
        let bow_backed = self.vocabulary.is_some();
        let best = if bow_backed {
            let ranked = self.bow_ranked(id, covisibility, &mut gated);
            self.best_match(store, id, ranked)
        } else {
            let gated_ids = (0..store.len()).filter(|&c| c != id && gated(c));
            self.best_match(store, id, gated_ids)
        };

        let Some((candidate, score)) = best else {
            self.reset_consistency();
            return None;
        };

        // Temporal consistency: the candidate's covisibility group must
        // overlap the group seen at the previous keyframe.
        let group = covisibility.within_distance(candidate, 1, 1);
        let overlaps = self
            .last_group
            .iter()
            .any(|g| group.binary_search(g).is_ok());
        self.consistency = if overlaps { self.consistency + 1 } else { 1 };
        self.last_group = group;
        if self.consistency < self.config.consistency.max(1) || id < self.cooldown_until {
            return None;
        }
        self.cooldown_until = id + self.config.cooldown;
        self.reset_consistency();
        Some(LoopCandidate {
            current: id,
            candidate,
            score,
            bow_backed,
        })
    }

    /// Quantizes and indexes one keyframe's descriptors.
    fn index_keyframe(&mut self, id: KeyframeId, descriptors: &[Descriptor]) {
        let vocab = self.vocabulary.as_ref().expect("vocabulary trained");
        let pushed = self.index.push(vocab.vector_of(descriptors));
        debug_assert_eq!(pushed, id);
    }

    fn reset_consistency(&mut self) {
        self.consistency = 0;
        self.last_group = Vec::new();
    }

    /// The gated keyframes whose BoW vectors, retrieved through the
    /// inverted index, are most similar to keyframe `id`'s: best first,
    /// at most [`LoopClosureConfig::max_bow_candidates`] of them, each
    /// bounded below by `id`'s own covisible neighbours (a true revisit
    /// should share about as many words as a view the graph knows
    /// overlaps).
    fn bow_ranked(
        &self,
        id: KeyframeId,
        covisibility: &CovisibilityGraph,
        gated: &mut dyn FnMut(KeyframeId) -> bool,
    ) -> Vec<KeyframeId> {
        let current = self.index.vector(id);
        // A direct covisible neighbour shows the same place; a revisit
        // from across the map should reach 0.8× the most similar one.
        let mut reference: f64 = 0.0;
        for (neighbor, _) in covisibility.neighbors(id, 1) {
            let s = current.similarity(self.index.vector(neighbor));
            reference = reference.max(s);
        }

        // Deterministic sparse retrieval: every keyframe sharing ≥ 1
        // word, visited in ascending id order.
        let mut ranked: Vec<(KeyframeId, f64)> = self
            .index
            .scores(current, |c| c != id && gated(c))
            .into_iter()
            .filter(|&(_, s)| s >= reference * 0.8)
            .collect();
        // Highest word overlap first; ties toward older keyframes.
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(self.config.max_bow_candidates.max(1));
        ranked.into_iter().map(|(c, _)| c).collect()
    }

    /// The candidate with the highest cross-checked SIMD match fraction
    /// against keyframe `id`, if it reaches
    /// [`LoopClosureConfig::min_similarity`]; ties go to the earlier
    /// candidate.
    fn best_match(
        &self,
        store: &KeyframeStore,
        id: KeyframeId,
        candidates: impl IntoIterator<Item = KeyframeId>,
    ) -> Option<(KeyframeId, f64)> {
        let kernel = active_kernel();
        let current = &store.get(id).descriptors;
        let mut best: Option<(KeyframeId, f64)> = None;
        for c in candidates {
            let matches = matched_pairs(
                kernel,
                current,
                &store.get(c).descriptors,
                self.config.match_max_distance,
            );
            let score = matches.len() as f64 / current.len().max(1) as f64;
            if score >= self.config.min_similarity && best.is_none_or(|(_, s)| score > s) {
                best = Some((c, score));
            }
        }
        best
    }
}

/// Cross-checked descriptor matches `(query index, train index)`: the
/// mutual-nearest search ([`match_mutual_with_kernel`]) on a pinned
/// kernel, single-threaded — the job may already be running on a pool
/// worker; every kernel rung is bit-identical, so which one the host
/// dispatches does not affect results.
pub(crate) fn matched_pairs(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<(usize, usize)> {
    match_mutual_with_kernel(kernel, query, train, max_distance)
        .into_iter()
        .map(|m| (m.query, m.train))
        .collect()
}

/// A corrected keyframe pose from the pose-graph solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectedKeyframe {
    /// Keyframe id in the store.
    pub id: KeyframeId,
    /// Source frame index in the processed sequence.
    pub frame_index: usize,
    /// World-to-camera pose before the correction (the snapshot).
    pub old_pose_w2c: Se3,
    /// Corrected world-to-camera pose.
    pub pose_w2c: Se3,
}

/// Everything one verified-and-solved loop closure produces.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopClosureOutcome {
    /// The keyframe that closed the loop.
    pub current: KeyframeId,
    /// The revisited keyframe.
    pub candidate: KeyframeId,
    /// Retrieval score of the candidate.
    pub score: f64,
    /// Cross-checked descriptor matches found by verification.
    pub matches: usize,
    /// PnP inliers (0 when PnP failed outright).
    pub inliers: usize,
    /// Whether the loop passed geometric verification and produced a
    /// correction (`false` → every correction field is empty).
    pub accepted: bool,
    /// Corrected keyframe poses (every snapshot keyframe, in store
    /// order — uncorrected ones carry their old pose so application is
    /// uniform).
    pub keyframes: Vec<CorrectedKeyframe>,
    /// Re-anchored landmark positions by stable id.
    pub landmarks: Vec<(u64, Vec3)>,
    /// Pose-graph solver diagnostics (`None` when verification failed
    /// before the solve).
    pub result: Option<PoseGraphResult>,
    /// Wall-clock time of verification + solve, milliseconds (excluded
    /// from the bit-identity guarantee).
    pub solve_ms: f64,
}

/// A self-contained verification + pose-graph job: owns every input so
/// it can run on any thread (`'static`, as `WorkerPool::submit`
/// requires), snapshotted at the keyframe that triggered it.
#[derive(Debug, Clone)]
pub struct LoopClosureJob {
    candidate: LoopCandidate,
    /// Verification inputs: current keyframe appearance…
    current_descriptors: Vec<Descriptor>,
    current_pixels: Vec<Vec2>,
    /// …and candidate keyframe appearance + camera-frame geometry.
    candidate_descriptors: Vec<Descriptor>,
    candidate_positions: Vec<Vec3>,
    kernel: MatchKernel,
    camera: PinholeCamera,
    /// Pose-graph inputs: all keyframe poses (w2c) + odometry and
    /// covisibility edges, without the loop edge (verification adds it).
    poses: Vec<Se3>,
    frame_indices: Vec<usize>,
    edges: Vec<PoseGraphEdge>,
    /// Landmarks to re-anchor: (stable id, current world position,
    /// slot of the most recent observing keyframe).
    landmarks: Vec<(u64, Vec3, usize)>,
    config: LoopClosureConfig,
}

impl LoopClosureJob {
    /// Snapshots a verification + correction job from the mapper state.
    /// `position_of` resolves a landmark id to its current map position
    /// (landmarks culled from the map are skipped for re-anchoring).
    pub fn snapshot(
        candidate: LoopCandidate,
        store: &KeyframeStore,
        covisibility: &CovisibilityGraph,
        camera: &PinholeCamera,
        config: &LoopClosureConfig,
        position_of: &mut dyn FnMut(u64) -> Option<Vec3>,
    ) -> LoopClosureJob {
        let cur = store.get(candidate.current);
        let cand = store.get(candidate.candidate);
        let poses: Vec<Se3> = store.keyframes().iter().map(|kf| kf.pose_w2c).collect();
        let frame_indices: Vec<usize> = store.keyframes().iter().map(|kf| kf.frame_index).collect();

        // Odometry chain + strong covisibility edges, measured from the
        // snapshot poses (they are satisfied exactly at start; only the
        // loop edge will pull).
        let mut edges: Vec<PoseGraphEdge> = Vec::new();
        for i in 1..poses.len() {
            edges.push(PoseGraphEdge::from_current(
                &poses,
                i - 1,
                i,
                config.odometry_weight,
            ));
        }
        for a in 0..poses.len() {
            for (b, _) in covisibility.neighbors(a, config.covisibility_edge_min_weight) {
                if b > a + 1 {
                    edges.push(PoseGraphEdge::from_current(
                        &poses,
                        a,
                        b,
                        config.covisibility_edge_weight,
                    ));
                }
            }
        }

        // Anchor every landmark still in the map to its most recent
        // observing keyframe (deterministic first-seen order, slot
        // overwritten by later observations). The *last* observer's
        // correction is the one consistent with how the tracker
        // currently uses the landmark — anchoring to the first observer
        // re-corrects resurrected old landmarks into their old frame
        // and tears the live map into populations corrected by
        // different amounts, which destabilizes feature-poor frames
        // right after the closure.
        let mut landmarks: Vec<(u64, Vec3, usize)> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        for (slot, kf) in store.keyframes().iter().enumerate() {
            for obs in &kf.observations {
                match slot_of.entry(obs.landmark) {
                    std::collections::hash_map::Entry::Vacant(entry) => {
                        if let Some(position) = position_of(obs.landmark) {
                            entry.insert(landmarks.len());
                            landmarks.push((obs.landmark, position, slot));
                        }
                    }
                    std::collections::hash_map::Entry::Occupied(entry) => {
                        landmarks[*entry.get()].2 = slot;
                    }
                }
            }
        }

        LoopClosureJob {
            candidate,
            current_descriptors: cur.descriptors.clone(),
            current_pixels: cur.observations.iter().map(|o| o.pixel).collect(),
            candidate_descriptors: cand.descriptors.clone(),
            candidate_positions: cand.observations.iter().map(|o| o.position).collect(),
            kernel: active_kernel(),
            camera: *camera,
            poses,
            frame_indices,
            edges,
            landmarks,
            config: *config,
        }
    }

    /// Number of pose-graph nodes in the snapshot.
    pub fn nodes(&self) -> usize {
        self.poses.len()
    }

    /// Number of non-loop pose-graph edges in the snapshot.
    pub fn edges(&self) -> usize {
        self.edges.len()
    }

    /// Runs verification and, if it passes, the pose-graph correction.
    pub fn run(self) -> LoopClosureOutcome {
        let start = std::time::Instant::now();
        let mut outcome = LoopClosureOutcome {
            current: self.candidate.current,
            candidate: self.candidate.candidate,
            score: self.candidate.score,
            matches: 0,
            inliers: 0,
            accepted: false,
            keyframes: Vec::new(),
            landmarks: Vec::new(),
            result: None,
            solve_ms: 0.0,
        };

        // Geometric verification: cross-checked matches → P3P/RANSAC
        // against the candidate's promotion-time camera-frame geometry.
        let pairs = matched_pairs(
            self.kernel,
            &self.current_descriptors,
            &self.candidate_descriptors,
            self.config.match_max_distance,
        );
        outcome.matches = pairs.len();
        if pairs.len() < self.config.min_matches.max(4) {
            outcome.solve_ms = start.elapsed().as_secs_f64() * 1e3;
            return outcome;
        }
        let world: Vec<Vec3> = pairs
            .iter()
            .map(|&(_, t)| self.candidate_positions[t])
            .collect();
        let pixels: Vec<Vec2> = pairs.iter().map(|&(q, _)| self.current_pixels[q]).collect();
        let Some(pnp) = solve_pnp_ransac(&world, &pixels, &self.camera, &self.config.pnp) else {
            outcome.solve_ms = start.elapsed().as_secs_f64() * 1e3;
            return outcome;
        };
        outcome.inliers = pnp.inliers.len();
        if pnp.inliers.len() < self.config.min_inliers {
            outcome.solve_ms = start.elapsed().as_secs_f64() * 1e3;
            return outcome;
        }

        // The "world" of the PnP problem is the candidate's camera
        // frame, so the estimated pose *is* the measured relative
        // transform candidate-camera → current-camera — exactly the
        // loop edge `Z = T_cur ∘ T_cand⁻¹`.
        let mut edges = self.edges;
        edges.push(PoseGraphEdge {
            from: self.candidate.candidate,
            to: self.candidate.current,
            measured: pnp.pose,
            weight: self.config.loop_edge_weight,
        });

        let mut poses = self.poses.clone();
        let mut fixed = vec![false; poses.len()];
        fixed[0] = true;
        let result = optimize_pose_graph(&mut poses, &edges, &fixed, &self.config.pose_graph);
        outcome.result = Some(result);
        outcome.accepted = true;
        outcome.keyframes = self
            .poses
            .iter()
            .zip(&poses)
            .enumerate()
            .map(|(slot, (&old, &new))| CorrectedKeyframe {
                id: slot,
                frame_index: self.frame_indices[slot],
                old_pose_w2c: old,
                pose_w2c: new,
            })
            .collect();
        // Each landmark rides with its most recent observer: re-express
        // in that keyframe's camera frame under the old pose, back to
        // the world under the corrected one.
        outcome.landmarks = self
            .landmarks
            .iter()
            .map(|&(id, position, slot)| {
                let cam = self.poses[slot].transform(position);
                (id, poses[slot].inverse().transform(cam))
            })
            .collect();
        outcome.solve_ms = start.elapsed().as_secs_f64() * 1e3;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyframe::KeyframeObservation;
    use crate::mapper::{KeyframeData, LocalMapper};

    fn camera() -> PinholeCamera {
        PinholeCamera::tum_fr1()
    }

    /// A synthetic "place": a grid of landmarks with distinctive
    /// deterministic descriptors, offset into a region of the world.
    fn place(tag: u64, offset: Vec3) -> (Vec<Vec3>, Vec<Descriptor>, u64) {
        let base = tag * 1000;
        let points: Vec<Vec3> = (0..60)
            .map(|i| {
                Vec3::new(
                    ((i % 10) as f64) * 0.3 - 1.4,
                    ((i / 10) as f64) * 0.3 - 0.8,
                    2.6 + ((i * 7) % 5) as f64 * 0.25,
                ) + offset
            })
            .collect();
        let descriptors: Vec<Descriptor> = (0..60)
            .map(|i| {
                // Place-specific pattern + point-specific bits: same
                // place re-observed yields identical descriptors,
                // different places are ~128 bits apart.
                let p = tag.wrapping_mul(0x9e3779b97f4a7c15);
                Descriptor::from_words([
                    p ^ (1u64 << (i % 64)),
                    !p ^ (1u64 << ((i * 3) % 64)),
                    p.rotate_left(i as u32 % 61),
                    p ^ (i as u64),
                ])
            })
            .collect();
        (points, descriptors, base)
    }

    /// Builds KeyframeData viewing `place` from `pose`.
    fn view(
        frame_index: usize,
        pose: Se3,
        points: &[Vec3],
        descriptors: &[Descriptor],
        base: u64,
    ) -> KeyframeData {
        let camera = camera();
        let mut observations = Vec::new();
        let mut descs = Vec::new();
        for (i, (&p, &d)) in points.iter().zip(descriptors).enumerate() {
            let cam = pose.transform(p);
            if let Some(uv) = camera.project(cam) {
                observations.push(KeyframeObservation {
                    landmark: base + i as u64,
                    pixel: uv,
                    position: cam,
                });
                descs.push(d);
            }
        }
        KeyframeData {
            frame_index,
            timestamp: frame_index as f64 / 30.0,
            pose_w2c: pose,
            observations,
            descriptors: descs,
        }
    }

    /// Keyframe data walking through `n_places` distinct places (three
    /// keyframes each), then returning to place 0 with `drift` on the
    /// final keyframe's tracked pose (its observations — what the depth
    /// sensor measures — stay true to the scene). The revisit creates
    /// fresh landmark ids, modelling a map that culled the originals:
    /// covisibility does NOT connect the loop ends.
    fn looped_frames(n_places: usize, drift: Vec3) -> Vec<KeyframeData> {
        let mut out = Vec::new();
        let mut frame = 0usize;
        for tag in 0..n_places as u64 {
            let (points, descriptors, base) = place(tag, Vec3::new(tag as f64 * 40.0, 0.0, 0.0));
            for k in 0..3 {
                let pose = Se3::from_translation(Vec3::new(
                    tag as f64 * 40.0 + k as f64 * 0.05,
                    0.0,
                    0.02 * k as f64,
                ));
                out.push(view(frame, pose, &points, &descriptors, base));
                frame += 3;
            }
        }
        let (points, descriptors, _) = place(0, Vec3::ZERO);
        let true_obs_pose = Se3::from_translation(Vec3::new(0.02, 0.0, 0.01));
        let mut data = view(frame, true_obs_pose, &points, &descriptors, 900_000);
        data.pose_w2c = Se3::from_translation(true_obs_pose.translation + drift);
        out.push(data);
        out
    }

    /// Inserts every frame, running the detector incrementally; returns
    /// the mapper, the final keyframe id and the last candidate fired.
    fn looped_mapper_with_detector(
        n_places: usize,
        drift: Vec3,
        config: LoopClosureConfig,
    ) -> (LocalMapper, KeyframeId, LoopDetector, Option<LoopCandidate>) {
        let mut mapper = LocalMapper::new();
        let mut detector = LoopDetector::new(config);
        let mut fired = None;
        let mut last = 0;
        for data in looped_frames(n_places, drift) {
            last = mapper.insert_keyframe(data);
            // The scenario models a map that forgot every old place.
            if let Some(c) =
                detector.observe(mapper.store(), mapper.covisibility(), last, &mut |_| false)
            {
                fired = Some(c);
            }
        }
        (mapper, last, detector, fired)
    }

    /// Convenience: mapper + final keyframe id without detection.
    fn looped_mapper(n_places: usize, drift: Vec3) -> (LocalMapper, KeyframeId) {
        let mut mapper = LocalMapper::new();
        let mut last = 0;
        for data in looped_frames(n_places, drift) {
            last = mapper.insert_keyframe(data);
        }
        (mapper, last)
    }

    fn detector_config() -> LoopClosureConfig {
        LoopClosureConfig {
            min_training_descriptors: 100,
            min_keyframe_gap: 4,
            consistency: 1,
            min_matches: 15,
            min_inliers: 10,
            ..Default::default()
        }
    }

    #[test]
    fn detector_finds_the_revisited_place() {
        let (_, current, detector, fired) =
            looped_mapper_with_detector(4, Vec3::new(0.4, -0.2, 0.3), detector_config());
        let c = fired.expect("loop candidate");
        assert_eq!(c.current, current);
        // The candidate is one of the three place-0 keyframes.
        assert!(c.candidate <= 2, "candidate {}", c.candidate);
        assert!(c.score > 0.1);
        assert!(detector.vocabulary_ready());
        assert!(c.bow_backed);
    }

    #[test]
    fn brute_force_fallback_fires_without_a_vocabulary() {
        // An unreachable training threshold keeps the vocabulary
        // untrained; the SIMD brute-force fallback must still find the
        // revisit.
        let config = LoopClosureConfig {
            min_training_descriptors: usize::MAX,
            ..detector_config()
        };
        let (_, current, detector, fired) =
            looped_mapper_with_detector(4, Vec3::new(0.4, -0.2, 0.3), config);
        assert!(!detector.vocabulary_ready());
        let c = fired.expect("fallback candidate");
        assert_eq!(c.current, current);
        assert!(c.candidate <= 2, "candidate {}", c.candidate);
        assert!(!c.bow_backed);
    }

    #[test]
    fn alive_landmarks_gate_suppresses_remembered_places() {
        // Same revisit scenario, but the map still holds every old
        // landmark: ordinary tracking covers the place, so the
        // forgotten-place gate must keep the detector silent.
        let mut mapper = LocalMapper::new();
        let mut detector = LoopDetector::new(detector_config());
        for data in looped_frames(4, Vec3::new(0.4, -0.2, 0.3)) {
            let id = mapper.insert_keyframe(data);
            let fired = detector.observe(mapper.store(), mapper.covisibility(), id, &mut |_| true);
            assert!(fired.is_none(), "fired on a fully-remembered place at {id}");
        }
    }

    #[test]
    fn no_candidate_without_a_revisit() {
        // Distinct places only (drop the revisit tail): nothing should
        // fire under either scoring path.
        for min_training in [100usize, usize::MAX] {
            let mut mapper = LocalMapper::new();
            let config = LoopClosureConfig {
                min_training_descriptors: min_training,
                ..detector_config()
            };
            let mut detector = LoopDetector::new(config);
            let mut frames = looped_frames(5, Vec3::ZERO);
            frames.pop();
            for data in frames {
                let id = mapper.insert_keyframe(data);
                let fired =
                    detector.observe(mapper.store(), mapper.covisibility(), id, &mut |_| false);
                assert!(fired.is_none(), "false positive at keyframe {id}");
            }
        }
    }

    #[test]
    fn verification_and_pose_graph_correct_the_drift() {
        let drift = Vec3::new(0.4, -0.2, 0.3);
        let (mapper, current) = looped_mapper(4, drift);
        let config = detector_config();
        let candidate = LoopCandidate {
            current,
            candidate: 0,
            score: 0.5,
            bow_backed: true,
        };
        let job = LoopClosureJob::snapshot(
            candidate,
            mapper.store(),
            mapper.covisibility(),
            &camera(),
            &config,
            &mut |_| None,
        );
        assert_eq!(job.nodes(), mapper.store().len());
        assert!(job.edges() >= mapper.store().len() - 1);
        let outcome = job.run();
        assert!(outcome.accepted, "verification failed: {outcome:?}");
        assert!(outcome.matches >= 15);
        assert!(outcome.inliers >= 10);
        // The loop keyframe's corrected pose sheds most of the drift.
        let corrected = outcome.keyframes.last().unwrap();
        let before = drift.norm();
        let after = (corrected.pose_w2c.translation
            - Se3::from_translation(Vec3::new(0.02, 0.0, 0.01)).translation)
            .norm();
        assert!(
            after < before * 0.35,
            "drift {before:.3} -> {after:.3} not corrected"
        );
    }

    #[test]
    fn rejected_verification_reports_and_corrects_nothing() {
        // Mismatched appearance: the "revisit" shows a different place,
        // so cross-checked matches collapse and the job rejects.
        let (mapper, current) = looped_mapper(3, Vec3::ZERO);
        let candidate = LoopCandidate {
            current,
            candidate: 3, // a keyframe of a *different* place
            score: 0.2,
            bow_backed: true,
        };
        let job = LoopClosureJob::snapshot(
            candidate,
            mapper.store(),
            mapper.covisibility(),
            &camera(),
            &detector_config(),
            &mut |_| None,
        );
        let outcome = job.run();
        assert!(!outcome.accepted);
        assert!(outcome.keyframes.is_empty());
        assert!(outcome.landmarks.is_empty());
        assert!(outcome.result.is_none());
    }

    #[test]
    fn landmarks_ride_with_their_most_recent_observer() {
        let drift = Vec3::new(0.3, 0.0, 0.2);
        let (mapper, current) = looped_mapper(4, drift);
        let candidate = LoopCandidate {
            current,
            candidate: 1,
            score: 0.5,
            bow_backed: true,
        };
        // Give every landmark of the drifted tail a live map position.
        let store = mapper.store();
        let mut positions: HashMap<u64, Vec3> = HashMap::new();
        let mut last_observer: HashMap<u64, usize> = HashMap::new();
        for kf in store.keyframes() {
            for obs in &kf.observations {
                positions
                    .entry(obs.landmark)
                    .or_insert_with(|| kf.pose_w2c.inverse().transform(obs.position));
                last_observer.insert(obs.landmark, kf.id);
            }
        }
        let job = LoopClosureJob::snapshot(
            candidate,
            store,
            mapper.covisibility(),
            &camera(),
            &detector_config(),
            &mut |id| positions.get(&id).copied(),
        );
        let outcome = job.run();
        assert!(outcome.accepted);
        assert_eq!(outcome.landmarks.len(), positions.len());
        // Every landmark is re-expressed through the correction of its
        // most recent observing keyframe.
        for &(id, new_pos) in &outcome.landmarks {
            let slot = last_observer[&id];
            let kf = &outcome.keyframes[slot];
            let expected = kf
                .pose_w2c
                .inverse()
                .transform(kf.old_pose_w2c.transform(positions[&id]));
            assert!(
                (new_pos - expected).norm() < 1e-12,
                "landmark {id} not anchored to keyframe {slot}"
            );
        }
        // And a landmark whose last observer is the fixed gauge
        // keyframe would not move at all (the gauge pose is held).
        let gauge = &outcome.keyframes[0];
        assert_eq!(gauge.old_pose_w2c, gauge.pose_w2c);
    }

    mod matched_pairs_oracle {
        use super::*;
        use proptest::prelude::*;

        /// Naive scalar oracle of [`matched_pairs`]: query `q` and train
        /// `t` pair iff `t` is the nearest train of `q` and `q` the
        /// nearest query of `t`, the lowest index winning ties in both
        /// directions, and both distances are within `max_distance`.
        fn mutual_nearest(
            query: &[Descriptor],
            train: &[Descriptor],
            max_distance: u32,
        ) -> Vec<(usize, usize)> {
            let nearest = |d: &Descriptor, set: &[Descriptor]| {
                set.iter().enumerate().map(|(i, s)| (d.hamming(s), i)).min()
            };
            let mut pairs = Vec::new();
            for (qi, q) in query.iter().enumerate() {
                let Some((forward, ti)) = nearest(q, train) else {
                    continue;
                };
                let Some((backward, back)) = nearest(&train[ti], query) else {
                    continue;
                };
                if back == qi && forward <= max_distance && backward <= max_distance {
                    pairs.push((qi, ti));
                }
            }
            pairs
        }

        /// `n` splitmix descriptors; each extra `sparsity` step ANDs in
        /// another random word, halving the bit density so distances
        /// shrink and tie more often.
        fn descriptors(n: usize, seed: u64, sparsity: u32) -> Vec<Descriptor> {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            (0..n)
                .map(|_| {
                    Descriptor::from_words(std::array::from_fn(|_| {
                        (0..sparsity).fold(next(), |w, _| w & next())
                    }))
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `matched_pairs` is the mutual-nearest cross-check on every
            /// kernel rung the host supports, with duplicated
            /// descriptors on both sides and across them, at the
            /// tightest, a working and no distance cap. Up to 300 trains
            /// cross the 128-train tile whose column minima the one-pass
            /// search carries, and up to 140 queries cross the 8-row
            /// query block.
            #[test]
            fn matched_pairs_equal_the_mutual_nearest_oracle(
                nq in 1usize..141,
                nt in 1usize..301,
                seed in any::<u64>(),
                sparsity in 0u32..4,
                cap in 0usize..3,
                dup in any::<u64>(),
            ) {
                let max_distance = [0, 64, u32::MAX][cap];
                let mut query = descriptors(nq, seed, sparsity);
                let mut train = descriptors(nt, !seed, sparsity);
                // Duplicates: a query row copied into the train set
                // (a distance-0 pair), and a repeated row on each side
                // (ties in both directions).
                let pick = |n: usize, salt: u32| (dup.rotate_left(salt) % n as u64) as usize;
                train[pick(nt, 0)] = query[pick(nq, 16)];
                query[pick(nq, 32)] = query[pick(nq, 48)];
                train[pick(nt, 8)] = train[pick(nt, 24)];
                if nq > 1 && nt > 1 {
                    query[nq - 1] = train[pick(nt, 40)];
                    train[nt - 1] = train[pick(nt, 56)];
                }
                let expect = mutual_nearest(&query, &train, max_distance);
                for kernel in MatchKernel::ALL.into_iter().filter(|k| k.is_supported()) {
                    let pairs = matched_pairs(kernel, &query, &train, max_distance);
                    prop_assert_eq!(
                        &pairs,
                        &expect,
                        "{:?} max {}: {:?} != {:?}",
                        kernel,
                        max_distance,
                        pairs,
                        expect
                    );
                }
            }
        }
    }
}
