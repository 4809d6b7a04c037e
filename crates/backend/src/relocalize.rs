//! Cold-start relocalization: localize a frame against a **loaded**
//! map, with no motion prior and no tracking history.
//!
//! This is the serving-side counterpart of the loop detector: where
//! loop closure asks "is the place I'm tracking one I saw earlier in
//! *this* run?", relocalization asks "where am I in a map somebody
//! else built?" — the question every fresh session against a shared
//! atlas (`eslam_core::Atlas`) must answer before ordinary map-based
//! tracking can take over.
//!
//! The pipeline reuses the PR 5 loop-closure machinery end to end:
//!
//! 1. **BoW retrieval** — the query frame's descriptors quantize
//!    through the persisted [`Vocabulary`] into a tf-idf weighted
//!    [`BowVector`] (idf weights ride in the atlas file; plain tf when
//!    absent). The BoW keyframe index the loop detector uses too marks
//!    the keyframes sharing a word with the query through its inverted
//!    word→keyframe lists, and scores each, in ascending id order,
//!    against a dense per-word array of the query's weights: the
//!    [`BowVector::similarity`] sum, bit for bit;
//! 2. **cross-checked SIMD match** — candidates are verified with the
//!    same mutual-nearest match the loop verifier uses
//!    ([`eslam_features::matcher::match_mutual_with_kernel`]): one pass
//!    over the Hamming distances keeps each query's nearest train and
//!    each train's nearest query, on the kernel rung the CPU supports;
//! 3. **P3P/RANSAC** — matched pixels solve PnP against the
//!    candidate's promotion-time **camera-frame** landmark positions
//!    (drift-free RGB-D measurements), so the estimated pose is the
//!    relative transform candidate-camera → query-camera, and the
//!    world pose follows by composing with the candidate's stored
//!    pose.
//!
//! Determinism: candidate ranking sorts by (score desc, id asc), the
//! matcher rungs are bit-identical, and RANSAC is seeded — the same
//! query against the same map always returns the same pose.

use crate::bow_index::BowIndex;
use crate::keyframe::{KeyframeId, KeyframeStore};
use crate::loop_closure::matched_pairs;
use eslam_features::bow::{BowVector, Vocabulary};
use eslam_features::matcher::active_kernel;
use eslam_features::Descriptor;
use eslam_geometry::pnp::{solve_pnp_ransac, PnpParams};
use eslam_geometry::{PinholeCamera, Se3, Vec2, Vec3};

/// Tuning of the cold-start relocalization pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocalizationConfig {
    /// How many top-scoring BoW candidates get geometric verification
    /// (the first to verify wins; more candidates = more robustness to
    /// perceptual aliasing, at verification cost).
    pub max_candidates: usize,
    /// Minimum BoW similarity for a keyframe to enter verification.
    pub min_similarity: f64,
    /// Hamming gate of the cross-checked verification match.
    pub match_max_distance: u32,
    /// Minimum cross-checked matches before PnP is attempted.
    pub min_matches: usize,
    /// Minimum PnP inliers for the pose to be accepted.
    pub min_inliers: usize,
    /// P3P/RANSAC configuration of the verification solve.
    pub pnp: PnpParams,
}

impl Default for RelocalizationConfig {
    fn default() -> Self {
        RelocalizationConfig {
            max_candidates: 5,
            min_similarity: 0.05,
            match_max_distance: 64,
            min_matches: 15,
            min_inliers: 12,
            pnp: PnpParams::default(),
        }
    }
}

/// A successful cold-start relocalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocalizationResult {
    /// Estimated world-to-camera pose of the query frame, in the
    /// loaded map's world frame.
    pub pose_w2c: Se3,
    /// The keyframe that verified the query.
    pub keyframe: KeyframeId,
    /// BoW similarity of that keyframe to the query.
    pub score: f64,
    /// Cross-checked descriptor matches found by verification.
    pub matches: usize,
    /// PnP inliers supporting the pose.
    pub inliers: usize,
}

/// Precomputed retrieval state over one immutable map snapshot: the
/// per-keyframe (tf-idf) BoW vectors and the inverted word→keyframe
/// index. Build once per loaded map ([`Relocalizer::build`]), query
/// from any number of sessions concurrently (`&self` everywhere — the
/// atlas shares one relocalizer across sessions via its snapshot
/// `Arc`).
#[derive(Debug, Clone, Default)]
pub struct Relocalizer {
    /// Per-keyframe BoW vectors, indexed by keyframe id (empty vector
    /// for keyframes without descriptors), with their inverted word
    /// index.
    index: BowIndex,
}

impl Relocalizer {
    /// Quantizes every keyframe of `store` through `vocabulary` and
    /// builds the inverted retrieval index. Uses tf-idf weighting when
    /// the vocabulary carries idf weights, plain term frequency
    /// otherwise (same as [`Vocabulary::tfidf_vector_of`]).
    pub fn build(vocabulary: &Vocabulary, store: &KeyframeStore) -> Relocalizer {
        let mut index = BowIndex::default();
        for kf in store.keyframes() {
            let id = index.push(vocabulary.tfidf_vector_of(&kf.descriptors));
            debug_assert_eq!(id, kf.id);
        }
        Relocalizer { index }
    }

    /// Number of indexed keyframes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index covers no keyframes.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Ranks candidate keyframes for a query vector: every keyframe
    /// sharing at least one word, scored by BoW similarity, filtered
    /// by `min_similarity`, ordered by (score desc, id asc), truncated
    /// to `max_candidates`.
    fn candidates(
        &self,
        query: &BowVector,
        config: &RelocalizationConfig,
    ) -> Vec<(KeyframeId, f64)> {
        let mut scored: Vec<(KeyframeId, f64)> = self
            .index
            .scores(query, |_| true)
            .into_iter()
            .filter(|&(_, s)| s >= config.min_similarity)
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.truncate(config.max_candidates.max(1));
        scored
    }

    /// Localizes one frame (descriptors + their pixel locations,
    /// index-aligned) against the map snapshot this index was built
    /// over. Returns the first BoW candidate that passes cross-checked
    /// matching and P3P/RANSAC, or `None` when no candidate verifies.
    ///
    /// # Panics
    /// Panics when `descriptors` and `pixels` lengths differ, or when
    /// `store` is not the store this relocalizer was built from (id
    /// ranges disagree).
    pub fn relocalize(
        &self,
        vocabulary: &Vocabulary,
        store: &KeyframeStore,
        camera: &PinholeCamera,
        descriptors: &[Descriptor],
        pixels: &[Vec2],
        config: &RelocalizationConfig,
    ) -> Option<RelocalizationResult> {
        assert_eq!(
            descriptors.len(),
            pixels.len(),
            "descriptor/pixel columns misaligned"
        );
        assert_eq!(
            store.len(),
            self.index.len(),
            "index built from another store"
        );
        if descriptors.is_empty() || store.is_empty() {
            return None;
        }
        let query = vocabulary.tfidf_vector_of(descriptors);
        let kernel = active_kernel();
        for (id, score) in self.candidates(&query, config) {
            let kf = store.get(id);
            if kf.descriptors.is_empty() {
                continue;
            }
            let pairs = matched_pairs(
                kernel,
                descriptors,
                &kf.descriptors,
                config.match_max_distance,
            );
            if pairs.len() < config.min_matches.max(4) {
                continue;
            }
            // PnP world = the candidate's camera frame at promotion
            // time, so the solved pose is candidate-camera →
            // query-camera; compose with the candidate's stored pose
            // for the query's world-to-camera.
            let world: Vec<Vec3> = pairs
                .iter()
                .map(|&(_, t)| kf.observations[t].position)
                .collect();
            let query_pixels: Vec<Vec2> = pairs.iter().map(|&(q, _)| pixels[q]).collect();
            let Some(pnp) = solve_pnp_ransac(&world, &query_pixels, camera, &config.pnp) else {
                continue;
            };
            if pnp.inliers.len() < config.min_inliers {
                continue;
            }
            return Some(RelocalizationResult {
                pose_w2c: pnp.pose.compose(&kf.pose_w2c),
                keyframe: id,
                score,
                matches: pairs.len(),
                inliers: pnp.inliers.len(),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyframe::KeyframeObservation;
    use eslam_features::bow::BowParams;

    fn camera() -> PinholeCamera {
        PinholeCamera::tum_fr1()
    }

    /// A deterministic descriptor "family" around a seed pattern.
    fn descriptor_near(pattern: u64, salt: u64) -> Descriptor {
        let mut d = Descriptor::from_words([pattern, !pattern, pattern ^ 0xabcd, pattern]);
        let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..10 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bit = (state >> 33) as usize % eslam_features::DESCRIPTOR_BITS;
            d.set_bit(bit, !d.bit(bit));
        }
        d
    }

    /// A synthetic "place": a grid of landmarks in front of a pose,
    /// with a family-coded appearance.
    fn place_keyframe(
        store: &mut KeyframeStore,
        frame: usize,
        pose_w2c: Se3,
        pattern: u64,
        tag: u64,
    ) -> KeyframeId {
        let cam = camera();
        let mut observations = Vec::new();
        let mut descriptors = Vec::new();
        let pose_c2w = pose_w2c.inverse();
        for i in 0..40u64 {
            let x = (i % 8) as f64 * 0.25 - 1.0;
            let y = (i / 8) as f64 * 0.25 - 0.5;
            let world = pose_c2w.transform(Vec3::new(x, y, 2.5));
            let position = pose_w2c.transform(world);
            if let Some(pixel) = cam.project(position) {
                observations.push(KeyframeObservation {
                    landmark: tag * 1000 + i,
                    pixel,
                    position,
                });
                descriptors.push(descriptor_near(pattern, tag * 100 + i));
            }
        }
        store.push(
            frame,
            frame as f64 / 30.0,
            pose_w2c,
            observations,
            descriptors,
        )
    }

    fn training_set() -> Vec<Descriptor> {
        let mut all = Vec::new();
        for (f, pattern) in [0u64, u64::MAX, 0xaaaa_aaaa_aaaa_aaaa, 0x0f0f_0f0f_0f0f_0f0f]
            .into_iter()
            .enumerate()
        {
            for i in 0..40 {
                all.push(descriptor_near(pattern, (f as u64) * 100 + i));
            }
        }
        all
    }

    #[test]
    fn relocalizes_to_the_right_place_with_the_right_pose() {
        let mut store = KeyframeStore::new();
        let pose_a = Se3::identity();
        let pose_b = Se3::from_translation(Vec3::new(2.0, 0.0, 0.0));
        place_keyframe(&mut store, 0, pose_a, 0, 0);
        place_keyframe(&mut store, 8, pose_b, u64::MAX, 1);
        let vocab = Vocabulary::train(&training_set(), &BowParams::default()).unwrap();
        let index = Relocalizer::build(&vocab, &store);
        assert_eq!(index.len(), 2);

        // Query: place B's exact appearance and geometry, seen from a
        // slightly different viewpoint.
        let query_pose = pose_b.compose(&Se3::from_translation(Vec3::new(0.05, 0.0, -0.1)));
        let kf = store.get(1);
        let cam = camera();
        let query_c2w = query_pose.inverse();
        let mut descriptors = Vec::new();
        let mut pixels = Vec::new();
        for (obs, d) in kf.observations.iter().zip(&kf.descriptors) {
            // World position from the stored camera-frame snapshot.
            let world = kf.pose_w2c.inverse().transform(obs.position);
            if let Some(pixel) = cam.project(query_pose.transform(world)) {
                descriptors.push(*d);
                pixels.push(pixel);
            }
        }
        let _ = query_c2w;
        let result = index
            .relocalize(
                &vocab,
                &store,
                &cam,
                &descriptors,
                &pixels,
                &RelocalizationConfig::default(),
            )
            .expect("relocalization succeeds");
        assert_eq!(result.keyframe, 1);
        assert!(result.inliers >= 12, "inliers {}", result.inliers);
        let err = (result.pose_w2c.translation - query_pose.translation).norm();
        assert!(err < 1e-6, "translation error {err}");
    }

    #[test]
    fn unknown_views_and_empty_queries_return_none() {
        let mut store = KeyframeStore::new();
        place_keyframe(&mut store, 0, Se3::identity(), 0, 0);
        let vocab = Vocabulary::train(&training_set(), &BowParams::default()).unwrap();
        let index = Relocalizer::build(&vocab, &store);
        let cam = camera();
        let config = RelocalizationConfig::default();

        assert!(index
            .relocalize(&vocab, &store, &cam, &[], &[], &config)
            .is_none());

        // A frame from an appearance family the map never saw: BoW may
        // retrieve something, but verification cannot find enough
        // cross-checked matches.
        let descriptors: Vec<Descriptor> = (0..30)
            .map(|i| descriptor_near(0x1234_5678_9abc_def0, 7000 + i))
            .collect();
        let pixels: Vec<Vec2> = (0..30)
            .map(|i| Vec2::new(40.0 + 10.0 * (i % 6) as f64, 40.0 + 10.0 * (i / 6) as f64))
            .collect();
        assert!(index
            .relocalize(&vocab, &store, &cam, &descriptors, &pixels, &config)
            .is_none());
    }
}
