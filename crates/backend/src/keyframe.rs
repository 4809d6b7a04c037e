//! Keyframe storage: per-keyframe poses, landmark observations and
//! appearance descriptors.
//!
//! A [`Keyframe`] is the backend's unit of map structure (§2.1: the map
//! is updated only at key frames): the tracked world-to-camera pose at
//! the moment the frame was promoted, plus the pixel observation of
//! every landmark the frame either matched or created. Landmarks are
//! referenced by their **stable id** (`u64`), never by map index — the
//! front-end map culls and reorders freely without invalidating the
//! observation graph.
//!
//! Two loop-closure additions ride on each observation/keyframe:
//!
//! * every [`KeyframeObservation`] records the landmark's **camera-frame
//!   position at promotion time** — self-contained, drift-free 3-D for
//!   the place-recognition verifier, valid even after the front-end map
//!   has culled the landmark;
//! * every [`Keyframe`] keeps the **BRIEF descriptor column** aligned
//!   with its observations — the raw material of the BoW vectors and
//!   the brute-force loop-matching fallback.
//!
//! The [`KeyframeStore`] assigns dense ids in insertion order and never
//! removes a keyframe, so an id names the same keyframe for the whole
//! run: the covisibility graph's node, the loop detector's BoW slot and
//! the map's per-point observation lists all use it. The sliding
//! local-BA window ("the last K keyframes") is a simple suffix slice.

use eslam_features::Descriptor;
use eslam_geometry::{Se3, Vec2, Vec3};

/// Identifier of a keyframe: its insertion index in the
/// [`KeyframeStore`], fixed for the whole run.
pub type KeyframeId = usize;

/// One pixel observation of a landmark from a keyframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyframeObservation {
    /// Stable id of the observed landmark (the map's point id).
    pub landmark: u64,
    /// Observed pixel location in the keyframe's image.
    pub pixel: Vec2,
    /// Position of the landmark in **this keyframe's camera frame at
    /// promotion time** — what the RGB-D sensor measured, so it is
    /// drift-free, survives later pose refinements, and stays valid
    /// after the front-end map culls the landmark. The loop verifier
    /// solves PnP directly against these.
    pub position: Vec3,
}

/// A keyframe: pose + observations + descriptors, the backend's
/// optimization and place-recognition node.
#[derive(Debug, Clone, PartialEq)]
pub struct Keyframe {
    /// Dense id: the insertion index in the store.
    pub id: KeyframeId,
    /// Index of the source frame in the processed sequence.
    pub frame_index: usize,
    /// Frame timestamp, seconds.
    pub timestamp: f64,
    /// World-to-camera pose; refined in place by local BA and the
    /// loop-closure pose graph.
    pub pose_w2c: Se3,
    /// Landmark observations (matched + created in this keyframe).
    pub observations: Vec<KeyframeObservation>,
    /// BRIEF descriptors, index-aligned with `observations` (empty when
    /// the producer supplies none — loop closure then skips this
    /// keyframe as a candidate).
    pub descriptors: Vec<Descriptor>,
}

/// Append-only keyframe store with dense ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyframeStore {
    keyframes: Vec<Keyframe>,
}

impl KeyframeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KeyframeStore::default()
    }

    /// Number of keyframes.
    pub fn len(&self) -> usize {
        self.keyframes.len()
    }

    /// Whether the store holds no keyframes.
    pub fn is_empty(&self) -> bool {
        self.keyframes.is_empty()
    }

    /// All keyframes in insertion order.
    pub fn keyframes(&self) -> &[Keyframe] {
        &self.keyframes
    }

    /// The keyframe with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn get(&self, id: KeyframeId) -> &Keyframe {
        &self.keyframes[id]
    }

    /// The most recent keyframe, if any.
    pub fn last(&self) -> Option<&Keyframe> {
        self.keyframes.last()
    }

    /// Appends a keyframe, assigning the next dense id. `descriptors`
    /// must be index-aligned with `observations` (or empty).
    ///
    /// # Panics
    /// Panics when a non-empty descriptor column disagrees with the
    /// observation count.
    pub fn push(
        &mut self,
        frame_index: usize,
        timestamp: f64,
        pose_w2c: Se3,
        observations: Vec<KeyframeObservation>,
        descriptors: Vec<Descriptor>,
    ) -> KeyframeId {
        assert!(
            descriptors.is_empty() || descriptors.len() == observations.len(),
            "descriptor column misaligned: {} descriptors, {} observations",
            descriptors.len(),
            observations.len()
        );
        let id = self.keyframes.len();
        self.keyframes.push(Keyframe {
            id,
            frame_index,
            timestamp,
            pose_w2c,
            observations,
            descriptors,
        });
        id
    }

    /// Overwrites the pose of keyframe `id` (the BA / pose-graph
    /// swap-in).
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn set_pose(&mut self, id: KeyframeId, pose_w2c: Se3) {
        self.keyframes[id].pose_w2c = pose_w2c;
    }

    /// The trailing `k` keyframes (fewer when the store is smaller) —
    /// the sliding local-BA window.
    pub fn window(&self, k: usize) -> &[Keyframe] {
        let start = self.keyframes.len().saturating_sub(k);
        &self.keyframes[start..]
    }

    /// Rebuilds a store from deserialized keyframes (the atlas-load
    /// path), re-validating the invariants `push` establishes: ids are
    /// dense insertion indices and every non-empty descriptor column is
    /// index-aligned with its observations. Returns a description of
    /// the first violation, so a corrupted file surfaces as a typed
    /// error upstream instead of a panic deep in the backend.
    pub fn from_keyframes(keyframes: Vec<Keyframe>) -> Result<KeyframeStore, String> {
        for (i, kf) in keyframes.iter().enumerate() {
            if kf.id != i {
                return Err(format!(
                    "keyframe {} has id {} (ids must be dense)",
                    i, kf.id
                ));
            }
            if !kf.descriptors.is_empty() && kf.descriptors.len() != kf.observations.len() {
                return Err(format!(
                    "keyframe {i} descriptor column misaligned: {} descriptors, {} observations",
                    kf.descriptors.len(),
                    kf.observations.len()
                ));
            }
        }
        Ok(KeyframeStore { keyframes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslam_geometry::Vec3;

    fn obs(landmark: u64) -> KeyframeObservation {
        KeyframeObservation {
            landmark,
            pixel: Vec2::new(landmark as f64, 2.0 * landmark as f64),
            position: Vec3::new(landmark as f64, 0.0, 2.0),
        }
    }

    fn desc(tag: u64) -> Descriptor {
        Descriptor::from_words([tag, tag ^ 0xff, 0, 1])
    }

    #[test]
    fn ids_are_dense_insertion_indices() {
        let mut store = KeyframeStore::new();
        assert!(store.is_empty());
        let a = store.push(
            0,
            0.0,
            Se3::identity(),
            vec![obs(1), obs(2)],
            vec![desc(1), desc(2)],
        );
        let b = store.push(
            5,
            0.17,
            Se3::from_translation(Vec3::X),
            vec![obs(2)],
            vec![desc(2)],
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1).frame_index, 5);
        assert_eq!(store.get(0).observations.len(), 2);
        assert_eq!(store.get(0).descriptors.len(), 2);
        assert_eq!(store.last().unwrap().id, 1);
    }

    #[test]
    fn set_pose_swaps_in_refined_pose() {
        let mut store = KeyframeStore::new();
        store.push(0, 0.0, Se3::identity(), Vec::new(), Vec::new());
        let refined = Se3::from_translation(Vec3::new(0.1, 0.0, -0.2));
        store.set_pose(0, refined);
        assert_eq!(store.get(0).pose_w2c, refined);
    }

    #[test]
    fn window_is_a_suffix() {
        let mut store = KeyframeStore::new();
        for i in 0..6 {
            store.push(i, i as f64, Se3::identity(), Vec::new(), Vec::new());
        }
        let w = store.window(4);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].id, 2);
        assert_eq!(w[3].id, 5);
        // Larger than the store: everything.
        assert_eq!(store.window(100).len(), 6);
        assert_eq!(store.window(0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_descriptor_column_rejected() {
        let mut store = KeyframeStore::new();
        store.push(0, 0.0, Se3::identity(), vec![obs(1), obs(2)], vec![desc(1)]);
    }
}
