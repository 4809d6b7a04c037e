//! The shared, persistent **Atlas**: one map, many sessions.
//!
//! The ROADMAP's north star is "millions of users against a shared
//! world" — the mapping side of that is a map that outlives the run
//! that built it and can be *served* to many concurrent readers. The
//! [`Atlas`] is that serving surface:
//!
//! * **persistent** — [`Atlas::save`]/[`Atlas::load`] round-trip the
//!   landmark map, the keyframe store, the covisibility graph and the
//!   trained BoW vocabulary (with tf-idf weights) through the
//!   versioned, checksummed binary format of [`crate::persist`]
//!   bit-identically;
//! * **read-mostly shared** — readers take an [`Arc`] snapshot of an
//!   immutable [`AtlasState`] and never hold a lock while localizing;
//!   the single writer publishes a *new* state and bumps an epoch
//!   counter, so N concurrent [`crate::session::Session`]s proceed
//!   wait-free between publishes and cheaply detect staleness;
//! * **query-ready** — every published state carries the derived
//!   cold-start relocalization index
//!   (`eslam_backend::Relocalizer`), built once at publish time, not
//!   per query.
//!
//! # Epoch/snapshot concurrency
//!
//! ```text
//!   writer: build AtlasState ──▶ publish() ──▶ swap Arc, epoch += 1
//!   reader: epoch() changed? ──▶ snapshot() ──▶ localize against Arc
//! ```
//!
//! `snapshot()` clones an `Arc` under a mutex held for nanoseconds;
//! all actual work (BoW retrieval, matching, PnP) happens against the
//! immutable snapshot with no lock held. Readers can never starve the
//! writer and the writer can never tear a reader's view.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eslam_backend::{CovisibilityGraph, KeyframeStore, Relocalizer};
use eslam_features::bow::{BowParams, Vocabulary};

use crate::map::Map;
use crate::persist::{self, AtlasContents, AtlasError};

/// One immutable, query-ready snapshot of the shared world: the
/// persisted sections plus the derived relocalization index. Sessions
/// hold these by `Arc` and localize against them lock-free.
#[derive(Debug, Clone)]
pub struct AtlasState {
    map: Map,
    keyframes: KeyframeStore,
    covisibility: CovisibilityGraph,
    vocabulary: Option<Vocabulary>,
    relocalizer: Relocalizer,
}

impl AtlasState {
    /// An empty world: no landmarks, no keyframes, no vocabulary.
    pub fn empty() -> AtlasState {
        AtlasState {
            map: Map::new(),
            keyframes: KeyframeStore::new(),
            covisibility: CovisibilityGraph::new(),
            vocabulary: None,
            relocalizer: Relocalizer::default(),
        }
    }

    /// Assembles a state from decoded file contents, rebuilding the
    /// relocalization index from the persisted vocabulary.
    pub fn from_contents(contents: AtlasContents) -> AtlasState {
        let AtlasContents {
            map,
            keyframes,
            covisibility,
            vocabulary,
        } = contents;
        let relocalizer = match &vocabulary {
            Some(vocab) => Relocalizer::build(vocab, &keyframes),
            None => Relocalizer::default(),
        };
        AtlasState {
            map,
            keyframes,
            covisibility,
            vocabulary,
            relocalizer,
        }
    }

    /// Builds a query-ready state from a finished run's map products,
    /// training the vocabulary **offline** from the full keyframe
    /// descriptor corpus (unlike the tracker's online detector, which
    /// trains on whatever prefix it had seen when the threshold hit)
    /// and fitting tf-idf weights over per-keyframe documents.
    ///
    /// Returns an error when the graph and store disagree; an atlas
    /// without enough descriptors to train simply has no vocabulary
    /// (and therefore no relocalization index).
    pub fn build(
        map: Map,
        keyframes: KeyframeStore,
        covisibility: CovisibilityGraph,
        bow: &BowParams,
    ) -> Result<AtlasState, String> {
        if covisibility.len() != keyframes.len() {
            return Err(format!(
                "covisibility graph has {} nodes but the store has {} keyframes",
                covisibility.len(),
                keyframes.len()
            ));
        }
        let corpus: Vec<_> = keyframes
            .keyframes()
            .iter()
            .flat_map(|kf| kf.descriptors.iter().copied())
            .collect();
        let vocabulary = Vocabulary::train(&corpus, bow).map(|mut vocab| {
            vocab.train_idf(
                keyframes
                    .keyframes()
                    .iter()
                    .map(|kf| kf.descriptors.as_slice()),
            );
            vocab
        });
        Ok(AtlasState::from_contents(AtlasContents {
            map,
            keyframes,
            covisibility,
            vocabulary,
        }))
    }

    /// The landmark map.
    pub fn map(&self) -> &Map {
        &self.map
    }

    /// The keyframe store.
    pub fn keyframes(&self) -> &KeyframeStore {
        &self.keyframes
    }

    /// The covisibility graph.
    pub fn covisibility(&self) -> &CovisibilityGraph {
        &self.covisibility
    }

    /// The trained vocabulary, when this state has one.
    pub fn vocabulary(&self) -> Option<&Vocabulary> {
        self.vocabulary.as_ref()
    }

    /// The cold-start relocalization index (empty when there is no
    /// vocabulary).
    pub fn relocalizer(&self) -> &Relocalizer {
        &self.relocalizer
    }

    /// Whether this state can answer cold-start queries.
    pub fn can_relocalize(&self) -> bool {
        self.vocabulary.is_some() && !self.relocalizer.is_empty()
    }

    fn to_contents(&self) -> AtlasContents {
        AtlasContents {
            map: self.map.clone(),
            keyframes: self.keyframes.clone(),
            covisibility: self.covisibility.clone(),
            vocabulary: self.vocabulary.clone(),
        }
    }
}

/// The shared multi-session atlas: a single-writer, many-reader handle
/// around an [`Arc`]-swapped [`AtlasState`]. See the module docs for
/// the concurrency contract.
#[derive(Debug)]
pub struct Atlas {
    snapshot: Mutex<Arc<AtlasState>>,
    epoch: AtomicU64,
}

impl Default for Atlas {
    fn default() -> Self {
        Atlas::empty()
    }
}

impl Atlas {
    /// Wraps a state as epoch 0.
    pub fn new(state: AtlasState) -> Atlas {
        Atlas {
            snapshot: Mutex::new(Arc::new(state)),
            epoch: AtomicU64::new(0),
        }
    }

    /// An atlas of nothing — the publish target for a first mapping
    /// run.
    pub fn empty() -> Atlas {
        Atlas::new(AtlasState::empty())
    }

    /// The current epoch. Monotonically increases by one per
    /// [`Atlas::publish`]; readers compare against the epoch they
    /// snapshotted at to detect staleness without taking the snapshot
    /// lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current state handle. The lock is held only for the
    /// `Arc` clone — all queries run lock-free against the returned
    /// snapshot.
    pub fn snapshot(&self) -> Arc<AtlasState> {
        self.snapshot.lock().expect("atlas lock poisoned").clone()
    }

    /// Atomically replaces the shared state and bumps the epoch.
    /// Readers holding older snapshots are unaffected; their next
    /// [`Atlas::epoch`] check tells them to re-snapshot.
    pub fn publish(&self, state: AtlasState) {
        let next = Arc::new(state);
        *self.snapshot.lock().expect("atlas lock poisoned") = next;
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Serializes the current snapshot to `path` in the
    /// [`crate::persist`] binary format (atomic rename, never a torn
    /// file).
    pub fn save(&self, path: &Path) -> Result<(), AtlasError> {
        let state = self.snapshot();
        persist::save_atlas(&state.to_contents(), path)
    }

    /// Loads an atlas file and rebuilds the derived relocalization
    /// index.
    pub fn load(path: &Path) -> Result<Atlas, AtlasError> {
        let contents = persist::load_atlas(path)?;
        Ok(Atlas::new(AtlasState::from_contents(contents)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslam_features::Descriptor;
    use eslam_geometry::{Se3, Vec2, Vec3};

    fn desc(tag: u64) -> Descriptor {
        Descriptor::from_words([tag.rotate_left(9), !tag, tag ^ 0x5a5a, tag])
    }

    fn small_world() -> AtlasState {
        let mut map = Map::new();
        for i in 0..4u64 {
            map.insert(
                Vec3::new(i as f64, 0.0, 2.0),
                desc(i),
                0,
                0,
                Vec2::new(i as f64, 0.0),
            );
        }
        let mut store = KeyframeStore::new();
        store.push(0, 0.0, Se3::identity(), Vec::new(), Vec::new());
        let mut graph = CovisibilityGraph::new();
        graph.add_node();
        AtlasState::build(map, store, graph, &BowParams::default()).unwrap()
    }

    #[test]
    fn publish_bumps_the_epoch_and_swaps_the_snapshot() {
        let atlas = Atlas::empty();
        assert_eq!(atlas.epoch(), 0);
        let before = atlas.snapshot();
        assert_eq!(before.map().len(), 0);

        atlas.publish(small_world());
        assert_eq!(atlas.epoch(), 1);
        // The old snapshot is untouched; the new one sees the world.
        assert_eq!(before.map().len(), 0);
        assert_eq!(atlas.snapshot().map().len(), 4);
    }

    #[test]
    fn concurrent_readers_never_block_the_writer() {
        let atlas = Arc::new(Atlas::empty());
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let atlas = Arc::clone(&atlas);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    while stop.load(Ordering::Acquire) == 0 {
                        let snap = atlas.snapshot();
                        // A snapshot is internally consistent even
                        // mid-publish.
                        assert_eq!(snap.keyframes().len(), snap.covisibility().len());
                        seen = seen.max(atlas.epoch());
                    }
                    seen
                })
            })
            .collect();

        for _ in 0..50 {
            atlas.publish(small_world());
        }
        stop.store(1, Ordering::Release);
        for r in readers {
            assert!(r.join().expect("reader panicked") <= 50);
        }
        assert_eq!(atlas.epoch(), 50);
    }

    #[test]
    fn offline_build_trains_vocabulary_and_idf_when_corpus_suffices() {
        let mut store = KeyframeStore::new();
        let mut graph = CovisibilityGraph::new();
        for k in 0..4usize {
            let descriptors: Vec<Descriptor> =
                (0..24u64).map(|i| desc(k as u64 * 1000 + i * 7)).collect();
            let observations: Vec<_> = (0..24u64)
                .map(|i| eslam_backend::KeyframeObservation {
                    landmark: i,
                    pixel: Vec2::new(i as f64, k as f64),
                    position: Vec3::new(i as f64 * 0.1, 0.0, 2.0),
                })
                .collect();
            store.push(k, k as f64, Se3::identity(), observations, descriptors);
            graph.add_node();
        }
        let state = AtlasState::build(Map::new(), store, graph, &BowParams::default()).unwrap();
        let vocab = state.vocabulary().expect("corpus large enough to train");
        assert!(vocab.idf().is_some(), "offline build fits idf weights");
        assert!(state.can_relocalize());
    }
}
