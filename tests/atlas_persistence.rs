//! The atlas tier: persisted maps, cold-start relocalization and the
//! shared multi-session [`Atlas`].
//!
//! Three stories, in rising order of integration, and one input check:
//!
//! 1. **format totality** — property tests drive randomly shaped maps
//!    through encode → decode (bit-identical round trips) and throw
//!    corrupted, truncated and adversarial bytes at the decoder, which
//!    must always return a typed [`AtlasError`] — never panic, never
//!    let a fabricated count size an allocation;
//! 2. **save → load → relocalize** — a `loop/circle` mapping run saves
//!    its atlas, a *fresh process-state* reload round-trips every
//!    section bit-identically, and a brand-new [`Session`] with no
//!    tracking history cold-starts against the loaded map to within
//!    2 cm of the ground-truth start pose;
//! 3. **shared serving** — at least 4 concurrent sessions localize
//!    against one [`Atlas`] while the writer keeps publishing: nobody
//!    blocks anybody, every session converges on the same pose, and a
//!    session's pool size never shows in its poses;
//! 4. **wrong-size queries** — a query whose size is not the session's
//!    camera's is refused with `None`, cold or warm, and the session
//!    keeps its state.

use std::sync::Arc;

use eslam_backend::keyframe::KeyframeObservation;
use eslam_backend::{BackendMode, CovisibilityGraph, KeyframeStore};
use eslam_core::persist::{decode_atlas, encode_atlas, AtlasContents, AtlasError};
use eslam_core::{Atlas, Map, MapPoint, PointObservation, Session, Slam, SlamConfig};
use eslam_dataset::sequence::{SequenceSpec, SyntheticSequence};
use eslam_features::bow::{BowParams, Vocabulary};
use eslam_features::Descriptor;
use eslam_geometry::{Se3, Vec2, Vec3};
use eslam_image::GrayImage;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const IMAGE_SCALE: f64 = 0.25;
const LOOP_FRAMES: usize = 48;

/// The tier's configuration: the paper defaults at quarter scale. The
/// *stock* map-cull age (unlike the loop tier's shortened one) keeps
/// the run's early landmarks — positions anchored at the gauge frame —
/// alive into the persisted map, which is exactly what a serving-grade
/// atlas wants: relocalization verifies against keyframe 0's
/// promotion-time geometry and the tracking refine then converges on
/// the same well-anchored landmarks.
fn config() -> SlamConfig {
    SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE)
}

// ------------------------------------------------------- random worlds

/// A randomly shaped — but internally consistent — atlas, driven by a
/// proptest-chosen seed and sizes.
fn random_contents(seed: u64, points: usize, keyframes: usize, with_vocab: bool) -> AtlasContents {
    let mut rng = SmallRng::seed_from_u64(seed);
    let desc =
        |rng: &mut SmallRng| Descriptor::from_words([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);

    let mut map = Map::new();
    for _ in 0..points {
        let d = desc(&mut rng);
        let idx = map.len();
        map.insert(
            Vec3::new(
                rng.gen::<f64>() * 4.0 - 2.0,
                rng.gen(),
                1.0 + rng.gen::<f64>() * 4.0,
            ),
            d,
            rng.gen::<u64>() as usize % 64,
            0,
            Vec2::new(rng.gen::<f64>() * 640.0, rng.gen::<f64>() * 480.0),
        );
        if rng.gen::<f64>() < 0.3 {
            map.record_observation(idx, 1, Vec2::new(rng.gen::<f64>() * 640.0, 0.0));
        }
    }

    let mut store = KeyframeStore::new();
    let mut graph = CovisibilityGraph::new();
    for k in 0..keyframes {
        let n = 4 + rng.gen::<u64>() as usize % 24;
        let observations: Vec<KeyframeObservation> = (0..n)
            .map(|i| KeyframeObservation {
                landmark: rng.gen::<u64>() % 512,
                pixel: Vec2::new(i as f64 * 3.0, k as f64),
                position: Vec3::new(rng.gen(), rng.gen(), 1.0 + rng.gen::<f64>()),
            })
            .collect();
        let descriptors: Vec<Descriptor> = (0..n).map(|_| desc(&mut rng)).collect();
        let q = eslam_geometry::Quaternion {
            w: 1.0,
            x: rng.gen::<f64>() * 0.1,
            y: rng.gen::<f64>() * 0.1,
            z: rng.gen::<f64>() * 0.1,
        };
        let pose = Se3::from_quaternion_translation(&q, Vec3::new(rng.gen(), rng.gen(), rng.gen()));
        store.push(k * 2, k as f64 / 30.0, pose, observations, descriptors);
        graph.add_node();
        if k > 0 {
            graph.accumulate(k - 1, k, 1 + rng.gen::<u64>() as usize % 40);
        }
    }

    let vocabulary = if with_vocab {
        let corpus: Vec<Descriptor> = (0..96).map(|_| desc(&mut rng)).collect();
        Vocabulary::train(&corpus, &BowParams::default()).map(|mut v| {
            if seed.is_multiple_of(2) {
                v.train_idf(corpus.chunks(16));
            }
            v
        })
    } else {
        None
    };

    AtlasContents {
        map,
        keyframes: store,
        covisibility: graph,
        vocabulary,
    }
}

fn assert_identical(a: &AtlasContents, b: &AtlasContents) {
    assert_eq!(a.map, b.map);
    assert_eq!(a.keyframes, b.keyframes);
    assert_eq!(a.covisibility, b.covisibility);
    assert_eq!(a.vocabulary, b.vocabulary);
}

mod format_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any world round-trips bit-identically (poses serialize as
        /// raw rotation matrices precisely so this holds to the ulp).
        #[test]
        fn round_trip_is_bit_identical(
            seed in any::<u64>(),
            points in 0usize..40,
            keyframes in 0usize..8,
            with_vocab in any::<bool>(),
        ) {
            let contents = random_contents(seed, points, keyframes, with_vocab);
            let bytes = encode_atlas(&contents);
            let back = decode_atlas(&bytes).expect("own encoding decodes");
            assert_identical(&contents, &back);
        }

        /// Any single corrupted byte is caught — by the magic/version
        /// check, a section checksum, or a semantic validator — and
        /// reported as a typed error, never a panic.
        #[test]
        fn corrupt_bytes_yield_typed_errors(
            seed in any::<u64>(),
            position in any::<u64>(),
            flip in 0u8..255,
        ) {
            let contents = random_contents(seed, 6, 3, true);
            let mut bytes = encode_atlas(&contents);
            let at = (position % bytes.len() as u64) as usize;
            bytes[at] ^= flip.wrapping_add(1);
            prop_assert!(
                decode_atlas(&bytes).is_err(),
                "flip of byte {at} went unnoticed"
            );
        }

        /// Any truncation of a file whose sections are all required is
        /// an error; no prefix length panics or over-allocates.
        #[test]
        fn truncations_yield_typed_errors(
            seed in any::<u64>(),
            cut in any::<u64>(),
        ) {
            let contents = random_contents(seed, 6, 3, false);
            let bytes = encode_atlas(&contents);
            let len = (cut % bytes.len() as u64) as usize;
            prop_assert!(decode_atlas(&bytes[..len]).is_err());
        }

        /// Arbitrary bytes never panic the decoder.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode_atlas(&bytes);
        }
    }
}

#[test]
fn wrong_version_and_foreign_files_are_rejected() {
    let contents = random_contents(7, 4, 2, false);
    let mut bytes = encode_atlas(&contents);
    bytes[8] = 0xfe; // version word
    match decode_atlas(&bytes) {
        Err(AtlasError::UnsupportedVersion(v)) => assert_eq!(v, 0xfe),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert!(matches!(
        decode_atlas(b"not an atlas file at all"),
        Err(AtlasError::BadMagic)
    ));
    // A fabricated huge count in a tiny file must be rejected before
    // any allocation is sized by it (anti-OOM).
    let mut tiny = encode_atlas(&AtlasContents {
        map: Map::new(),
        keyframes: KeyframeStore::new(),
        covisibility: CovisibilityGraph::new(),
        vocabulary: None,
    });
    // Overwrite the MAP section's count (magic 8 + version 4 + tag 4 +
    // len 8 = offset 24) with u64::MAX.
    tiny[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_atlas(&tiny).is_err());
}

#[test]
fn semantic_validators_back_the_decoder() {
    // The decoder rebuilds each section through the same validating
    // constructors the system uses (`Map::from_points`,
    // `KeyframeStore::from_keyframes`, `CovisibilityGraph::from_edges`,
    // `Vocabulary::from_parts`), so structurally well-formed bytes
    // that violate semantic invariants land in `AtlasError::Corrupt`
    // rather than in a poisoned structure. Spot-check the constructor
    // the MAP section delegates to: duplicate stable ids are refused.
    let point = MapPoint {
        id: 5,
        position: Vec3::ZERO,
        descriptor: Descriptor::from_words([1, 2, 3, 4]),
        created_frame: 0,
        last_matched_frame: 0,
        observations: vec![PointObservation {
            keyframe: 0,
            pixel: Vec2::new(1.0, 2.0),
        }],
    };
    assert!(Map::from_points(vec![point.clone(), point]).is_err());
}

// ------------------------------------------- save → load → relocalize

/// Maps `seq` with the tier's configuration (sync backend) into a fresh
/// atlas, which `finish` publishes once.
fn map_circle(seq: &SyntheticSequence) -> (Arc<Atlas>, Slam) {
    let atlas = Arc::new(Atlas::empty());
    let mut cfg = config();
    cfg.backend.mode = BackendMode::Sync;
    let mut slam = Slam::builder()
        .config(cfg)
        .atlas(Arc::clone(&atlas))
        .build();
    for frame in seq.frames() {
        slam.process(frame.timestamp, &frame.gray, &frame.depth);
    }
    slam.finish();
    (atlas, slam)
}

#[test]
fn circle_map_reloads_bit_identically_and_relocalizes_a_cold_session() {
    let spec = &SequenceSpec::loop_sequences(LOOP_FRAMES, IMAGE_SCALE)[0];
    assert_eq!(spec.name, "loop/circle");
    let seq = spec.build();

    // Mapping run: a Slam with an attached atlas publishes on finish.
    let (atlas, slam) = map_circle(&seq);
    assert_eq!(atlas.epoch(), 1, "finish() publishes exactly once");
    let published = atlas.snapshot();
    assert!(
        published.keyframes().len() >= 3,
        "circle promotes keyframes"
    );
    assert!(
        published.can_relocalize(),
        "offline vocabulary training must succeed on the circle corpus"
    );
    assert!(
        published.vocabulary().and_then(|v| v.idf()).is_some(),
        "atlas vocabularies carry tf-idf weights"
    );
    // Keyframe ids are never renumbered: the tracker's keyframe count is
    // the store's length, and every map-side observation names a store
    // keyframe that observed that landmark.
    let store = published.keyframes();
    assert_eq!(slam.keyframes(), store.len());
    let mut checked = 0;
    for point in published.map().points() {
        for observation in &point.observations {
            assert!(
                store
                    .keyframes()
                    .get(observation.keyframe)
                    .is_some_and(|kf| kf.observations.iter().any(|o| o.landmark == point.id)),
                "landmark {} lists keyframe {}, which does not observe it",
                point.id,
                observation.keyframe
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the circle map records observations");

    // Save → load: every section bit-identical.
    let dir = std::env::temp_dir().join(format!("eslam_atlas_tier_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("circle.atlas");
    atlas.save(&path).expect("save");
    let loaded = Atlas::load(&path).expect("load");
    let reloaded = loaded.snapshot();
    assert_eq!(published.map(), reloaded.map());
    assert_eq!(published.keyframes(), reloaded.keyframes());
    assert_eq!(published.covisibility(), reloaded.covisibility());
    assert_eq!(published.vocabulary(), reloaded.vocabulary());
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();

    // Cold start: a fresh session (no tracking history, no motion
    // prior) localizes the sequence's first frame. The mapping run's
    // world frame *is* the first camera frame, so ground truth for the
    // query pose is the identity — within 2 cm.
    let loaded = Arc::new(loaded);
    let mut session = Session::new(Arc::clone(&loaded), config());
    assert!(!session.is_tracking());
    let frame = seq.frames().next().expect("sequence has frames");
    let localization = session
        .localize(&frame.gray)
        .expect("cold-start relocalization succeeds on a mapped view");
    assert!(localization.cold_start, "first frame has no warm pose");
    let err = localization.pose_c2w().translation.norm();
    assert!(
        err < 0.02,
        "cold-start pose {err:.4} m from ground-truth start (budget 2 cm)"
    );
    assert!(session.is_tracking(), "the session is warm afterwards");

    // The now-warm session tracks the next frame without relocalizing.
    let mut frames = seq.frames();
    frames.next();
    let second = frames.next().expect("two frames");
    let warm = session
        .localize(&second.gray)
        .expect("warm tracking continues");
    assert!(!warm.cold_start, "second frame tracks warm");
}

// ---------------------------------------------------- shared serving

#[test]
fn concurrent_sessions_share_one_atlas_without_starving_the_writer() {
    let spec = &SequenceSpec::loop_sequences(LOOP_FRAMES, IMAGE_SCALE)[0];
    let seq = spec.build();

    let (atlas, _) = map_circle(&seq);
    let reference = atlas.snapshot();
    assert!(reference.can_relocalize());

    // 4 sessions cold-start concurrently against the shared atlas; the
    // writer keeps republishing the same world while they work. Every
    // session must converge on the ground-truth start pose, and the
    // writer must get all its publishes through (no reader starvation
    // by construction: readers hold the lock only for an Arc clone).
    let sessions = 4;
    let frame = seq.frames().next().expect("frames");
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                let atlas = Arc::clone(&atlas);
                let gray = frame.gray.clone();
                scope.spawn(move || {
                    let mut session = Session::new(atlas, config());
                    let localization = session.localize(&gray)?;
                    Some(localization.pose_c2w().translation.norm())
                })
            })
            .collect();
        // The single writer republishes while the readers localize.
        for _ in 0..8 {
            let state = eslam_core::AtlasState::from_contents(eslam_core::AtlasContents {
                map: reference.map().clone(),
                keyframes: reference.keyframes().clone(),
                covisibility: reference.covisibility().clone(),
                vocabulary: reference.vocabulary().cloned(),
            });
            atlas.publish(state);
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(atlas.epoch(), 1 + 8, "all writer publishes landed");
    for (i, err) in results.into_iter().enumerate() {
        let err = err.unwrap_or_else(|| panic!("session {i} failed to localize"));
        assert!(err < 0.02, "session {i} pose error {err:.4} m");
    }
}

/// Every float of a pose, as bits.
fn pose_bits(pose: &Se3) -> Vec<u64> {
    let t = pose.translation;
    (pose.rotation.m.iter().flatten())
        .chain([&t.x, &t.y, &t.z])
        .map(|v| v.to_bits())
        .collect()
}

/// A session splits each relocalization's candidate match across its
/// own pool: cold sessions on one and on two worker threads localize
/// every frame of the circle to the same pose bits and inlier counts.
#[test]
fn cold_sessions_localize_identically_on_one_and_two_threads() {
    let spec = &SequenceSpec::loop_sequences(LOOP_FRAMES, IMAGE_SCALE)[0];
    let seq = spec.build();
    let (atlas, _) = map_circle(&seq);
    let session_on = |threads| {
        let mut cfg = config();
        cfg.worker_threads = Some(threads);
        Session::new(Arc::clone(&atlas), cfg)
    };
    let (mut one, mut two) = (session_on(1), session_on(2));
    let mut localized = 0;
    for (i, frame) in seq.frames().enumerate() {
        let cold = |session: &mut Session| {
            session.reset();
            let localization = session.localize(&frame.gray)?;
            assert!(
                localization.cold_start,
                "frame {i}: reset sessions start cold"
            );
            Some((pose_bits(&localization.pose_w2c), localization.inliers))
        };
        let on_one = cold(&mut one);
        assert_eq!(on_one, cold(&mut two), "frame {i}");
        localized += usize::from(on_one.is_some());
    }
    assert!(
        localized > LOOP_FRAMES / 2,
        "{localized} of {LOOP_FRAMES} frames localized"
    );
}

// ------------------------------------------------ wrong-size queries

/// A frame whose size is not the session's camera's is refused before
/// extraction: its keypoints would be solved with intrinsics that do
/// not describe it. A 160×120 atlas gets a 320×240 query (the first
/// view tiled 2×2) and an 80×60 one (every other pixel of it), both
/// while cold and while warm; neither moves the session's state.
#[test]
fn a_query_of_the_wrong_size_is_refused() {
    let spec = &SequenceSpec::loop_sequences(LOOP_FRAMES, IMAGE_SCALE)[0];
    let seq = spec.build();
    let (atlas, _) = map_circle(&seq);
    assert!(atlas.snapshot().can_relocalize());

    let frame = seq.frames().next().expect("sequence has frames");
    let (w, h) = (frame.gray.width(), frame.gray.height());
    let camera = config().camera;
    assert_eq!((w, h), (camera.width, camera.height));
    let tiled = GrayImage::from_fn(2 * w, 2 * h, |x, y| frame.gray.get(x % w, y % h));
    let half = GrayImage::from_fn(w / 2, h / 2, |x, y| frame.gray.get(2 * x, 2 * y));
    let mut session = Session::new(atlas, config());
    for wrong in [&tiled, &half] {
        assert_eq!(session.localize(wrong), None);
        assert!(!session.is_tracking(), "a refused frame warms nothing");
    }
    let cold = session
        .localize(&frame.gray)
        .expect("the camera-sized frame localizes");
    assert!(cold.cold_start);
    for wrong in [&tiled, &half] {
        assert_eq!(session.localize(wrong), None);
        assert!(session.is_tracking(), "a refused frame keeps the warm pose");
    }
    let warm = session
        .localize(&frame.gray)
        .expect("the warm session tracks the same view again");
    assert!(!warm.cold_start);
}
