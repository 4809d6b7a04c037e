//! A **Session**: one camera localizing against a shared [`Atlas`].
//!
//! Where [`crate::Slam`] *builds* a map, a `Session` *uses* one: it
//! owns only per-tracker state (feature extractor, scratch buffers,
//! the last pose) and treats the atlas as a read-mostly world shared
//! with any number of sibling sessions. The lifecycle per frame:
//!
//! 1. **refresh** — if the atlas epoch moved since the last frame, the
//!    session re-snapshots (an `Arc` clone; no data copied, no lock
//!    held during localization);
//! 2. **warm track** — with a pose from the previous frame, ordinary
//!    map-based tracking (`crate::tracking::track_frame`) against the
//!    snapshot's landmark map, using the held pose as motion prior;
//! 3. **cold start** — with no pose (first frame, or tracking lost),
//!    BoW relocalization (`eslam_backend::Relocalizer::relocalize_in`)
//!    against the snapshot's keyframes, its candidate matches split
//!    across the session's own worker pool, then a refine against the
//!    snapshot's map that matches by projection under the relocalized
//!    pose (`crate::tracking::track_frame_by_projection`): each feature
//!    is compared only with the map points that land near its keypoint,
//!    not with the whole map.
//!
//! A frame whose size is not the configured camera's is refused before
//! any of this: its keypoints would be solved with intrinsics that do
//! not describe it.
//!
//! Sessions are cheap (one extractor + scratch) and independent: N of
//! them on N threads share one [`Atlas`] without blocking each other
//! or the writer — see `benches/atlas.rs` for the measured scaling.

use std::sync::Arc;

use eslam_backend::RelocalizationConfig;
use eslam_features::orb::{OrbExtractor, OrbScratch};
use eslam_geometry::{Se3, Vec2};
use eslam_image::GrayImage;

use crate::atlas::{Atlas, AtlasState};
use crate::config::SlamConfig;
use crate::tracking::{track_frame, track_frame_by_projection};

/// One localized frame: where the camera is in the atlas' world frame
/// and how the estimate was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Localization {
    /// World-to-camera pose of the frame.
    pub pose_w2c: Se3,
    /// Geometric inliers supporting the estimate.
    pub inliers: usize,
    /// Whether this frame went through cold-start relocalization
    /// (`true`) or warm map-based tracking (`false`).
    pub cold_start: bool,
    /// Atlas epoch the frame localized against.
    pub epoch: u64,
}

impl Localization {
    /// Camera-to-world pose (the camera's position/orientation in the
    /// shared world frame).
    pub fn pose_c2w(&self) -> Se3 {
        self.pose_w2c.inverse()
    }
}

/// A per-camera handle onto a shared [`Atlas`]: extractor state, the
/// current snapshot, and the warm-tracking pose. See the module docs.
#[derive(Debug)]
pub struct Session {
    atlas: Arc<Atlas>,
    config: SlamConfig,
    extractor: OrbExtractor,
    scratch: OrbScratch,
    snapshot: Arc<AtlasState>,
    epoch_seen: u64,
    last_pose_w2c: Option<Se3>,
}

impl Session {
    /// Opens a session against `atlas`, snapshotting its current
    /// state.
    pub fn new(atlas: Arc<Atlas>, config: SlamConfig) -> Session {
        let snapshot = atlas.snapshot();
        let epoch_seen = atlas.epoch();
        Session {
            atlas,
            config,
            extractor: OrbExtractor::new(config.orb),
            scratch: OrbScratch::with_threads(config.worker_threads),
            snapshot,
            epoch_seen,
            last_pose_w2c: None,
        }
    }

    /// The atlas this session localizes against.
    pub fn atlas(&self) -> &Arc<Atlas> {
        &self.atlas
    }

    /// The atlas epoch of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch_seen
    }

    /// Whether the session holds a warm pose (the next frame will try
    /// tracking before relocalization).
    pub fn is_tracking(&self) -> bool {
        self.last_pose_w2c.is_some()
    }

    /// Drops the warm pose: the next frame cold-starts. (Also the
    /// recovery path a caller should take after moving the camera
    /// while paused.)
    pub fn reset(&mut self) {
        self.last_pose_w2c = None;
    }

    /// Localizes one grayscale frame against the shared atlas. Returns
    /// `None` when neither warm tracking nor cold-start relocalization
    /// produced an acceptable pose (the session stays cold and retries
    /// on the next frame), and when `gray` is not the configured
    /// camera's width × height (the frame is refused unread, and the
    /// session keeps its state).
    pub fn localize(&mut self, gray: &GrayImage) -> Option<Localization> {
        let camera = &self.config.camera;
        if (gray.width(), gray.height()) != (camera.width, camera.height) {
            return None;
        }
        // Pick up a newer world if the writer published one. Stale
        // snapshots stay fully usable — this is freshness, not safety.
        let epoch = self.atlas.epoch();
        if epoch != self.epoch_seen {
            self.snapshot = self.atlas.snapshot();
            self.epoch_seen = epoch;
        }

        let features = self.extractor.extract_with(gray, &mut self.scratch);

        // Warm path: ordinary map-based tracking with the held pose as
        // prior, exactly like `Slam`'s per-frame tracking stage.
        if let Some(prior) = self.last_pose_w2c {
            let outcome = track_frame(
                &features,
                self.snapshot.map(),
                &prior,
                &self.config,
                self.scratch.pool(),
            );
            if outcome.ok {
                self.last_pose_w2c = Some(outcome.pose_w2c);
                return Some(Localization {
                    pose_w2c: outcome.pose_w2c,
                    inliers: outcome.inliers,
                    cold_start: false,
                    epoch: self.epoch_seen,
                });
            }
            // Tracking lost: fall through to relocalization.
            self.last_pose_w2c = None;
        }

        // Cold path: BoW retrieval + PnP against the keyframe store.
        let vocabulary = self.snapshot.vocabulary()?;
        let pixels: Vec<Vec2> = features
            .keypoints
            .iter()
            .map(|kp| Vec2::new(kp.x, kp.y))
            .collect();
        let reloc = self.snapshot.relocalizer().relocalize_in(
            self.scratch.pool(),
            vocabulary,
            self.snapshot.keyframes(),
            &self.config.camera,
            &features.descriptors,
            &pixels,
            &RelocalizationConfig::default(),
        )?;

        // Refine against the map — but only adopt the result on
        // strictly stronger geometric support. P3P has verified the
        // relocalized pose, so the refine checks it rather than searching
        // again: it matches each feature only with the map points that
        // project near its keypoint under that pose, then runs tracking's
        // PnP → LM → re-validation tail with the pose as LM prior. The
        // raw solve runs against the candidate keyframe's promotion-time
        // *camera-frame* landmark snapshot (drift-free RGB-D
        // measurements); the refine runs against the global map, whose
        // landmark positions carry whatever drift the mapping run
        // accumulated. When the keyframe already explains the frame
        // better (more inliers), polishing against the map would trade
        // metric accuracy for map consistency.
        let refine = track_frame_by_projection(
            &features,
            self.snapshot.map(),
            &reloc.pose_w2c,
            &self.config,
        );
        let (pose_w2c, inliers) = if refine.ok && refine.inliers > reloc.inliers {
            (refine.pose_w2c, refine.inliers)
        } else {
            (reloc.pose_w2c, reloc.inliers)
        };
        self.last_pose_w2c = Some(pose_w2c);
        Some(Localization {
            pose_w2c,
            inliers,
            cold_start: true,
            epoch: self.epoch_seen,
        })
    }
}
