//! SLAM system configuration.

use eslam_features::orb::OrbConfig;
use eslam_geometry::lm::LmParams;
use eslam_geometry::pnp::PnpParams;
use eslam_geometry::PinholeCamera;

pub use eslam_backend::{BackendConfig, BackendMode, LoopClosureConfig};
pub use eslam_telemetry::{TelemetryConfig, TelemetryMode};

/// Whether [`crate::run_sequence`] streams frames through the async
/// double-buffered prefetcher (`eslam_dataset::prefetch`) or pulls them
/// synchronously. Both paths are bit-identical (proven by
/// `tests/prefetch_equivalence.rs`); they differ only in whether frame
/// `k + 1` renders while frame `k` is being tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchMode {
    /// Prefetch when it can actually overlap: enabled iff the host
    /// exposes more than one hardware thread.
    #[default]
    Auto,
    /// Always stream through the prefetcher (on a single-core host the
    /// render degenerates to inline execution at the join — correct,
    /// just without overlap).
    On,
    /// Always pull frames synchronously.
    Off,
}

impl PrefetchMode {
    /// Resolves the mode to a decision; `Auto` prefetches iff the host
    /// exposes more than one hardware thread.
    pub fn resolved(self) -> bool {
        match self {
            PrefetchMode::On => true,
            PrefetchMode::Off => false,
            PrefetchMode::Auto => eslam_features::pool::available_threads() > 1,
        }
    }
}

/// Configuration of the [`crate::Slam`] system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlamConfig {
    /// Camera intrinsics.
    pub camera: PinholeCamera,
    /// Feature extraction configuration (descriptor kind, pyramid,
    /// FAST threshold, 1024-feature cap, row bands).
    pub orb: OrbConfig,
    /// Maximum Hamming distance for a match to be used by tracking.
    pub matcher_max_distance: u32,
    /// Robust PnP parameters (pose estimation stage).
    pub pnp: PnpParams,
    /// Levenberg-Marquardt parameters (pose optimization stage).
    pub lm: LmParams,
    /// Key-frame translation threshold in metres (§2.1: "translation or
    /// rotation of the camera is larger than a threshold").
    pub keyframe_translation: f64,
    /// Key-frame rotation threshold in radians.
    pub keyframe_rotation: f64,
    /// Frames a map point may stay unmatched before culling (§2.1: map
    /// points "that have not been matched for a long period of time are
    /// deleted").
    pub map_cull_age: usize,
    /// Hard cap on global map size (the BRIEF Matcher descriptor-cache
    /// budget; oldest-unmatched points are evicted beyond it).
    pub max_map_points: usize,
    /// Minimum PnP inliers for a frame to be considered tracked.
    pub min_inliers: usize,
    /// The keyframe backend: covisibility-linked keyframes + windowed
    /// local bundle adjustment, run sync/async per
    /// [`BackendConfig::mode`].
    pub backend: BackendConfig,
    /// Worker threads for the front-end pool (parallel extraction levels
    /// and matcher rows). `None` sizes the pool to the host's available
    /// parallelism. An explicit `Some(n)` is **clamped** to available
    /// parallelism rather than honoured blindly, and `Some(0)` is
    /// rejected with a panic at [`crate::SlamBuilder::build`] — see
    /// `eslam_features::pool::resolve_thread_count` for the exact rules.
    pub worker_threads: Option<usize>,
    /// Whether [`crate::run_sequence`] overlaps frame production with
    /// tracking via the async double-buffered prefetcher.
    pub prefetch: PrefetchMode,
    /// Observability configuration: what the telemetry layer records
    /// ([`TelemetryConfig::mode`]), the per-frame budget, and the
    /// flight-recorder / trace-buffer sizes. Telemetry observes only —
    /// trajectories and stats are bit-identical under every mode.
    pub telemetry: TelemetryConfig,
}

impl SlamConfig {
    /// The paper's configuration for a TUM fr1-like camera.
    pub fn tum_default() -> Self {
        SlamConfig {
            camera: PinholeCamera::tum_fr1(),
            orb: OrbConfig::default(),
            matcher_max_distance: 64,
            pnp: PnpParams::default(),
            lm: LmParams {
                // Anchor the per-frame pose to the constant-velocity
                // prediction: in weakly-conditioned regimes (small
                // images, shallow parallax) the reprojection cost has a
                // near-flat valley and the prior picks the physically
                // plausible point in it. Well-conditioned solves are
                // unaffected — the reprojection gradient is orders of
                // magnitude steeper. See the quarter-scale conditioning
                // analysis in crates/core/src/system.rs.
                // 400 px²/m²: a 5 cm deviation from the prediction
                // costs 1 px² — decisive inside the flat valley, three
                // orders of magnitude below the data term when the
                // geometry actually constrains the pose.
                motion_prior_weight: 400.0,
                ..LmParams::default()
            },
            keyframe_translation: 0.08,
            keyframe_rotation: 0.12,
            map_cull_age: 45,
            max_map_points: 2304,
            min_inliers: 10,
            backend: BackendConfig::default(),
            worker_threads: None,
            prefetch: PrefetchMode::Auto,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// A configuration scaled for smaller test images (camera shrunk by
    /// `1/scale`).
    pub fn scaled_for_tests(scale: f64) -> Self {
        let mut cfg = SlamConfig::tum_default();
        cfg.camera = cfg.camera.scaled(scale);
        cfg
    }
}

impl Default for SlamConfig {
    fn default() -> Self {
        SlamConfig::tum_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_design_point() {
        let cfg = SlamConfig::default();
        assert_eq!(cfg.orb.max_features, 1024);
        assert_eq!(cfg.max_map_points, 2304);
        assert_eq!(cfg.camera.width, 640);
        // The keyframe backend defaults to the async local-mapping
        // pattern with a sane sliding window.
        assert_eq!(cfg.backend.mode, BackendMode::Async);
        assert!(cfg.backend.window >= 2);
        assert!(cfg.lm.motion_prior_weight > 0.0);
    }

    #[test]
    fn scaled_config_shrinks_camera() {
        let cfg = SlamConfig::scaled_for_tests(4.0);
        assert_eq!(cfg.camera.width, 160);
        assert_eq!(cfg.camera.height, 120);
    }

    #[test]
    fn prefetch_mode_defaults_to_auto() {
        assert_eq!(SlamConfig::default().prefetch, PrefetchMode::Auto);
        assert_eq!(PrefetchMode::default(), PrefetchMode::Auto);
    }

    #[test]
    fn prefetch_resolution_honours_explicit_modes() {
        assert!(PrefetchMode::On.resolved());
        assert!(!PrefetchMode::Off.resolved());
        let cores = eslam_features::pool::available_threads();
        assert_eq!(PrefetchMode::Auto.resolved(), cores > 1);
    }

    #[test]
    fn telemetry_resolution_honours_config() {
        // `Slam` builds its sink from `SlamConfig::telemetry` exactly as
        // given: no sink when off, otherwise every field passes through.
        let mut config = SlamConfig::scaled_for_tests(4.0);
        config.telemetry.frame_budget_ms = 33.0;
        config.telemetry.flight_frames = 7;
        for mode in [
            TelemetryMode::Off,
            TelemetryMode::Counters,
            TelemetryMode::Full,
        ] {
            config.telemetry.mode = mode;
            let slam = crate::Slam::builder().config(config).build();
            match slam.telemetry() {
                None => assert_eq!(mode, TelemetryMode::Off),
                Some(sink) => assert_eq!(*sink.config(), config.telemetry),
            }
        }
    }
}
