//! **eslam-core** — the eSLAM RGB-D visual SLAM system.
//!
//! This crate assembles the full pipeline of the paper's Fig. 1 on top of
//! the substrate crates:
//!
//! * **Feature extraction** — `eslam-features` ORB with the paper's
//!   RS-BRIEF descriptor, streamed in the rescheduled detect → compute →
//!   filter order;
//! * **Feature matching** — Hamming brute-force against the global map;
//! * **Pose estimation** — P3P + RANSAC (`eslam-geometry::pnp`);
//! * **Pose optimization** — Levenberg-Marquardt reprojection
//!   minimization (`eslam-geometry::lm`, Eq. 1);
//! * **Map updating** — key-frame-gated landmark insertion and culling,
//!   with stable landmark ids, per-point observation lists and an
//!   incrementally maintained descriptor column;
//! * **Keyframe backend** — every promoted frame becomes a
//!   covisibility-linked keyframe (`eslam-backend`), and a windowed
//!   local bundle adjustment (`eslam_geometry::ba`) jointly refines the
//!   recent keyframe poses and their landmarks, synchronously or
//!   asynchronously on the worker pool
//!   ([`config::BackendConfig::mode`]); refinements swap in at frame
//!   boundaries, so async == sync bit-identically
//!   (`tests/backend_equivalence.rs`);
//! * **Heterogeneous execution model** — every frame also reports the
//!   modelled FPGA latencies of its front-end stages from `eslam-hw`
//!   ([`FrameReport::hw_timing`]), and [`pipeline`] schedules
//!   whole sequences under the Fig. 7 pipeline for the ARM / Intel i7 /
//!   eSLAM platform comparison;
//! * **Streaming dataset layer** — [`runner::run_sequence`] accepts any
//!   `eslam_dataset::FrameSource` and, per
//!   [`config::SlamConfig::prefetch`], overlaps frame production with
//!   tracking via the double-buffered async prefetcher (bit-identical
//!   to synchronous pulls; the measured wait/track split is in
//!   [`runner::RunResult::wall`]);
//! * **Persisted, shared maps** — a finished run's map can be saved to
//!   the versioned, checksummed [`persist`] binary format, served to
//!   many concurrent readers through the epoch-snapshotted
//!   [`atlas::Atlas`], and re-entered cold by a [`session::Session`]
//!   via BoW relocalization (`eslam_backend::Relocalizer`).
//!
//! # Configuration
//!
//! [`Slam`], [`Session`] and [`run_sequence`] honour [`SlamConfig`]
//! exactly: library code never reads the process environment. The
//! `ESLAM_*` operator toggles (`ESLAM_PREFETCH`, `ESLAM_BACKEND`,
//! `ESLAM_BANDS`, `ESLAM_TELEMETRY`) are read only by
//! [`overrides::Overrides::from_env`], and a harness binary that
//! honours them writes them into its config with
//! [`overrides::Overrides::apply`]. The test tiers prove every mode
//! they select equivalent in-process
//! (`tests/{prefetch,backend,stream}_equivalence.rs`,
//! `tests/telemetry.rs`).
//!
//! # Examples
//!
//! Track a short synthetic sequence:
//!
//! ```
//! use eslam_core::{Slam, SlamConfig};
//! use eslam_dataset::sequence::SequenceSpec;
//!
//! // Quarter-scale fr1/xyz keeps the doc test fast.
//! let seq = SequenceSpec::paper_sequences(3, 0.25)[0].build();
//! let mut slam = Slam::builder()
//!     .config(SlamConfig::scaled_for_tests(4.0))
//!     .build();
//! for frame in seq.frames() {
//!     let report = slam.process(frame.timestamp, &frame.gray, &frame.depth);
//!     assert!(report.tracking_ok);
//! }
//! assert_eq!(slam.trajectory().len(), 3);
//! ```
//!
//! Share the finished map with concurrent reader sessions:
//!
//! ```
//! use std::sync::Arc;
//! use eslam_core::{Atlas, Session, Slam, SlamConfig};
//! use eslam_dataset::sequence::SequenceSpec;
//!
//! let seq = SequenceSpec::paper_sequences(3, 0.25)[0].build();
//! let atlas = Arc::new(Atlas::empty());
//! let mut slam = Slam::builder()
//!     .config(SlamConfig::scaled_for_tests(4.0))
//!     .atlas(Arc::clone(&atlas))
//!     .build();
//! for frame in seq.frames() {
//!     slam.process(frame.timestamp, &frame.gray, &frame.depth);
//! }
//! slam.finish(); // publishes the map: epoch 0 → 1
//! assert_eq!(atlas.epoch(), 1);
//!
//! // Any number of sessions localize against the published snapshot.
//! let mut session = Session::new(Arc::clone(&atlas), SlamConfig::scaled_for_tests(4.0));
//! let frame = seq.frames().next().unwrap();
//! let localization = session.localize(&frame.gray);
//! # let _ = localization;
//! ```
//!
//! Or run a whole [`eslam_dataset::FrameSource`] in one call, with the
//! frame-wait / track overlap measured for you:
//!
//! ```
//! use eslam_core::{run_sequence, SlamConfig};
//! use eslam_dataset::sequence::SequenceSpec;
//!
//! let seq = SequenceSpec::paper_sequences(3, 0.25)[0].build();
//! let result = run_sequence(&seq, SlamConfig::scaled_for_tests(4.0));
//! assert_eq!(result.reports.len(), 3);
//! assert!(result.wall.track_ms > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atlas;
pub mod config;
pub mod map;
pub mod overrides;
pub mod persist;
pub mod pipeline;
pub mod runner;
pub mod session;
pub mod stats;
pub mod system;
pub mod tracking;

/// The telemetry substrate crate, re-exported whole: histograms,
/// flight-recorder timelines, exporters and the event ring.
pub use eslam_telemetry as telemetry;

pub use atlas::{Atlas, AtlasState};
pub use config::{
    BackendConfig, BackendMode, LoopClosureConfig, PrefetchMode, SlamConfig, TelemetryConfig,
    TelemetryMode,
};
pub use map::{Map, MapPoint, PointObservation};
pub use overrides::Overrides;
pub use persist::{AtlasContents, AtlasError};
pub use pipeline::{sequence_timing, PlatformSequenceTiming, SequenceWallTiming};
pub use runner::{run_sequence, RunResult, Stage};
pub use session::{Localization, Session};
pub use stats::SequenceStats;
pub use system::{FrameHwTiming, FrameReport, Slam, SlamBuilder};
pub use tracking::{track_frame, TrackingOutcome};
