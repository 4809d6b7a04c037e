//! **eslam-core** — the eSLAM RGB-D visual SLAM system.
//!
//! This crate assembles the full pipeline of the paper's Fig. 1 on top of
//! the substrate crates:
//!
//! * **Feature extraction** — `eslam-features` ORB with the paper's
//!   RS-BRIEF descriptor and rescheduled streaming workflow;
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
//! * **Heterogeneous execution model** — with
//!   [`config::Backend::Accelerator`], every frame also reports the
//!   modelled FPGA latencies from `eslam-hw`, and [`pipeline`] schedules
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
//! # Environment overrides
//!
//! All process-wide toggles live behind the one typed surface of
//! [`overrides`] ([`overrides::Overrides::from_env`] parses and
//! validates the whole set in one shot):
//!
//! * `ESLAM_MATCH_KERNEL` (`auto`/`scalar`/`popcnt`/`avx2`/`avx512`) —
//!   pins the Hamming-matcher kernel rung
//!   (`eslam_features::matcher::active_kernel`);
//! * `ESLAM_PREFETCH` (`auto`/`on`/`off`) — forces the dataset
//!   prefetch decision over the configured [`config::PrefetchMode`]
//!   ([`config::PREFETCH_ENV`]). CI runs the suite under both forced
//!   values;
//! * `ESLAM_BACKEND` (`auto`/`off`/`sync`/`async`) — forces the
//!   keyframe-backend execution mode over the configured
//!   [`config::BackendConfig::mode`] ([`config::BACKEND_ENV`]). CI
//!   runs the suite under both `sync` and `async`;
//! * `ESLAM_BANDS` (`auto`/a positive integer) — forces the per-level
//!   row-band count of the streaming extractor over the configured
//!   `eslam_features::OrbConfig::bands` (`eslam_features::stream::BANDS_ENV`).
//!   Output is bit-identical for every count (`tests/stream_equivalence.rs`);
//! * `ESLAM_TELEMETRY` (`auto`/`off`/`counters`/`full`) — forces the
//!   telemetry recording mode over the configured
//!   [`config::SlamConfig::telemetry`] ([`config::TELEMETRY_ENV`]).
//!   Telemetry observes only: trajectories are bit-identical under
//!   every mode (`tests/telemetry.rs`);
//! * `ESLAM_ATLAS` (a filesystem path) — names an atlas file for
//!   sessions to load at start ([`overrides::ATLAS_ENV`],
//!   [`atlas::Atlas::load_from_env`]).
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
    Backend, BackendConfig, BackendMode, KeyframeCullConfig, LoopClosureConfig, PrefetchMode,
    SlamConfig, TelemetryConfig, TelemetryMode, BACKEND_ENV, PREFETCH_ENV, TELEMETRY_ENV,
};
pub use map::{Map, MapPoint, PointObservation};
pub use overrides::{Overrides, ATLAS_ENV};
pub use persist::{AtlasContents, AtlasError};
pub use pipeline::{sequence_timing, PlatformSequenceTiming, SequenceWallTiming};
pub use runner::{run_sequence, RunResult, Stage};
pub use session::{Localization, Session};
pub use stats::SequenceStats;
pub use system::{FrameHwTiming, FrameReport, Slam, SlamBuilder};
pub use tracking::{track_frame, TrackingOutcome};
