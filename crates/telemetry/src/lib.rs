//! **eslam-telemetry** — pipeline observability for the eSLAM
//! reproduction: tracing spans, per-stage latency histograms, monotonic
//! counters, a frame flight recorder, a diagnostic event layer, and
//! Prometheus / JSON / Chrome-`trace_event` exporters.
//!
//! # Design
//!
//! The whole layer hangs off one sink object, [`Telemetry`], created by
//! [`Telemetry::new`] and attached as an `Option<Arc<Telemetry>>` to
//! the long-lived pipeline objects (the SLAM system, extraction
//! scratch, backend runner, prefetcher). The three modes
//! ([`TelemetryMode`]):
//!
//! * **Off** — `Telemetry::new` returns `None`; there is no sink. The
//!   hot path's only residue is a branch on an `Option` that is `None`:
//!   no `Instant::now()` calls, no allocation, no locks, no atomics.
//! * **Counters** (the default) — monotonic [`Counter`]s increment
//!   (one relaxed `fetch_add` each); no timing is taken.
//! * **Full** — [`Span`]s additionally time every pipeline stage into
//!   lock-free log-bucketed histograms ([`hist::LogHistogram`]), feed
//!   the bounded flight-recorder ring of recent frame timelines
//!   ([`FrameTimeline`]), and append Chrome `trace_event` records for
//!   Perfetto. Span recording is wait-free except for one short
//!   uncontended mutex push per span into the bounded trace buffer.
//!
//! Telemetry **observes** and never steers: results are bit-identical
//! across all three modes (pinned by the workspace's telemetry
//! equivalence tier).
//!
//! # Examples
//!
//! ```
//! use eslam_telemetry::{Counter, Stage, Telemetry, TelemetryConfig, TelemetryMode};
//!
//! let mut config = TelemetryConfig::default();
//! config.mode = TelemetryMode::Full;
//! let telemetry = Telemetry::new(config).expect("full mode builds a sink");
//!
//! {
//!     let _span = telemetry.span(Stage::Extraction);
//!     // ... work ...
//! } // recorded on drop
//! telemetry.count(Counter::FramesProcessed, 1);
//!
//! let summary = telemetry.summary();
//! assert_eq!(summary.counter(Counter::FramesProcessed), 1);
//! assert!(summary.stage(Stage::Extraction).is_some());
//!
//! // Off mode has no sink at all:
//! assert!(Telemetry::new(TelemetryConfig::default().with_mode(TelemetryMode::Off)).is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod events;
pub mod export;
pub mod hist;
mod recorder;
mod trace;

pub use export::{StageSummary, TelemetrySummary};
pub use recorder::FrameTimeline;

use hist::LogHistogram;
use recorder::FlightRecorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much the telemetry layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No sink is built; the hot path pays only a `None` branch.
    Off,
    /// Monotonic counters only — no clocks are read.
    #[default]
    Counters,
    /// Counters + per-stage histograms + flight recorder + trace.
    Full,
}

impl TelemetryMode {
    /// Parses the keyword spellings used by the `ESLAM_TELEMETRY`
    /// environment toggle (`off`, `counters`, `full`; the caller maps
    /// unset/`auto` to "no override" first).
    pub fn parse(value: &str) -> Option<TelemetryMode> {
        match value {
            "off" => Some(TelemetryMode::Off),
            "counters" => Some(TelemetryMode::Counters),
            "full" => Some(TelemetryMode::Full),
            _ => None,
        }
    }

    /// The keyword spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Counters => "counters",
            TelemetryMode::Full => "full",
        }
    }
}

impl std::fmt::Display for TelemetryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the telemetry layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// What to record (see [`TelemetryMode`]).
    pub mode: TelemetryMode,
    /// Per-frame wall-clock budget in milliseconds. A frame whose
    /// tracking time exceeds it bumps [`Counter::FramesOverBudget`]
    /// and (in full mode) pins its timeline as
    /// [`Telemetry::last_over_budget`] and raises a diagnostic
    /// [`events`] warning. `0.0` disables the check.
    pub frame_budget_ms: f64,
    /// Frame timelines kept in the flight-recorder ring (full mode).
    pub flight_frames: usize,
    /// Maximum Chrome `trace_event` records buffered (full mode);
    /// events past the cap are counted as dropped, not recorded.
    pub trace_events: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            mode: TelemetryMode::Counters,
            frame_budget_ms: 0.0,
            flight_frames: 32,
            trace_events: 65_536,
        }
    }
}

impl TelemetryConfig {
    /// Builder-style mode replacement.
    pub fn with_mode(mut self, mode: TelemetryMode) -> TelemetryConfig {
        self.mode = mode;
        self
    }
}

/// A pipeline stage instrumented with a span. One histogram per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Caller blocked waiting for frame pixels (render/load/prefetch
    /// join).
    FrameWait,
    /// One whole `Slam::process` call (the five-stage tracking
    /// pipeline plus the backend application point).
    Track,
    /// Image-pyramid build (downscale chain) for one frame.
    PyramidBuild,
    /// One row band's streaming pass: one span per (level, band) task
    /// and pass, so two per band and frame (detection, then
    /// description); Perfetto worker tracks show the realized overlap.
    ExtractBand,
    /// The whole feature-extraction stage of one frame.
    Extraction,
    /// Time an extraction task of either pass waited in the
    /// worker-pool queue before a worker picked it up.
    PoolQueueWait,
    /// Dispatch + drain of one parallel extraction batch on the pool
    /// (two per frame: the detection pass, then the description pass).
    PoolDispatch,
    /// Descriptor matching against the map.
    Matching,
    /// P3P + RANSAC pose estimation.
    PoseEstimate,
    /// Levenberg-Marquardt pose optimization.
    PoseOptimize,
    /// Keyframe promotion: observation wiring, map insertion, culling
    /// and backend hand-off.
    KeyframePromotion,
    /// One windowed local-BA solve (on whichever thread runs it).
    BackendSolve,
    /// Blocking join of a dispatched backend job at its application
    /// point.
    BackendJoin,
    /// Place recognition (BoW observe/query) on the tracking thread.
    LoopDetect,
    /// Loop-candidate geometric verification + pose-graph solve.
    LoopVerify,
    /// Atlas snapshot build + publish at the end of a run.
    AtlasPublish,
    /// One background prefetch render of a frame.
    PrefetchRender,
}

impl Stage {
    /// Number of stages (array dimension for per-stage state).
    pub const COUNT: usize = 17;

    /// Every stage, in declaration order (index == discriminant).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::FrameWait,
        Stage::Track,
        Stage::PyramidBuild,
        Stage::ExtractBand,
        Stage::Extraction,
        Stage::PoolQueueWait,
        Stage::PoolDispatch,
        Stage::Matching,
        Stage::PoseEstimate,
        Stage::PoseOptimize,
        Stage::KeyframePromotion,
        Stage::BackendSolve,
        Stage::BackendJoin,
        Stage::LoopDetect,
        Stage::LoopVerify,
        Stage::AtlasPublish,
        Stage::PrefetchRender,
    ];

    /// Stable metric name (snake_case; used by every exporter).
    pub fn name(self) -> &'static str {
        match self {
            Stage::FrameWait => "frame_wait",
            Stage::Track => "track",
            Stage::PyramidBuild => "pyramid_build",
            Stage::ExtractBand => "extract_band",
            Stage::Extraction => "extraction",
            Stage::PoolQueueWait => "pool_queue_wait",
            Stage::PoolDispatch => "pool_dispatch",
            Stage::Matching => "matching",
            Stage::PoseEstimate => "pose_estimate",
            Stage::PoseOptimize => "pose_optimize",
            Stage::KeyframePromotion => "keyframe_promotion",
            Stage::BackendSolve => "backend_solve",
            Stage::BackendJoin => "backend_join",
            Stage::LoopDetect => "loop_detect",
            Stage::LoopVerify => "loop_verify",
            Stage::AtlasPublish => "atlas_publish",
            Stage::PrefetchRender => "prefetch_render",
        }
    }

    /// Dense index into per-stage arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A monotonic pipeline counter (active in counters and full mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Frames processed end-to-end.
    FramesProcessed,
    /// Frames promoted to keyframes.
    KeyframesPromoted,
    /// Map points removed by age/capacity culling.
    LandmarksCulled,
    /// Loop-closure candidates that passed the place-recognition gate
    /// and were dispatched for verification.
    LoopCandidates,
    /// Verified loop closures accepted and applied.
    LoopClosuresAccepted,
    /// Loop candidates rejected by geometric verification.
    LoopClosuresRejected,
    /// Relocalization attempts (recovery retries + cold starts).
    RelocAttempts,
    /// Relocalization attempts that produced an accepted pose.
    RelocSuccesses,
    /// Geometric inlier correspondences accumulated over all frames.
    MatchInliers,
    /// Raw descriptor matches accumulated over all frames.
    RawMatches,
    /// Frames that failed the tracking inlier threshold (after any
    /// recovery retry).
    TrackingFailures,
    /// Frames whose tracking time exceeded
    /// [`TelemetryConfig::frame_budget_ms`].
    FramesOverBudget,
}

impl Counter {
    /// Number of counters (array dimension).
    pub const COUNT: usize = 12;

    /// Every counter, in declaration order (index == discriminant).
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::FramesProcessed,
        Counter::KeyframesPromoted,
        Counter::LandmarksCulled,
        Counter::LoopCandidates,
        Counter::LoopClosuresAccepted,
        Counter::LoopClosuresRejected,
        Counter::RelocAttempts,
        Counter::RelocSuccesses,
        Counter::MatchInliers,
        Counter::RawMatches,
        Counter::TrackingFailures,
        Counter::FramesOverBudget,
    ];

    /// Stable metric name (snake_case; used by every exporter).
    pub fn name(self) -> &'static str {
        match self {
            Counter::FramesProcessed => "frames_processed",
            Counter::KeyframesPromoted => "keyframes_promoted",
            Counter::LandmarksCulled => "landmarks_culled",
            Counter::LoopCandidates => "loop_candidates",
            Counter::LoopClosuresAccepted => "loop_closures_accepted",
            Counter::LoopClosuresRejected => "loop_closures_rejected",
            Counter::RelocAttempts => "relocalization_attempts",
            Counter::RelocSuccesses => "relocalization_successes",
            Counter::MatchInliers => "match_inliers",
            Counter::RawMatches => "raw_matches",
            Counter::TrackingFailures => "tracking_failures",
            Counter::FramesOverBudget => "frames_over_budget",
        }
    }

    /// Dense index into per-counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The telemetry sink: one per SLAM system, shared (via `Arc`) with
/// every pipeline object that records into it. See the [module
/// docs](self) for the mode semantics.
pub struct Telemetry {
    config: TelemetryConfig,
    /// Timestamp base of every trace event and frame window.
    epoch: Instant,
    histograms: [LogHistogram; Stage::COUNT],
    counters: [AtomicU64; Counter::COUNT],
    /// Current-frame per-stage accumulation (ns), swapped out at every
    /// [`Telemetry::frame_end`].
    frame_ns: [AtomicU64; Stage::COUNT],
    /// Current frame index / timestamp-bits / start offset (full mode).
    frame_index: AtomicU64,
    frame_timestamp_bits: AtomicU64,
    frame_start_ns: AtomicU64,
    recorder: Mutex<FlightRecorder>,
    trace: trace::TraceBuffer,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("config", &self.config)
            .field("frames", &self.counter(Counter::FramesProcessed))
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Builds the sink for `config`, or `None` when the mode is
    /// [`TelemetryMode::Off`] — the absence of a sink **is** the off
    /// implementation, so disabled telemetry costs instrumented code
    /// exactly one `Option` branch.
    pub fn new(config: TelemetryConfig) -> Option<Arc<Telemetry>> {
        if config.mode == TelemetryMode::Off {
            return None;
        }
        Some(Arc::new(Telemetry {
            epoch: Instant::now(),
            histograms: std::array::from_fn(|_| LogHistogram::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            frame_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            frame_index: AtomicU64::new(0),
            frame_timestamp_bits: AtomicU64::new(0),
            frame_start_ns: AtomicU64::new(0),
            recorder: Mutex::new(FlightRecorder::new(config.flight_frames)),
            trace: trace::TraceBuffer::new(config.trace_events),
            config,
        }))
    }

    /// The active configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The active mode (never [`TelemetryMode::Off`] — off means no
    /// sink exists).
    pub fn mode(&self) -> TelemetryMode {
        self.config.mode
    }

    /// Whether spans time their section (full mode). Instrumented code
    /// uses this to skip `Instant::now()` entirely in counters mode.
    #[inline]
    pub fn timing(&self) -> bool {
        self.config.mode == TelemetryMode::Full
    }

    /// Opens a timing span for `stage`; the section is recorded when
    /// the guard drops. In counters mode the guard is inert (no clock
    /// is read).
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        if self.timing() {
            Span {
                inner: Some((self, stage, Instant::now())),
            }
        } else {
            Span { inner: None }
        }
    }

    /// [`Telemetry::span`] over an optional sink — the one-liner for
    /// call sites holding `Option<&Telemetry>` / `Option<Arc<..>>`.
    #[inline]
    pub fn span_opt(telemetry: Option<&Telemetry>, stage: Stage) -> Span<'_> {
        match telemetry {
            Some(t) => t.span(stage),
            None => Span { inner: None },
        }
    }

    /// Records a section that started at `start` and ends now (for
    /// measurements whose start lives across a queue hop, e.g. pool
    /// queue wait). No-op in counters mode.
    #[inline]
    pub fn record_since(&self, stage: Stage, start: Instant) {
        if self.timing() {
            self.record_span(stage, start, start.elapsed());
        }
    }

    /// Records an externally measured duration for `stage` into the
    /// histogram and the current frame's attribution (no trace event).
    /// No-op in counters mode.
    #[inline]
    pub fn record_duration_ns(&self, stage: Stage, ns: u64) {
        if self.timing() {
            self.histograms[stage.index()].record(ns);
            self.frame_ns[stage.index()].fetch_add(ns, Ordering::Relaxed);
        }
    }

    fn record_span(&self, stage: Stage, start: Instant, dur: std::time::Duration) {
        let ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        self.histograms[stage.index()].record(ns);
        self.frame_ns[stage.index()].fetch_add(ns, Ordering::Relaxed);
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.trace
            .push(trace::EventKind::Stage(stage), start_ns, ns);
    }

    /// Increments `counter` by `n` (counters and full mode).
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if n > 0 {
            self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// The histogram backing `stage` (for exporters and tests).
    pub fn histogram(&self, stage: Stage) -> &LogHistogram {
        &self.histograms[stage.index()]
    }

    /// Marks the start of frame `index`'s processing window. Stage
    /// recordings between the previous [`Telemetry::frame_end`] and
    /// this frame's end — including pre-frame waits and background
    /// work completing inside the window — attribute to this frame's
    /// timeline.
    pub fn frame_start(&self, index: usize, timestamp: f64) {
        if !self.timing() {
            return;
        }
        self.frame_index.store(index as u64, Ordering::Relaxed);
        self.frame_timestamp_bits
            .store(timestamp.to_bits(), Ordering::Relaxed);
        self.frame_start_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Marks the end of the current frame: counts it, records the
    /// tracking time, snapshots the per-stage attribution into the
    /// flight-recorder ring, and applies the frame-budget check.
    /// `track_ms` is the frame's measured `Slam::process` wall time.
    pub fn frame_end(&self, track_ms: f64) {
        self.count(Counter::FramesProcessed, 1);
        let over_budget =
            self.config.frame_budget_ms > 0.0 && track_ms > self.config.frame_budget_ms;
        if over_budget {
            self.count(Counter::FramesOverBudget, 1);
        }
        if !self.timing() {
            return;
        }
        let track_ns = (track_ms * 1e6).max(0.0) as u64;
        self.histograms[Stage::Track.index()].record(track_ns);
        let index = self.frame_index.load(Ordering::Relaxed);
        let timestamp = f64::from_bits(self.frame_timestamp_bits.load(Ordering::Relaxed));
        let start_ns = self.frame_start_ns.load(Ordering::Relaxed);
        self.trace
            .push(trace::EventKind::Frame(index), start_ns, track_ns);
        let mut stage_ns = [0u64; Stage::COUNT];
        for (slot, out) in self.frame_ns.iter().zip(stage_ns.iter_mut()) {
            *out = slot.swap(0, Ordering::Relaxed);
        }
        stage_ns[Stage::Track.index()] = track_ns;
        let timeline = FrameTimeline {
            index,
            timestamp,
            total_ms: track_ms,
            over_budget,
            stage_ns,
        };
        if over_budget {
            events::warn(format!(
                "frame budget blown ({:.2} ms > {:.2} ms): {}",
                track_ms,
                self.config.frame_budget_ms,
                timeline.describe()
            ));
        }
        let mut recorder = self.recorder.lock().expect("flight recorder poisoned");
        recorder.push(timeline);
    }

    /// The flight recorder's retained frame timelines, oldest first
    /// (empty outside full mode).
    pub fn timelines(&self) -> Vec<FrameTimeline> {
        self.recorder
            .lock()
            .expect("flight recorder poisoned")
            .timelines()
    }

    /// The most recent over-budget frame's timeline, pinned even after
    /// the ring has rotated past it.
    pub fn last_over_budget(&self) -> Option<FrameTimeline> {
        self.recorder
            .lock()
            .expect("flight recorder poisoned")
            .last_over_budget()
    }

    /// Human-readable dump of the flight recorder (on-demand side of
    /// the automatic over-budget warning).
    pub fn flight_dump(&self) -> String {
        self.recorder
            .lock()
            .expect("flight recorder poisoned")
            .dump()
    }

    /// Aggregated percentiles + counters (the `RunResult` summary).
    pub fn summary(&self) -> TelemetrySummary {
        export::summarize(self)
    }

    /// Prometheus text exposition of every histogram and counter.
    pub fn prometheus(&self) -> String {
        export::prometheus(self)
    }

    /// The buffered spans as a Chrome `trace_event` JSON document
    /// (open in Perfetto / `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        self.trace
            .chrome_json(self.counter(Counter::FramesProcessed))
    }

    /// Trace events dropped because the buffer hit
    /// [`TelemetryConfig::trace_events`].
    pub fn trace_events_dropped(&self) -> u64 {
        self.trace.dropped()
    }
}

/// RAII timing guard over one pipeline stage: created by
/// [`Telemetry::span`] / [`Telemetry::span_opt`], records on drop.
/// Inert (`None` inside) when telemetry is off or counters-only, so
/// the disabled cost is one branch on drop.
#[derive(Debug)]
#[must_use = "a span records the section it is alive for; dropping it immediately measures nothing"]
pub struct Span<'t> {
    inner: Option<(&'t Telemetry, Stage, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((telemetry, stage, start)) = self.inner.take() {
            telemetry.record_span(stage, start, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> Arc<Telemetry> {
        Telemetry::new(TelemetryConfig::default().with_mode(TelemetryMode::Full)).unwrap()
    }

    #[test]
    fn off_mode_builds_no_sink() {
        assert!(Telemetry::new(TelemetryConfig::default().with_mode(TelemetryMode::Off)).is_none());
        assert!(Telemetry::new(TelemetryConfig::default()).is_some());
    }

    #[test]
    fn mode_parse_round_trips_and_rejects_typos() {
        for mode in [
            TelemetryMode::Off,
            TelemetryMode::Counters,
            TelemetryMode::Full,
        ] {
            assert_eq!(TelemetryMode::parse(mode.name()), Some(mode));
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(TelemetryMode::parse("fulll"), None);
        assert_eq!(TelemetryMode::parse(""), None);
        assert_eq!(TelemetryMode::default(), TelemetryMode::Counters);
    }

    #[test]
    fn stage_and_counter_enumerations_are_dense_and_named() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(!stage.name().is_empty());
        }
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), i);
            assert!(!counter.name().is_empty());
        }
        // Names are unique (exporter series would collide otherwise).
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn counters_mode_spans_read_no_clock_but_counters_count() {
        let t = Telemetry::new(TelemetryConfig::default()).unwrap();
        assert!(!t.timing());
        {
            let span = t.span(Stage::Matching);
            assert!(span.inner.is_none());
        }
        assert_eq!(t.histogram(Stage::Matching).count(), 0);
        t.count(Counter::KeyframesPromoted, 3);
        assert_eq!(t.counter(Counter::KeyframesPromoted), 3);
        // frame_start/frame_end stay cheap and still count frames.
        t.frame_start(0, 0.0);
        t.frame_end(5.0);
        assert_eq!(t.counter(Counter::FramesProcessed), 1);
        assert!(t.timelines().is_empty());
    }

    #[test]
    fn full_mode_spans_record_into_histograms_and_trace() {
        let t = full();
        {
            let _span = t.span(Stage::Extraction);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        assert_eq!(t.histogram(Stage::Extraction).count(), 1);
        assert!(t.histogram(Stage::Extraction).max_ns() >= 100_000);
        let trace = t.chrome_trace();
        assert!(trace.contains("\"extraction\""), "{trace}");
    }

    #[test]
    fn span_opt_none_is_inert() {
        let span = Telemetry::span_opt(None, Stage::Matching);
        assert!(span.inner.is_none());
        drop(span);
    }

    #[test]
    fn frame_windows_attribute_stages_and_rotate_the_ring() {
        let mut config = TelemetryConfig::default().with_mode(TelemetryMode::Full);
        config.flight_frames = 2;
        let t = Telemetry::new(config).unwrap();
        for frame in 0..3u64 {
            t.frame_start(frame as usize, frame as f64 / 30.0);
            t.record_duration_ns(Stage::Matching, 1_000_000 + frame * 1_000);
            t.frame_end(2.0);
        }
        let timelines = t.timelines();
        assert_eq!(timelines.len(), 2, "ring keeps the last N");
        assert_eq!(timelines[0].index, 1);
        assert_eq!(timelines[1].index, 2);
        assert_eq!(timelines[1].stage_ns[Stage::Matching.index()], 1_002_000);
        assert!(timelines[1].stage_ms(Stage::Track) > 0.0);
        assert_eq!(t.counter(Counter::FramesProcessed), 3);
    }

    #[test]
    fn frame_budget_flags_slow_frames() {
        let mut config = TelemetryConfig::default().with_mode(TelemetryMode::Full);
        config.frame_budget_ms = 10.0;
        let t = Telemetry::new(config).unwrap();
        t.frame_start(0, 0.0);
        t.frame_end(5.0); // within budget
        t.frame_start(1, 0.033);
        t.frame_end(25.0); // blown
        assert_eq!(t.counter(Counter::FramesOverBudget), 1);
        let pinned = t.last_over_budget().expect("over-budget frame pinned");
        assert_eq!(pinned.index, 1);
        assert!(pinned.over_budget);
        let dump = t.flight_dump();
        assert!(dump.contains("frame 1"), "{dump}");
    }

    #[test]
    fn pre_frame_waits_attribute_to_the_following_frame() {
        let t = full();
        // The wait for frame 0 is recorded before frame_start(0) —
        // exactly the runner's call order.
        t.record_duration_ns(Stage::FrameWait, 3_000_000);
        t.frame_start(0, 0.0);
        t.frame_end(1.0);
        let timelines = t.timelines();
        assert_eq!(timelines[0].stage_ns[Stage::FrameWait.index()], 3_000_000);
    }

    #[test]
    fn summary_exposes_percentiles_and_counters() {
        let t = full();
        for i in 0..100u64 {
            t.record_duration_ns(Stage::Matching, (i + 1) * 100_000);
        }
        t.count(Counter::MatchInliers, 42);
        let summary = t.summary();
        let matching = summary.stage(Stage::Matching).expect("recorded stage");
        assert_eq!(matching.count, 100);
        assert!(matching.p50_ms <= matching.p95_ms);
        assert!(matching.p95_ms <= matching.p99_ms);
        assert!(matching.p99_ms <= matching.max_ms + 1e-9);
        assert!(
            summary.stage(Stage::LoopVerify).is_none(),
            "empty stages omitted"
        );
        assert_eq!(summary.counter(Counter::MatchInliers), 42);
    }
}
