//! The mapping workloads: `paper_640x480` and `loop_160x120`.
//!
//! Both replay rendered clips into a fresh [`Slam`] per pass, one frame
//! per `Slam::process` call, the next call made as soon as the previous
//! one returns.

use std::time::Instant;

use eslam_core::{Slam, SlamConfig};
use eslam_dataset::eval::absolute_trajectory_error;
use eslam_dataset::sequence::SequenceSpec;
use eslam_dataset::Trajectory;
use eslam_geometry::Se3;

use crate::frames::{reseeded, rotated, Clip};
use crate::stats::keep_fastest;
use crate::trace::{BackendTally, Tracer};
use crate::{pinned, Run};

/// Frames per paper sequence: the first bootstraps the map (set-up),
/// the other 41 are timed, so five sequences give 205 samples and leave
/// ten beyond the p95.
pub const PAPER_FRAMES: usize = 42;

/// Length of the sequences the paper clips are cut from. The desk and
/// room profiles spread their whole path over the sequence length, so
/// the 42-frame clip covers under half of the room loop: it never
/// revisits its start, and a loop closure there is a false positive.
pub const PAPER_SEQUENCE_FRAMES: usize = 90;

/// Sensor-noise variants of the paper sequences: run seed `seed` renders
/// with noise index `seed % PAPER_NOISES` (index 0 is the spec's own
/// noise), every one verified to track without a false loop closure.
pub const PAPER_NOISES: u64 = 8;

/// Untraced passes over each paper sequence, in a row. Each frame's
/// latency is the fastest of its passes: on a host whose cores and
/// last-level cache are shared, bursts of outside load lasting a second
/// or two slow a run of consecutive frames, which otherwise land in the
/// p95.
pub const PAPER_REPLAYS: usize = 2;

/// Extra set-ups timed per paper sequence, beyond those that start its
/// passes: five sequences of different cost alone make a jumpy median.
const PAPER_EXTRA_SETUPS: usize = 1;

/// Frames of one `loop/circle` pass (the loop-closure tier's length).
pub const LOOP_FRAMES: usize = 48;

/// Scene seeds of the `loop/circle` pool, the spec's own first.
const LOOP_SCENES: [u64; 8] = [606, 1, 2, 3, 4, 5, 6, 7];

/// Noise indices of the pool ([`crate::frames::noise_seed`]); index 0
/// is the spec's own noise.
const LOOP_NOISES: u64 = 3;

/// Clips of the loop workload per 10 s of run time: eight consecutive
/// pool entries, so every scene once, and `ate_cm` and the latency tail
/// hardly depend on which clips a seed draws.
pub const LOOP_CLIPS: usize = 8;

/// Untraced passes over every loop clip, in a row. Each frame's latency
/// is the fastest of its passes: on a host whose cores and last-level
/// cache are shared, one pass of a 15 ms frame can run 20-30 % slower
/// than the next for reasons outside the program.
pub const LOOP_REPLAYS: usize = 4;

/// The `(scene seed, noise index)` pool of `loop/circle` clips, every
/// one verified to close its loop at 160×120 under [`loop_config`] (at
/// a 2 % miss rate over arbitrary noise seeds, 16 unverified passes
/// would fail one run in four). Ordered noise-major, so any eight
/// consecutive entries cover every scene.
pub fn loop_pool() -> Vec<(u64, u64)> {
    (0..LOOP_NOISES)
        .flat_map(|k| LOOP_SCENES.iter().map(move |&scene| (scene, k)))
        .collect()
}

/// The `count` pool entries run seed `seed` maps: a window of the pool
/// rotated by the seed. The default seed starts at the spec's clip.
pub fn loop_clips(seed: u64, count: usize) -> Vec<(u64, u64)> {
    rotated(&loop_pool(), seed)
        .into_iter()
        .cycle()
        .take(count)
        .collect()
}

/// Map-cull age of the loop workload: short enough that a 48-frame
/// circle forgets its start, so only place recognition can reconnect it.
pub const LOOP_CULL_AGE: usize = 12;

/// One pass of a clip through a fresh system.
#[derive(Debug)]
pub struct Pass {
    /// `Slam::builder()…build()` plus the bootstrap frame, s.
    pub setup_s: f64,
    /// Wall time of each timed `process` call, ms.
    pub frame_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Finished trajectory (after `Slam::finish`).
    pub trajectory: Trajectory,
    /// As-tracked trajectory.
    pub raw: Trajectory,
    pub ate_cm: Option<f64>,
    pub backend: BackendTally,
    /// Frames whose extraction computed no more descriptors than it kept.
    pub undescribed_frames: usize,
    /// Frames whose traced extraction disagreed with the tracking call's.
    pub trace_mismatches: usize,
}

impl Pass {
    /// Loop closures applied over the pass, `Slam::finish` included.
    pub fn loops_closed(&self) -> usize {
        self.backend.totals.map_or(0, |b| b.loops_closed)
    }
}

/// The constant-velocity prior `Slam::process` is about to use,
/// rebuilt from the public trajectory: the last pose advanced by the
/// last inter-frame motion.
fn motion_prior(slam: &Slam) -> Se3 {
    let poses = slam.trajectory().poses();
    match poses {
        [.., prev, last] => {
            let last_w2c = last.pose.inverse();
            let velocity = last_w2c.compose(&prev.pose);
            velocity.compose(&last_w2c)
        }
        [last] => last.pose.inverse(),
        [] => Se3::identity(),
    }
}

/// Set-up: builds a system and hands it the clip's first frame, which
/// bootstraps the map. Returns the system, whether that frame tracked,
/// and the time taken, s.
fn set_up(config: SlamConfig, clip: &Clip) -> (Slam, bool, f64) {
    let start = Instant::now();
    let mut slam = Slam::builder().config(config).build();
    let first = &clip.frames[0];
    let bootstrap = slam.process(first.timestamp, &first.gray, &first.depth);
    (slam, bootstrap.tracking_ok, start.elapsed().as_secs_f64())
}

/// Replays the first `frames` frames of `clip` into a fresh system.
pub fn run_pass(
    config: SlamConfig,
    clip: &Clip,
    frames: usize,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let clip_frames = &clip.frames[..frames];
    let (mut slam, bootstrap_ok, setup_s) = set_up(config, clip);

    let mut pass = Pass {
        setup_s,
        frame_ms: Vec::with_capacity(frames),
        attempted: 1,
        failed: u64::from(!bootstrap_ok),
        trajectory: Trajectory::new(),
        raw: Trajectory::new(),
        ate_cm: None,
        backend: BackendTally::default(),
        undescribed_frames: 0,
        trace_mismatches: 0,
    };
    for frame in &clip_frames[1..] {
        let traced = tracer
            .as_deref_mut()
            .map(|t| t.mapping_frame(&frame.gray, slam.map(), &motion_prior(&slam)));
        let before = slam.backend_stats().copied();
        let start = Instant::now();
        let report = slam.process(frame.timestamp, &frame.gray, &frame.depth);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        pass.frame_ms.push(ms);
        pass.attempted += 1;
        pass.failed += u64::from(!report.tracking_ok);
        pass.backend.record_call(report.is_keyframe);
        let x = report.extraction;
        pass.undescribed_frames += usize::from(x.descriptors_computed <= x.kept);
        if let Some(traced) = traced {
            pass.trace_mismatches += usize::from(traced != report.extraction);
        }
        if let (Some(before), Some(after)) = (before, slam.backend_stats()) {
            pass.backend.record_frame(&before, after);
        }
    }
    slam.finish();
    pass.backend.totals = slam.backend_stats().copied();
    pass.trajectory = slam.trajectory().clone();
    pass.raw = slam.raw_trajectory().clone();
    pass.ate_cm =
        absolute_trajectory_error(&pass.trajectory, &clip.truth()).map(|a| a.stats.rmse * 100.0);
    pass
}

/// One line per clip: its latency, accuracy and loop count.
fn print_pass(label: &str, pass: &Pass) {
    println!(
        "  {label}: {} timed frames, p50 {:.3} ms, ATE {:.3} cm, {} loops closed",
        pass.frame_ms.len(),
        crate::stats::median(&pass.frame_ms).unwrap_or(f64::NAN),
        pass.ate_cm.unwrap_or(f64::NAN),
        pass.loops_closed()
    );
}

/// Where a pass's latencies go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    /// The end-to-end samples (and its set-up time).
    Untraced,
    /// Only its set-up time: the caller folds the latencies of a clip's
    /// passes into one sample per frame ([`keep_fastest`]).
    Setup,
    /// The traced samples, for the tracing overhead.
    Traced,
}

/// Adds a pass's samples and counts to the run.
fn absorb(run: &mut Run, pass: &Pass, column: Column) {
    match column {
        Column::Untraced => {
            run.frame_ms.extend_from_slice(&pass.frame_ms);
            run.setup_s.push(pass.setup_s);
        }
        Column::Setup => run.setup_s.push(pass.setup_s),
        Column::Traced => run.traced_ms.extend_from_slice(&pass.frame_ms),
    }
    run.attempted += pass.attempted;
    run.failed += pass.failed;
    run.check(pass.trajectory.len() as u64 == pass.attempted, || {
        format!(
            "{} of {} frames reported",
            pass.trajectory.len(),
            pass.attempted
        )
    });
    run.check(pass.trace_mismatches == 0, || {
        format!(
            "{} traced extractions differ from the tracking call's",
            pass.trace_mismatches
        )
    });
}

/// Records the first untraced pass over a clip: its line, its ATE and,
/// in `column`, its samples.
fn record_first(run: &mut Run, label: &str, pass: &Pass, column: Column) {
    print_pass(label, pass);
    absorb(run, pass, column);
    run.ate_cm.extend(pass.ate_cm);
    run.check(pass.ate_cm.is_some(), || {
        format!("{label}: ATE not computable")
    });
}

/// Checks that `replay` tracked and finished bit-identically to `first`.
fn check_replay(run: &mut Run, label: &str, first: &Pass, replay: &Pass) {
    run.check(replay.raw == first.raw, || {
        format!("{label}: replay tracked a different trajectory")
    });
    run.check(replay.trajectory == first.trajectory, || {
        format!("{label}: replay finished a different trajectory")
    });
}

/// Maps `clip` `replays` times in a row, each pass on a fresh system;
/// every replay must track bit-identically to the first, and each
/// frame's sample is its fastest pass ([`keep_fastest`]). Returns the
/// first pass.
fn map_fastest(
    run: &mut Run,
    label: &str,
    config: SlamConfig,
    clip: &Clip,
    replays: usize,
) -> Pass {
    let frames = clip.frames.len();
    let first = run_pass(config, clip, frames, None);
    record_first(run, label, &first, Column::Setup);
    let mut fastest = first.frame_ms.clone();
    for _ in 1..replays {
        let replay = run_pass(config, clip, frames, None);
        absorb(run, &replay, Column::Setup);
        check_replay(run, label, &first, &replay);
        keep_fastest(&mut fastest, &replay.frame_ms);
    }
    run.frame_ms.extend(fastest);
    first
}

/// Maps `clip` once untraced, then replays it traced into another fresh
/// system; the replay must track bit-identically. Returns the untraced
/// pass.
fn map_traced(
    run: &mut Run,
    label: &str,
    config: SlamConfig,
    clip: &Clip,
    tracer: &mut Tracer,
) -> Pass {
    let frames = clip.frames.len();
    let pass = run_pass(config, clip, frames, None);
    record_first(run, label, &pass, Column::Untraced);
    let replay = run_pass(config, clip, frames, Some(&mut *tracer));
    tracer.pair_pass(&pass.frame_ms);
    tracer.record_backend(&pass.backend);
    absorb(run, &replay, Column::Traced);
    check_replay(run, label, &pass, &replay);
    pass
}

/// `paper_640x480`: the five paper sequences at VGA, each on a fresh
/// system with its own camera. Untraced, each is mapped
/// [`PAPER_REPLAYS`] times and each frame keeps its fastest pass;
/// traced, once untraced and once traced.
pub fn paper(run: &mut Run, seed: u64, rounds: usize, mut tracer: Option<&mut Tracer>) {
    let specs = SequenceSpec::paper_sequences(PAPER_SEQUENCE_FRAMES, 1.0);
    let indices: Vec<usize> = (0..PAPER_FRAMES).collect();
    for round in 0..rounds {
        for spec in &specs {
            let noise = (seed + round as u64) % PAPER_NOISES;
            let spec = reseeded(spec, spec.seed, noise, 0);
            let clip = Clip::render(&spec, &indices);
            run.render_ms.extend_from_slice(&clip.render_ms);
            let mut config = pinned(SlamConfig::tum_default());
            config.camera = spec.camera;
            for _ in 0..PAPER_EXTRA_SETUPS {
                let (_, ok, setup_s) = set_up(config, &clip);
                run.setup_s.push(setup_s);
                run.attempted += 1;
                run.failed += u64::from(!ok);
            }
            let pass = match tracer.as_deref_mut() {
                Some(t) => {
                    t.reconfigure(config);
                    map_traced(run, &spec.name, config, &clip, t)
                }
                None => map_fastest(run, &spec.name, config, &clip, PAPER_REPLAYS),
            };
            run.check(pass.loops_closed() == 0, || {
                format!(
                    "{}: {} loop closures on a loop-free sequence",
                    spec.name,
                    pass.loops_closed()
                )
            });
            run.check(pass.undescribed_frames == 0, || {
                format!(
                    "{}: {} frames described no more candidates than they kept",
                    spec.name, pass.undescribed_frames
                )
            });
        }
    }
}

/// The loop workload's system configuration at 160×120.
pub fn loop_config() -> SlamConfig {
    let mut config = pinned(SlamConfig::scaled_for_tests(4.0));
    config.map_cull_age = LOOP_CULL_AGE;
    config
}

/// `loop/circle` at 160×120 and `frames` frames over scene `scene`, with
/// noise index `noise` on stream `stream`.
pub fn loop_spec(scene: u64, noise: u64, frames: usize, stream: u64) -> SequenceSpec {
    reseeded(
        &SequenceSpec::loop_sequences(frames, 0.25)[0],
        scene,
        noise,
        stream,
    )
}

/// `loop_160x120`: 48-frame passes over the `clips` pool clips that
/// `seed` selects, each pass on a fresh system. Untraced, every clip is
/// mapped [`LOOP_REPLAYS`] times and each frame keeps its fastest pass;
/// traced, once untraced and once traced.
pub fn loops(run: &mut Run, seed: u64, clips: usize, mut tracer: Option<&mut Tracer>) {
    let config = loop_config();
    let indices: Vec<usize> = (0..LOOP_FRAMES).collect();
    for (scene, noise) in loop_clips(seed, clips) {
        let clip = Clip::render(&loop_spec(scene, noise, LOOP_FRAMES, 0), &indices);
        run.render_ms.extend_from_slice(&clip.render_ms);
        let label = format!("loop/circle scene {scene} noise {noise}");
        let pass = match tracer.as_deref_mut() {
            Some(t) => map_traced(run, &label, config, &clip, t),
            None => map_fastest(run, &label, config, &clip, LOOP_REPLAYS),
        };
        run.check(pass.loops_closed() >= 1, || {
            format!("{label}: pass closed no loop")
        });
    }
}
