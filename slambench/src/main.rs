//! **slambench** — the closed-loop benchmark of the eSLAM system.
//!
//! ```text
//! cargo run --release --offline --manifest-path slambench/Cargo.toml -- \
//!     --workload paper_640x480 --seed 0 --seconds 10 --trace 0
//! ```
//!
//! One tracking caller feeds rendered RGB-D frames into the public API:
//! `Slam::process` for the mapping workloads, `Session::localize` for the
//! relocalization workload. The next frame goes in as soon as the
//! previous call returns (a closed loop with one client), so the
//! latencies are those of an uncontended system and `fps` is frames
//! divided by the time spent inside tracking calls — the quantity of the
//! paper's Table 3, with frame production excluded.
//!
//! # Frame production is never timed
//!
//! Ray-casting a 640×480 frame costs about as much as processing it
//! (tens of milliseconds each on a 2-vCPU host), so timing it would
//! halve the reported rate for reasons outside the system. Every clip
//! is rendered into memory first ([`frames::Clip`]), on both cores,
//! before the first timed call; its render times are reported apart as
//! `dataset.render.ms_p50` in the traced run.
//!
//! # Workloads
//!
//! Every workload pins the front-end worker pool to 2 threads and the
//! extractor to 2 row bands per level, runs the keyframe backend in
//! async mode with telemetry off, and refuses to start when any `ESLAM_*`
//! override is set (each would silently change the measured program).
//!
//! * `paper_640x480` — the paper's evaluation: fr1/xyz, fr2/xyz,
//!   fr1/desk, fr1/room and fr2/rpy at 640×480 with
//!   `SlamConfig::tum_default()` and each sequence's own intrinsics, the
//!   first 42 frames of each, mapped twice, each time on a fresh
//!   system. Feature extraction is
//!   most of every frame here, so front-end changes show in
//!   `frame_ms_p50` and `fps` while backend changes should not.
//!   Asserted: no loop closes, and extraction describes more candidates
//!   than it keeps.
//! * `loop_160x120` — `loop/circle` at 160×120 with the loop-closure
//!   tier's map-cull age of 12: eight clips, one per scene, each mapped
//!   in four independent 48-frame passes. Every frame becomes a keyframe
//!   and each pass closes its loop, so keyframe promotion, the local-BA
//!   join and loop verification weigh heavily: this is the workload
//!   backend changes move, and the only one whose `ate_cm` depends on
//!   loop closure. One pass is too short to be steady, hence many.
//!   Asserted: every pass closes a loop. `BENCHMARK.json` leaves this
//!   workload out: on a 2-vCPU VM whose host is shared, ten runs of the
//!   same code spread by 16-27 % of the median in `frame_ms_p50` and up
//!   to 38 % in `frame_ms_p95` (middle half of the runs), past the 25 %
//!   bound. It stays runnable for backend work, and the traced run of
//!   `reloc_160x120` measures the same backend rows.
//! * `reloc_160x120` — set-up maps `loop/circle` and saves the atlas;
//!   the timed part loads it (`setup_s`) and cold-starts a `Session` on
//!   every query (`reset()` before each `localize`). The queries are the
//!   interior frames of the same loop rendered at 37 frames, so they lie
//!   between the mapping poses: replaying mapping frames would make
//!   matching trivially exact. This reads a published map instead of
//!   writing one — atlas decoding, BoW retrieval, cross-checked
//!   matching, P3P and the map refine, with no keyframes, BA or map
//!   writes. Eight atlases per run, their queries run four times each.
//!   Asserted: every query goes through the cold start, and no query
//!   repeats a mapping frame.
//!
//! Every workload also asserts that every attempted frame is reported,
//! and that replaying a clip into a fresh system tracks a bit-identical
//! trajectory. A failed check prints `"correct": false` and exits with
//! status 1.
//!
//! # Seeds
//!
//! `--seed` picks the inputs; the system receives only the rendered
//! frames. Inputs come from pools in which every entry was run and
//! checked, so that no seed meets a failing operation: the paper
//! sequences render with one of eight sensor-noise seeds
//! ([`mapping::PAPER_NOISES`]), and the loop workloads take a
//! seed-rotated window of `(scene seed, noise seed)` pairs of
//! `loop/circle` ([`mapping::loop_pool`], [`reloc::reloc_clips`]). The
//! default `--seed 0` starts from the specifications' own seeds.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! `frame_ms_p50` and `frame_ms_p95` are nearest-rank percentiles of the
//! steady-state tracking calls (the bootstrap frame of each mapping pass
//! is set-up), and every run leaves at least ten samples beyond the
//! p95. `fps` is timed frames over the sum of their latencies.
//!
//! On a host whose cores and last-level cache are shared with other
//! tenants, the same frame runs 20-30 % slower from one second to the
//! next, and a burst of outside load slows a run of consecutive frames
//! into the p95. So every frame (or query) is timed several times and
//! its sample is the fastest of its calls ([`stats::keep_fastest`]):
//! each paper sequence is mapped twice in a row, each loop clip four
//! times in a row, and the queries of every atlas run four times,
//! round-robin over the run's atlases. The replays do the same work —
//! their outputs are checked bit-identical — so the fastest is the
//! frame's cost with the least outside interference. What remains is
//! the host's slower drift, minutes long, which no run can average out.
//!
//! `ate_cm`
//! is the RMSE ATE of each finished trajectory against the re-based
//! ground truth, averaged over clips (mapping), or the RMSE of the
//! localized camera positions against ground truth in the atlas frame
//! (relocalization). `ok_frac` is the share of attempted frames that
//! tracked or localized. `setup_s` is the median set-up:
//! `Slam::builder()…build()` plus the bootstrap frame, or `Atlas::load`
//! plus `Session::new`.
//!
//! `--seconds` sizes the work rather than timing it, in units of 10 s:
//! one unit is 205 paper frames, 8 loop clips or 8 atlases of 35
//! queries, which with their replays take 15–30 s of tracking calls on
//! a 2-vCPU host. A run of fixed work keeps the frame mix, and so the
//! percentiles, the same from run to run.
//!
//! # The traced run (`--trace 1`)
//!
//! The traced run maps every clip once untraced and then once traced
//! (the relocalization workload runs each atlas's queries untraced and
//! then traced); it times each untraced call once. Before each call of the traced pass the benchmark calls
//! each layer's public entry point itself, on the inputs the call is
//! about to see, and times it ([`trace`]): `OrbExtractor::extract_with`
//! (and, every fourth frame, the same on a 1-thread pool, for the
//! realized 2-thread scaling), `match_brute_force_in` against the map's
//! descriptor column as it stands before the frame, `solve_pnp_ransac`
//! on those matches and `optimize_pose_with_prior` on the inliers; for
//! queries, `Relocalizer::relocalize` on the session's snapshot and the
//! map refine. The untraced mapping passes supply the per-frame deltas
//! of `Slam::backend_stats()` for the keyframe and backend rows — on
//! `reloc_160x120` the set-up passes that build the atlases, which
//! promote keyframes, run local BA and close each loop — and each atlas
//! is also decoded and indexed separately (`persist::load_atlas`,
//! `AtlasState::from_contents`).
//! `core.self` is the untraced call's time minus the layer calls traced
//! for the same frame — keyframe promotion, map update and cull, and the
//! backend hand-off and join — and `core.self.share` is that remainder's
//! share of all tracking time. `bench.trace_overhead_pct` compares the
//! traced passes' p50 with the untraced passes' of the same run: layer
//! calls between tracking calls warm the caches and give async solves
//! time to finish, so it is usually negative.
//!
//! Layer shares of the untraced tracking time, from one traced run per
//! workload on a 2-vCPU KVM Xeon at 2.0 GHz (the matcher on its AVX-512
//! rung); "self" is keyframe promotion, map update and cull, and the
//! backend hand-off and join. On a VM that shares its cores, a share
//! moves by a few points from run to run.
//!
//! | workload        | extract | match |   PnP |   LM | relocalize |  self |
//! |-----------------|--------:|------:|------:|-----:|-----------:|------:|
//! | `paper_640x480` |   95.0% |  1.3% |  2.5% | 0.3% |          — |  0.9% |
//! | `loop_160x120`  |   42.5% |  6.3% |  7.1% | 1.1% |          — | 43.1% |
//! | `reloc_160x120` |   37.0% |  6.7% | 27.8% | 0.5% |      23.8% |  4.2% |
//!
//! So front-end work moves `paper_640x480`, backend work (a 3.9 ms join
//! wait per frame, behind ~3.4 ms local-BA solves) moves `loop_160x120`,
//! and the relocalization pipeline — including a map-refine PnP that runs
//! ~200 RANSAC iterations at a 20% inlier ratio — moves `reloc_160x120`.
//! Rendering one 640×480 frame took ~60 ms against a ~90 ms p50 tracking
//! call, which is why frames are rendered before any timed region.

mod frames;
mod mapping;
mod metrics;
mod reloc;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use eslam_core::telemetry::TelemetryMode;
use eslam_core::{BackendMode, Overrides, Slam, SlamConfig};
use eslam_features::matcher::active_kernel;
use eslam_features::BandMode;
use eslam_hw::extractor::BandSchedule;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::{mean, median, percentile, tail_ok};
use trace::Tracer;

/// Front-end worker-pool threads every workload pins.
pub const POOL_THREADS: usize = 2;
/// Row bands per pyramid level every workload pins.
pub const BANDS: usize = 2;

/// Which function runs a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Paper,
    Loop,
    Reloc,
}

/// A workload of the benchmark.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Image size the workload tracks at.
    width: u32,
    height: u32,
    kind: Kind,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_640x480",
        width: 640,
        height: 480,
        kind: Kind::Paper,
    },
    Workload {
        name: "loop_160x120",
        width: 160,
        height: 120,
        kind: Kind::Loop,
    },
    Workload {
        name: "reloc_160x120",
        width: 160,
        height: 120,
        kind: Kind::Reloc,
    },
];

/// `config` with the benchmark's pins applied.
pub fn pinned(mut config: SlamConfig) -> SlamConfig {
    config.worker_threads = Some(POOL_THREADS);
    config.orb.bands = BandMode::Fixed(BANDS);
    config.backend.mode = BackendMode::Async;
    config.telemetry = config.telemetry.with_mode(TelemetryMode::Off);
    config
}

/// Everything one run measured, plus its failed checks.
#[derive(Debug, Default)]
pub struct Run {
    /// Untraced steady-state tracking-call latencies, ms.
    pub frame_ms: Vec<f64>,
    /// Latencies of the traced passes, ms.
    pub traced_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub ate_cm: Vec<f64>,
    pub render_ms: Vec<f64>,
    pub attempted: u64,
    /// Frames that did not track (or queries that did not localize).
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Run {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = frames::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {names:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs workload `w`; `scale` multiplies the work of a 10 s run.
fn run_workload(
    w: &Workload,
    seed: u64,
    scale: usize,
    tracer: Option<&mut Tracer>,
) -> Result<Run, String> {
    let mut run = Run::default();
    match w.kind {
        Kind::Paper => mapping::paper(&mut run, seed, scale, tracer),
        Kind::Loop => mapping::loops(&mut run, seed, mapping::LOOP_CLIPS * scale, tracer),
        Kind::Reloc => {
            let work_dir = PathBuf::from(".slambench-work").join(std::process::id().to_string());
            std::fs::create_dir_all(&work_dir)
                .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
            reloc::reloc(&mut run, seed, reloc::RELOC_MAPS * scale, tracer, &work_dir);
            let _ = std::fs::remove_dir(&work_dir);
            let _ = std::fs::remove_dir(".slambench-work");
        }
    }
    Ok(run)
}

/// Fills the end-to-end metrics from the untraced samples; returns their
/// sample counts.
fn end_to_end(run: &mut Run, m: &mut Metrics) -> BTreeMap<&'static str, usize> {
    let n = run.frame_ms.len();
    run.check(tail_ok(n, 95.0), || {
        format!("{n} samples leave fewer than ten beyond the p95")
    });
    let or_nan = |v: Option<f64>| v.unwrap_or(f64::NAN);
    m.set("frame_ms_p50", or_nan(median(&run.frame_ms)));
    m.set("frame_ms_p95", or_nan(percentile(&run.frame_ms, 95.0)));
    m.set("fps", or_nan(stats::fps(&run.frame_ms)));
    m.set("ate_cm", or_nan(mean(&run.ate_cm)));
    let ok = run.attempted - run.failed;
    m.set("ok_frac", ok as f64 / run.attempted.max(1) as f64);
    m.set("setup_s", or_nan(median(&run.setup_s)));
    BTreeMap::from([
        ("frame_ms_p50", n),
        ("frame_ms_p95", n),
        ("fps", n),
        ("ate_cm", run.ate_cm.len()),
        ("ok_frac", run.attempted as usize),
        ("setup_s", run.setup_s.len()),
    ])
}

/// Fills the per-layer metrics of a traced run; returns their sample
/// counts.
fn per_layer(run: &Run, tracer: &Tracer, m: &mut Metrics) -> BTreeMap<&'static str, usize> {
    let mut samples = tracer.fill(m);
    m.set(
        "dataset.render.ms_p50",
        median(&run.render_ms).unwrap_or(f64::NAN),
    );
    samples.insert("dataset.render.ms_p50", run.render_ms.len());
    let untraced = median(&run.frame_ms).unwrap_or(f64::NAN);
    let traced = median(&run.traced_ms).unwrap_or(f64::NAN);
    m.set(
        "bench.trace_overhead_pct",
        (traced - untraced) / untraced * 100.0,
    );
    samples.insert("bench.trace_overhead_pct", run.traced_ms.len());
    samples
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("slambench: {e}");
            return ExitCode::from(2);
        }
    };
    let overrides = Overrides::from_env();
    if overrides != Overrides::default() {
        eprintln!(
            "slambench: refusing to run with ESLAM_* overrides set ({}); unset them",
            overrides.report()
        );
        return ExitCode::from(2);
    }

    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let base = match w.kind {
        Kind::Paper => pinned(SlamConfig::tum_default()),
        Kind::Loop | Kind::Reloc => mapping::loop_config(),
    };
    let worker_threads = Slam::builder().config(base).build().worker_threads();
    let config_line = format!(
        "config: nproc={nproc} worker_threads={worker_threads} bands={BANDS} \
         match_kernel={} backend=async telemetry=off",
        active_kernel().name()
    );
    println!(
        "slambench {} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{config_line}");

    let scale = (args.seconds / 10).max(1) as usize;
    let mut tracer = args.trace.then(|| Tracer::new(base));
    let mut run = match run_workload(w, args.seed, scale, tracer.as_mut()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("slambench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut m = Metrics::default();
    let samples = end_to_end(&mut run, &mut m);
    println!("end-to-end ({}):", w.name);
    print!("{}", m.render(END_TO_END, &samples));
    let table = match &tracer {
        Some(tracer) => {
            let samples = per_layer(&run, tracer, &mut m);
            println!("per-layer ({}, traced):", w.name);
            print!("{}", m.render(PER_LAYER, &samples));
            println!("  share of tracking time: {}", tracer.shares());
            let projected = BandSchedule::default()
                .parallelize(w.width, w.height, POOL_THREADS)
                .projected_speedup();
            println!(
                "  scaling_t2 {:.3}x realized vs {projected:.3}x projected by eslam_hw \
                 BandSchedule::parallelize({}, {}, {POOL_THREADS})",
                m.get("features.extract.scaling_t2").unwrap_or(f64::NAN),
                w.width,
                w.height
            );
            PER_LAYER
        }
        None => END_TO_END,
    };

    run.failures.extend(m.problems(table));
    let correct = run.failures.is_empty();
    for failure in &run.failures {
        println!("check failed: {failure}");
    }
    println!(
        "{config_line} attempted={} failed={} correct={correct}",
        run.attempted, run.failed
    );
    println!("{}", m.json_line(table, correct, run.attempted, run.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
