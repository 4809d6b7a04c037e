//! The `reloc_160x120` workload: cold-start localization against a
//! saved atlas.
//!
//! Set-up maps `loop/circle` at 160×120 and saves the atlas. The timed
//! part loads it (`setup_s`) and then cold-starts a [`Session`] on every
//! query: `reset()` before each `localize`, so every query goes through
//! BoW retrieval, cross-checked matching, P3P and the map refine, and
//! nothing is written to any map.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use eslam_core::persist::load_atlas;
use eslam_core::{Atlas, AtlasState, Session, Slam};
use eslam_dataset::{Frame, Trajectory};
use eslam_geometry::Se3;

use crate::frames::{rotated, Clip};
use crate::mapping::{loop_config, loop_pool, loop_spec, LOOP_FRAMES};
use crate::stats::{keep_fastest, rms};
use crate::trace::{BackendTally, Tracer};
use crate::Run;

/// Atlases mapped per 10 s of run time, from the clips [`reloc_clips`]
/// selects. Clips differ in drift and in how hard their queries are, so
/// a run takes eight of the pool's 19 for its latency tail and `ate_cm`
/// to depend little on which clips the seed draws; mapping them is a
/// third of a run's time.
pub const RELOC_MAPS: usize = 8;

/// Loop-pool clips left out of the relocalization pool: among their
/// queries one fails to localize or lands over a metre off (perceptual
/// aliasing). Such single events would swamp the RMSE of the other
/// queries and make `ate_cm` depend on which clips a seed draws.
const RELOC_EXCLUDED: [(u64, u64); 5] = [(606, 1), (2, 1), (1, 2), (4, 2), (7, 2)];

/// The `count` `(scene seed, noise index)` clips run seed `seed` maps: a
/// window of the loop pool, less [`RELOC_EXCLUDED`], rotated by the seed.
pub fn reloc_clips(seed: u64, count: usize) -> Vec<(u64, u64)> {
    let pool: Vec<_> = loop_pool()
        .into_iter()
        .filter(|clip| !RELOC_EXCLUDED.contains(clip))
        .collect();
    rotated(&pool, seed)
        .into_iter()
        .cycle()
        .take(count)
        .collect()
}

/// Frame count of the query loop. Its 36 intervals are coprime with the
/// mapping loop's 47, so its interior poses fall between mapping poses.
pub const QUERY_LOOP_FRAMES: usize = 37;

/// Timed atlas loads per atlas; the median of all loads is `setup_s`.
pub const LOADS_PER_ATLAS: usize = 3;

/// Untraced passes over the queries of every atlas, round-robin, so that
/// a query's calls lie a whole round apart. Each query's latency is the
/// fastest of its calls ([`keep_fastest`]), which filters the
/// interference of a host whose cores are shared.
pub const QUERY_REPLAYS: usize = 4;

/// A loaded atlas and its queries.
struct Target {
    scene: u64,
    noise: u64,
    session: Session,
    queries: Vec<Frame>,
    /// Query ground truth in the atlas frame.
    truth: Trajectory,
    /// The first replay's localized poses, which every replay must match.
    first: Option<Vec<Option<Se3>>>,
    fastest_ms: Vec<f64>,
}

/// Set-up of one atlas: maps the clip and saves the atlas (untimed),
/// renders the queries, then loads the atlas and opens a session
/// [`LOADS_PER_ATLAS`] times (timed: `setup_s`). `None` when the atlas
/// could not be saved or loaded, which fails the run.
fn set_up(
    run: &mut Run,
    (scene, noise): (u64, u64),
    mut tracer: Option<&mut Tracer>,
    work_dir: &Path,
) -> Option<Target> {
    let config = loop_config();
    let indices: Vec<usize> = (0..LOOP_FRAMES).collect();
    let mapping = Clip::render(&loop_spec(scene, noise, LOOP_FRAMES, 0), &indices);
    let atlas = Arc::new(Atlas::empty());
    let mut slam = Slam::builder()
        .config(config)
        .atlas(Arc::clone(&atlas))
        .build();
    // The backend's work while building the atlas — keyframes, local BA
    // and the loop closure — is the traced run's backend sample.
    let mut backend = BackendTally::default();
    let bootstrap = &mapping.frames[0];
    slam.process(bootstrap.timestamp, &bootstrap.gray, &bootstrap.depth);
    for f in &mapping.frames[1..] {
        let before = slam.backend_stats().copied();
        let report = slam.process(f.timestamp, &f.gray, &f.depth);
        backend.record_call(report.is_keyframe);
        if let (Some(before), Some(after)) = (before, slam.backend_stats()) {
            backend.record_frame(&before, after);
        }
    }
    slam.finish();
    backend.totals = slam.backend_stats().copied();
    if let Some(t) = tracer.as_deref_mut() {
        t.record_backend(&backend);
    }
    let path = work_dir.join(format!("scene-{scene}-noise-{noise}.atlas"));
    if let Err(e) = atlas.save(&path) {
        run.check(false, || {
            format!("scene {scene}: saving the atlas failed: {e}")
        });
        return None;
    }

    // Queries: the interior frames of the same loop at another frame
    // count, with their own noise stream.
    let interior: Vec<usize> = (1..QUERY_LOOP_FRAMES - 1).collect();
    let clip = Clip::render(&loop_spec(scene, noise, QUERY_LOOP_FRAMES, 1), &interior);
    run.render_ms.extend_from_slice(&clip.render_ms);
    // Ground truth in the atlas frame: the mapping run's first camera.
    let truth = clip.truth_from(&mapping.frames[0].ground_truth);
    let queries = clip.frames;
    let copies = queries
        .iter()
        .filter(|q| {
            mapping
                .frames
                .iter()
                .any(|m| m.ground_truth == q.ground_truth || m.gray == q.gray)
        })
        .count();
    run.check(copies == 0, || {
        format!("scene {scene}: {copies} queries repeat a mapping frame")
    });

    let mut session = None;
    for _ in 0..LOADS_PER_ATLAS {
        let start = Instant::now();
        match Atlas::load(&path) {
            Ok(atlas) => {
                session = Some(Session::new(Arc::new(atlas), config));
                run.setup_s.push(start.elapsed().as_secs_f64());
            }
            Err(e) => run.check(false, || {
                format!("scene {scene}: loading the atlas failed: {e}")
            }),
        }
        if let Some(t) = tracer.as_deref_mut() {
            let start = Instant::now();
            let contents = load_atlas(&path);
            let load_ms = start.elapsed().as_secs_f64() * 1e3;
            if let Ok(contents) = contents {
                let start = Instant::now();
                let state = AtlasState::from_contents(contents);
                t.record_atlas_load(load_ms, start.elapsed().as_secs_f64() * 1e3);
                drop(state);
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    Some(Target {
        scene,
        noise,
        session: session?,
        queries,
        truth,
        first: None,
        fastest_ms: Vec::new(),
    })
}

/// One pass over a target's queries, each on a cold session; traced
/// when a tracer is given. Returns the localized poses and each call's
/// latency.
fn query_pass(
    run: &mut Run,
    target: &mut Target,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Option<Se3>>, Vec<f64>) {
    let mut poses = Vec::with_capacity(target.queries.len());
    let mut latencies_ms = Vec::with_capacity(target.queries.len());
    for q in &target.queries {
        target.session.reset();
        if let Some(t) = tracer.as_deref_mut() {
            t.cold_query(&q.gray, &target.session.atlas().snapshot());
        }
        let start = Instant::now();
        let loc = target.session.localize(&q.gray);
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        run.attempted += 1;
        run.failed += u64::from(loc.is_none());
        if let Some(loc) = &loc {
            let scene = target.scene;
            run.check(loc.cold_start, || {
                format!("scene {scene}: a query skipped the cold start")
            });
        }
        poses.push(loc.map(|l| l.pose_w2c));
    }
    (poses, latencies_ms)
}

/// Localization errors of `poses` against the target's ground truth, m.
fn position_errors(target: &Target, poses: &[Option<Se3>]) -> Vec<f64> {
    let truth = target.truth.poses().iter();
    truth
        .zip(poses)
        .filter_map(|(truth, pose)| {
            let pose_w2c = pose.as_ref()?;
            Some((pose_w2c.inverse().translation - truth.pose.translation).norm())
        })
        .collect()
}

/// Runs the workload over `maps` atlases; `work_dir` receives the atlas
/// files. Untraced, the queries of all atlases run [`QUERY_REPLAYS`]
/// times round-robin and each keeps its fastest call; traced, once
/// untraced and then once traced. Every replay must localize
/// identically.
pub fn reloc(
    run: &mut Run,
    seed: u64,
    maps: usize,
    mut tracer: Option<&mut Tracer>,
    work_dir: &Path,
) {
    let mut targets: Vec<Target> = reloc_clips(seed, maps)
        .into_iter()
        .filter_map(|clip| set_up(run, clip, tracer.as_deref_mut(), work_dir))
        .collect();

    // (replay, target) in call order. Traced, each atlas's traced pass
    // directly follows its untraced one, on the same warm caches.
    let order: Vec<(usize, usize)> = if tracer.is_some() {
        (0..targets.len()).flat_map(|i| [(0, i), (1, i)]).collect()
    } else {
        (0..QUERY_REPLAYS)
            .flat_map(|replay| (0..targets.len()).map(move |i| (replay, i)))
            .collect()
    };
    let mut errors_m: Vec<f64> = Vec::new();
    for (replay, i) in order {
        let traced = tracer.is_some() && replay == 1;
        let target = &mut targets[i];
        let t = tracer.as_deref_mut().filter(|_| traced);
        let (poses, latencies_ms) = query_pass(run, target, t);
        match tracer.as_deref_mut().filter(|_| traced) {
            Some(t) => {
                t.pair_pass(&target.fastest_ms);
                run.traced_ms.extend_from_slice(&latencies_ms);
            }
            None => keep_fastest(&mut target.fastest_ms, &latencies_ms),
        }
        match &target.first {
            None => {
                let map_errors = position_errors(target, &poses);
                println!(
                    "  loop/circle scene {} noise {}: {}/{} queries localized, \
                     p50 {:.3} ms, error RMSE {:.3} cm, max {:.3} cm",
                    target.scene,
                    target.noise,
                    map_errors.len(),
                    target.queries.len(),
                    crate::stats::median(&latencies_ms).unwrap_or(f64::NAN),
                    rms(&map_errors).unwrap_or(f64::NAN) * 100.0,
                    map_errors.iter().fold(0.0f64, |a, &b| a.max(b)) * 100.0
                );
                errors_m.extend(map_errors);
                target.first = Some(poses);
            }
            Some(first) => {
                let scene = target.scene;
                run.check(&poses == first, || {
                    format!("scene {scene}: replay {replay} localized differently")
                });
            }
        }
    }
    for target in &targets {
        run.frame_ms.extend_from_slice(&target.fastest_ms);
    }
    match rms(&errors_m) {
        Some(rmse) => run.ate_cm.push(rmse * 100.0),
        None => run.check(false, || "no query localized".to_string()),
    }
}
