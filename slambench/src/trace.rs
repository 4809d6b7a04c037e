//! The traced run's layer calls.
//!
//! Before each tracking call, the benchmark calls every layer's public
//! entry point itself, on the inputs the tracking call is about to see,
//! and times each call from here. No span runs inside the program, so
//! the untraced numbers are the program's own; the per-layer numbers are
//! re-executions that shadow the tracking call they precede.

use std::collections::BTreeMap;
use std::time::Instant;

use eslam_backend::{BackendStats, RelocalizationConfig};
use eslam_core::{AtlasState, Map, SlamConfig};
use eslam_features::matcher::match_brute_force_in;
use eslam_features::orb::{ExtractionStats, OrbExtractor, OrbFeatures, OrbScratch};
use eslam_geometry::lm::optimize_pose_with_prior;
use eslam_geometry::pnp::solve_pnp_ransac;
use eslam_geometry::{Se3, Vec2, Vec3};
use eslam_image::GrayImage;

use crate::metrics::Metrics;
use crate::stats::{self, median, percentile};

/// Every this many traced frames, extraction also runs on a 1-thread
/// pool, for the realized-scaling ratio.
const SCALING_STRIDE: usize = 4;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The backend's work during one pass, read from per-frame deltas of
/// `Slam::backend_stats()` around each tracking call.
#[derive(Debug, Clone, Default)]
pub struct BackendTally {
    /// Tracking calls of the pass, and those promoted to keyframes.
    pub frames: u64,
    pub keyframes: u64,
    /// Solve time of each local-BA result applied, ms.
    pub solve_ms: Vec<f64>,
    pub solves: u64,
    pub iters: u64,
    pub join_wait_ms: f64,
    /// The stats after `Slam::finish`: the loop closer's pass totals.
    pub totals: Option<BackendStats>,
}

impl BackendTally {
    /// Counts one tracking call of the pass.
    pub fn record_call(&mut self, is_keyframe: bool) {
        self.frames += 1;
        self.keyframes += u64::from(is_keyframe);
    }

    /// Adds the work between two snapshots taken around one call.
    pub fn record_frame(&mut self, before: &BackendStats, after: &BackendStats) {
        let solves = (after.applied - before.applied) as u64;
        if solves > 0 {
            self.solve_ms
                .push((after.solve_ms - before.solve_ms) / solves as f64);
            self.solves += solves;
            self.iters += (after.iterations - before.iterations) as u64;
        }
        self.join_wait_ms += after.join_wait_ms - before.join_wait_ms;
    }
}

/// Calls the layers and accumulates their samples.
#[derive(Debug)]
pub struct Tracer {
    config: SlamConfig,
    extractor: OrbExtractor,
    /// Same pool size and band count as the system's own scratch.
    scratch: OrbScratch,
    /// One-thread pool, same band count.
    scratch_t1: OrbScratch,
    /// Layer time attributed to each frame of the current traced pass.
    pending_ms: Vec<f64>,
    s: Samples,
}

#[derive(Debug, Default)]
struct Samples {
    extract_ms: Vec<f64>,
    fast_hits: u64,
    candidates: u64,
    kept: u64,
    described: u64,
    working_bytes: usize,
    scaling_t1_ms: f64,
    scaling_t2_ms: f64,
    match_ms: Vec<f64>,
    pairs: u64,
    pnp_ms: Vec<f64>,
    pnp_solved: u64,
    ransac_iters: u64,
    pnp_inliers: u64,
    pnp_correspondences: u64,
    lm_ms: Vec<f64>,
    lm_iters: u64,
    self_ms: Vec<f64>,
    call_ms_total: f64,
    self_ms_total: f64,
    mapping_frames: u64,
    keyframes: u64,
    ba_solve_ms: Vec<f64>,
    ba_iters: u64,
    ba_solves: u64,
    join_wait_ms: f64,
    loop_candidates: u64,
    loops_closed: u64,
    loops_rejected: u64,
    loop_solve_ms: f64,
    pose_graph_iters: u64,
    passes: u64,
    relocalize_ms: Vec<f64>,
    relocalize_inliers: u64,
    relocalized: u64,
    load_ms: Vec<f64>,
    index_ms: Vec<f64>,
}

impl Tracer {
    /// A tracer mirroring the front-end of a system built from `config`.
    pub fn new(config: SlamConfig) -> Tracer {
        Tracer {
            config,
            extractor: OrbExtractor::new(config.orb),
            scratch: OrbScratch::with_threads(config.worker_threads),
            scratch_t1: OrbScratch::with_threads(Some(1)),
            pending_ms: Vec::new(),
            s: Samples::default(),
        }
    }

    /// Switches to the configuration of the next sequence (intrinsics
    /// differ between sequences; the scratch buffers are kept).
    pub fn reconfigure(&mut self, config: SlamConfig) {
        assert_eq!(
            config.orb, self.config.orb,
            "extractor config is fixed per run"
        );
        self.config = config;
    }

    /// Times extraction on `gray` (plus, every [`SCALING_STRIDE`] frames,
    /// the same extraction on one thread).
    fn extract(&mut self, gray: &GrayImage) -> (OrbFeatures, f64) {
        let start = Instant::now();
        let features = self.extractor.extract_with(gray, &mut self.scratch);
        let t2 = ms_since(start);
        if self.s.extract_ms.len().is_multiple_of(SCALING_STRIDE) {
            let start = Instant::now();
            let single = self.extractor.extract_with(gray, &mut self.scratch_t1);
            let t1 = ms_since(start);
            assert_eq!(
                single.stats, features.stats,
                "extraction depends on the pool size"
            );
            self.s.scaling_t1_ms += t1;
            self.s.scaling_t2_ms += t2;
        }
        let st = features.stats;
        self.s.extract_ms.push(t2);
        self.s.fast_hits += st.fast_detections as u64;
        self.s.candidates += st.candidates as u64;
        self.s.kept += st.kept as u64;
        self.s.described += st.descriptors_computed as u64;
        self.s.working_bytes = self
            .s
            .working_bytes
            .max(self.scratch.stream_working_bytes());
        (features, t2)
    }

    /// Matching, PnP and LM of `features` against `map`, as tracking runs
    /// them, with `prior_w2c` as the LM prior. Returns their total time,
    /// ms.
    fn track_layers(&mut self, features: &OrbFeatures, map: &Map, prior_w2c: &Se3) -> f64 {
        let cfg = self.config;
        let start = Instant::now();
        let matches = match_brute_force_in(
            self.scratch.pool(),
            &features.descriptors,
            map.descriptors(),
            cfg.matcher_max_distance,
        );
        let match_ms = ms_since(start);
        self.s.match_ms.push(match_ms);
        self.s.pairs += (features.descriptors.len() * map.len()) as u64;

        let (world, pixels): (Vec<Vec3>, Vec<Vec2>) = matches
            .iter()
            .map(|m| {
                let kp = &features.keypoints[m.query];
                (map.point(m.train).position, Vec2::new(kp.x, kp.y))
            })
            .unzip();
        let mut seed = *prior_w2c;
        let mut inliers: Vec<usize> = Vec::new();
        let (mut pnp_ms, mut lm_ms) = (0.0, 0.0);
        if world.len() >= 4 {
            let start = Instant::now();
            let pnp = solve_pnp_ransac(&world, &pixels, &cfg.camera, &cfg.pnp);
            pnp_ms = ms_since(start);
            self.s.pnp_ms.push(pnp_ms);
            if let Some(pnp) = pnp {
                self.s.pnp_solved += 1;
                self.s.ransac_iters += pnp.ransac_iterations as u64;
                self.s.pnp_inliers += pnp.inliers.len() as u64;
                self.s.pnp_correspondences += world.len() as u64;
                seed = pnp.pose;
                inliers = pnp.inliers;
            }
        }
        let (lm_world, lm_pixels): (Vec<Vec3>, Vec<Vec2>) = if inliers.is_empty() {
            (world, pixels)
        } else {
            inliers.iter().map(|&i| (world[i], pixels[i])).unzip()
        };
        if lm_world.len() >= 3 {
            let start = Instant::now();
            let lm = optimize_pose_with_prior(
                &seed,
                Some(prior_w2c),
                &lm_world,
                &lm_pixels,
                &cfg.camera,
                &cfg.lm,
            );
            lm_ms = ms_since(start);
            self.s.lm_ms.push(lm_ms);
            self.s.lm_iters += lm.iterations as u64;
        }
        match_ms + pnp_ms + lm_ms
    }

    /// The layer calls of one mapping frame: extraction, then — unless
    /// the map is still empty — matching against `map` as it stands
    /// before the frame, PnP and LM seeded by `prior_w2c`. Returns the
    /// traced extraction's counters, which equal the tracking call's own
    /// when both saw the same frame.
    pub fn mapping_frame(
        &mut self,
        gray: &GrayImage,
        map: &Map,
        prior_w2c: &Se3,
    ) -> ExtractionStats {
        let (features, mut layers_ms) = self.extract(gray);
        if !map.is_empty() {
            layers_ms += self.track_layers(&features, map, prior_w2c);
        }
        self.pending_ms.push(layers_ms);
        features.stats
    }

    /// The layer calls of one cold-start query against `state`:
    /// extraction, BoW relocalization, then the map-tracking refine
    /// seeded by the relocalized pose.
    pub fn cold_query(&mut self, gray: &GrayImage, state: &AtlasState) {
        let (features, mut layers_ms) = self.extract(gray);
        if let Some(vocabulary) = state.vocabulary() {
            let pixels: Vec<Vec2> = features
                .keypoints
                .iter()
                .map(|kp| Vec2::new(kp.x, kp.y))
                .collect();
            let start = Instant::now();
            let reloc = state.relocalizer().relocalize(
                vocabulary,
                state.keyframes(),
                &self.config.camera,
                &features.descriptors,
                &pixels,
                &RelocalizationConfig::default(),
            );
            let relocalize_ms = ms_since(start);
            self.s.relocalize_ms.push(relocalize_ms);
            layers_ms += relocalize_ms;
            if let Some(reloc) = reloc {
                self.s.relocalized += 1;
                self.s.relocalize_inliers += reloc.inliers as u64;
                layers_ms += self.track_layers(&features, state.map(), &reloc.pose_w2c);
            }
        }
        self.pending_ms.push(layers_ms);
    }

    /// Closes a traced pass against the untraced pass over the same
    /// frames: `call_ms[k]` is the untraced tracking call of frame `k`,
    /// whose self time is that call minus the layer calls traced for the
    /// same frame. Untraced times are used because a traced pass runs
    /// the layers between calls, which warms caches and gives async
    /// backend solves time to finish before the next join.
    ///
    /// # Panics
    /// Panics when the passes cover different frame counts.
    pub fn pair_pass(&mut self, call_ms: &[f64]) {
        assert_eq!(
            call_ms.len(),
            self.pending_ms.len(),
            "passes over different frames"
        );
        for (&call, &layers) in call_ms.iter().zip(&self.pending_ms) {
            let self_ms = stats::self_time(call, &[layers]);
            self.s.self_ms.push(self_ms);
            self.s.self_ms_total += self_ms;
            self.s.call_ms_total += call;
        }
        self.pending_ms.clear();
    }

    /// Records the backend's work of one untraced mapping pass.
    pub fn record_backend(&mut self, tally: &BackendTally) {
        self.s.mapping_frames += tally.frames;
        self.s.keyframes += tally.keyframes;
        self.s.ba_solve_ms.extend_from_slice(&tally.solve_ms);
        self.s.ba_solves += tally.solves;
        self.s.ba_iters += tally.iters;
        self.s.join_wait_ms += tally.join_wait_ms;
        self.s.passes += 1;
        if let Some(b) = &tally.totals {
            self.s.loop_candidates += b.loop_candidates as u64;
            self.s.loops_closed += b.loops_closed as u64;
            self.s.loops_rejected += b.loops_rejected as u64;
            self.s.loop_solve_ms += b.loop_solve_ms;
            self.s.pose_graph_iters += b.pose_graph_iterations as u64;
        }
    }

    /// Records one timed atlas decode and index build.
    pub fn record_atlas_load(&mut self, load_ms: f64, index_ms: f64) {
        self.s.load_ms.push(load_ms);
        self.s.index_ms.push(index_ms);
    }

    /// Each traced layer's share of the untraced tracking time, and the
    /// unattributed rest, as one line.
    pub fn shares(&self) -> String {
        let s = &self.s;
        let layers = [
            ("extract", &s.extract_ms),
            ("match", &s.match_ms),
            ("pnp", &s.pnp_ms),
            ("lm", &s.lm_ms),
            ("relocalize", &s.relocalize_ms),
        ];
        let mut parts: Vec<String> = layers
            .iter()
            .filter(|(_, ms)| !ms.is_empty())
            .map(|(name, ms)| {
                format!(
                    "{name} {:.1}%",
                    100.0 * ms.iter().sum::<f64>() / s.call_ms_total
                )
            })
            .collect();
        parts.push(format!(
            "self {:.1}%",
            100.0 * s.self_ms_total / s.call_ms_total
        ));
        parts.join(" · ")
    }

    /// Fills the per-layer metrics. The backend rows come from the
    /// untraced mapping passes — the timed ones of a mapping workload, the
    /// atlas-building set-up of the relocalization workload — and the
    /// cold-start rows only from a run that loaded atlases. Returns sample
    /// counts for the report.
    pub fn fill(&self, m: &mut Metrics) -> BTreeMap<&'static str, usize> {
        let s = &self.s;
        let frames = s.self_ms.len();
        let (extracts, matches, lms) = (s.extract_ms.len(), s.match_ms.len(), s.lm_ms.len());
        let solved = s.pnp_solved as usize;
        // The mean of `total` over `count` items, with that count.
        let per = |total: f64, count: usize| (Some(total / count.max(1) as f64), count);
        let kept_per_described = s.kept as f64 / s.described.max(1) as f64;
        let inlier_ratio = s.pnp_inliers as f64 / s.pnp_correspondences.max(1) as f64;
        let scaling = s.scaling_t1_ms / s.scaling_t2_ms;
        let mapping_frames = s.mapping_frames as usize;
        let passes = s.passes as usize;
        let mut rows = vec![
            ("features.extract.ms_p50", (median(&s.extract_ms), extracts)),
            (
                "features.extract.ms_p95",
                (percentile(&s.extract_ms, 95.0), extracts),
            ),
            (
                "features.extract.fast_hits",
                per(s.fast_hits as f64, extracts),
            ),
            (
                "features.extract.candidates",
                per(s.candidates as f64, extracts),
            ),
            (
                "features.extract.kept_per_described",
                (Some(kept_per_described), extracts),
            ),
            (
                "features.extract.working_bytes",
                (Some(s.working_bytes as f64), extracts),
            ),
            (
                "features.extract.scaling_t2",
                (Some(scaling), extracts.div_ceil(SCALING_STRIDE)),
            ),
            ("features.match.ms_p50", (median(&s.match_ms), matches)),
            ("features.match.pairs", per(s.pairs as f64, matches)),
            ("geometry.pnp.ms_p50", (median(&s.pnp_ms), s.pnp_ms.len())),
            (
                "geometry.pnp.ransac_iters",
                per(s.ransac_iters as f64, solved),
            ),
            ("geometry.pnp.inlier_ratio", (Some(inlier_ratio), solved)),
            ("geometry.lm.ms_p50", (median(&s.lm_ms), lms)),
            ("geometry.lm.iters", per(s.lm_iters as f64, lms)),
            ("core.self.ms_p50", (median(&s.self_ms), frames)),
            (
                "core.self.share",
                (Some(s.self_ms_total / s.call_ms_total), frames),
            ),
            (
                "core.keyframes_per_frame",
                per(s.keyframes as f64, mapping_frames),
            ),
            (
                "backend.local_ba.solve_ms_p50",
                (
                    Some(median(&s.ba_solve_ms).unwrap_or(0.0)),
                    s.ba_solve_ms.len(),
                ),
            ),
            (
                "backend.local_ba.iters",
                per(s.ba_iters as f64, s.ba_solves as usize),
            ),
            ("backend.join_wait_ms", per(s.join_wait_ms, mapping_frames)),
            (
                "backend.loop.candidates",
                per(s.loop_candidates as f64, passes),
            ),
            ("backend.loop.closed", per(s.loops_closed as f64, passes)),
            (
                "backend.loop.rejected",
                per(s.loops_rejected as f64, passes),
            ),
            ("backend.loop.solve_ms", per(s.loop_solve_ms, passes)),
            (
                "backend.loop.pose_graph_iters",
                per(s.pose_graph_iters as f64, passes),
            ),
        ];
        let relocs = s.relocalize_ms.len();
        if !s.load_ms.is_empty() {
            let inliers = per(s.relocalize_inliers as f64, s.relocalized as usize);
            rows.extend([
                (
                    "backend.relocalize.ms_p50",
                    (median(&s.relocalize_ms), relocs),
                ),
                (
                    "backend.relocalize.ms_p95",
                    (percentile(&s.relocalize_ms, 95.0), relocs),
                ),
                ("backend.relocalize.inliers", inliers),
                (
                    "core.persist.load_ms",
                    (median(&s.load_ms), s.load_ms.len()),
                ),
                (
                    "core.atlas.index_ms",
                    (median(&s.index_ms), s.index_ms.len()),
                ),
            ]);
        }
        let absent = [
            (
                "backend.relocalize.",
                "mapping tracks warm; it never relocalizes cold",
            ),
            ("core.", "mapping reads no atlas"),
        ];
        let mut samples = BTreeMap::new();
        for (name, (value, count)) in rows {
            m.set(name, value.unwrap_or(f64::NAN));
            samples.insert(name, count);
        }
        // Every other declared row does not apply to this workload.
        for d in crate::metrics::PER_LAYER {
            if m.get(d.name).is_none() {
                if let Some((_, reason)) =
                    absent.iter().find(|(prefix, _)| d.name.starts_with(prefix))
                {
                    m.absent(d.name, reason);
                }
            }
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_subtracts_each_frames_layers_from_its_own_call() {
        let mut t = Tracer::new(SlamConfig::scaled_for_tests(4.0));
        // Layer calls traced for two frames, then the untraced calls.
        t.pending_ms = vec![3.0, 5.0];
        t.pair_pass(&[10.0, 6.0]);
        assert_eq!(t.s.self_ms, [7.0, 1.0]);
        assert!(t.pending_ms.is_empty());
        // The untraced pass over those frames promoted one keyframe.
        let mut tally = BackendTally::default();
        tally.record_call(true);
        tally.record_call(false);
        t.record_backend(&tally);
        let mut m = Metrics::default();
        t.fill(&mut m);
        // 8 ms unattributed out of 16 ms of calls.
        assert_eq!(m.get("core.self.share"), Some(0.5));
        assert_eq!(m.get("core.self.ms_p50"), Some(1.0));
        assert_eq!(m.get("core.keyframes_per_frame"), Some(0.5));
    }

    #[test]
    fn fill_sets_every_per_layer_row_on_both_workload_kinds() {
        let mapping = Tracer::new(SlamConfig::scaled_for_tests(4.0));
        let mut cold = Tracer::new(SlamConfig::scaled_for_tests(4.0));
        cold.record_atlas_load(20.0, 15.0);
        for (t, loads) in [(&mapping, false), (&cold, true)] {
            let mut m = Metrics::default();
            t.fill(&mut m);
            // The run, not the tracer, supplies the render and overhead rows.
            let run_rows = ["dataset.render.ms_p50", "bench.trace_overhead_pct"];
            for d in crate::metrics::PER_LAYER {
                let set = m.get(d.name).is_some() || run_rows.contains(&d.name);
                assert!(set, "{} (atlas loads {loads})", d.name);
            }
            assert_eq!(
                m.get("core.persist.load_ms"),
                Some(if loads { 20.0 } else { 0.0 })
            );
        }
    }

    #[test]
    #[should_panic(expected = "different frames")]
    fn pairing_refuses_passes_of_different_length() {
        let mut t = Tracer::new(SlamConfig::scaled_for_tests(4.0));
        t.pending_ms = vec![3.0];
        t.pair_pass(&[10.0, 6.0]);
    }

    #[test]
    fn backend_tally_reads_per_frame_deltas() {
        let before = BackendStats {
            applied: 2,
            iterations: 7,
            solve_ms: 10.0,
            join_wait_ms: 1.0,
            ..BackendStats::default()
        };
        let after = BackendStats {
            applied: 4,
            iterations: 15,
            solve_ms: 16.0,
            join_wait_ms: 4.5,
            ..before
        };
        let mut tally = BackendTally::default();
        tally.record_frame(&before, &after);
        tally.record_frame(&after, &after);
        assert_eq!(tally.solve_ms, [3.0]);
        assert_eq!((tally.solves, tally.iters), (2, 8));
        assert_eq!(tally.join_wait_ms, 3.5);
    }
}
