//! Per-frame tracking: feature matching → PnP-RANSAC → LM pose
//! optimization (the PE and PO stages of §2.1).
//!
//! Two match sources feed one tail:
//!
//! * [`track_frame`] compares every frame descriptor with every map
//!   descriptor, as the paper's BRIEF Matcher does (§3.2). Mapping and
//!   warm tracking use it: all they hold is a constant-velocity
//!   prediction of the pose.
//! * [`track_frame_by_projection`] matches by projection
//!   ([`match_by_projection`]). It serves the cold-start refine of
//!   [`crate::Session`], whose pose P3P has already verified: every map
//!   point is projected under that pose, and each feature is compared
//!   only with the points that land within [`GUIDED_RADIUS_PER_FX`]·fx
//!   of its keypoint.
//!
//! The tail is shared: the matches become 3-D/2-D correspondences,
//! `solve_pnp_ransac` estimates a pose, Levenberg-Marquardt polishes it
//! against the motion prior, and every correspondence is re-validated
//! under the final pose.

use std::ops::RangeInclusive;

use crate::config::SlamConfig;
use crate::map::Map;
use eslam_features::matcher::{match_brute_force_in, DescriptorMatch};
use eslam_features::orb::OrbFeatures;
use eslam_features::pool::WorkerPool;
use eslam_geometry::lm::optimize_pose_with_prior;
use eslam_geometry::pnp::solve_pnp_ransac;
use eslam_geometry::{PinholeCamera, Se3, Vec2, Vec3};
use eslam_telemetry::{Stage, Telemetry};

/// Radius of the projection-guided search as a fraction of the focal
/// length `fx`: 8.0 px at the relocalization workload's fx of 129.3.
/// The candidates per feature grow with the radius squared.
pub const GUIDED_RADIUS_PER_FX: f64 = 0.062;

/// Outcome of tracking one frame against the map.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingOutcome {
    /// World-to-camera pose of the frame (inverse of camera-to-world).
    pub pose_w2c: Se3,
    /// Indices into the map for each accepted (inlier) correspondence.
    pub matched_map_indices: Vec<usize>,
    /// Feature indices (aligned with `matched_map_indices`).
    pub matched_feature_indices: Vec<usize>,
    /// Total descriptor matches before geometric verification.
    pub raw_matches: usize,
    /// PnP inliers after RANSAC + LM.
    pub inliers: usize,
    /// Final LM reprojection cost.
    pub final_cost: f64,
    /// Whether tracking met the inlier threshold.
    pub ok: bool,
}

/// Tracks a frame: matches its descriptors against the map, estimates
/// the pose with P3P-RANSAC and polishes it with Levenberg-Marquardt.
///
/// `prior_w2c` (e.g. the previous frame's pose) is the fallback and the
/// LM seed when RANSAC fails or matches are scarce. The descriptor
/// matching stage runs its parallel rows on `pool` (the SLAM system
/// passes its persistent front-end pool; standalone callers can pass
/// [`WorkerPool::global`]).
pub fn track_frame(
    features: &OrbFeatures,
    map: &Map,
    prior_w2c: &Se3,
    config: &SlamConfig,
    pool: &WorkerPool,
) -> TrackingOutcome {
    track_frame_with_telemetry(features, map, prior_w2c, config, pool, None)
}

/// [`track_frame`] with a telemetry sink: the matching, pose-estimation
/// and pose-optimization stages are recorded as spans (full mode only).
/// The outcome is bit-identical with and without a sink.
pub fn track_frame_with_telemetry(
    features: &OrbFeatures,
    map: &Map,
    prior_w2c: &Se3,
    config: &SlamConfig,
    pool: &WorkerPool,
    telemetry: Option<&Telemetry>,
) -> TrackingOutcome {
    // Borrowed descriptor column: the map maintains it incrementally,
    // so steady-state tracking allocates nothing for the train set.
    let matches = {
        let _span = Telemetry::span_opt(telemetry, Stage::Matching);
        match_brute_force_in(
            pool,
            &features.descriptors,
            map.descriptors(),
            config.matcher_max_distance,
        )
    };
    track_matches(features, map, &matches, prior_w2c, config, telemetry)
}

/// Tracks a frame whose pose is already known to lie close to
/// `pose_w2c`: the matches come from [`match_by_projection`] under that
/// pose, with a radius of [`GUIDED_RADIUS_PER_FX`]·fx, instead of from
/// a search of the whole map. `pose_w2c` is also the LM prior; the rest
/// is [`track_frame`]'s tail.
pub fn track_frame_by_projection(
    features: &OrbFeatures,
    map: &Map,
    pose_w2c: &Se3,
    config: &SlamConfig,
) -> TrackingOutcome {
    let matches = match_by_projection(
        features,
        map,
        pose_w2c,
        &config.camera,
        GUIDED_RADIUS_PER_FX * config.camera.fx,
        config.matcher_max_distance,
    );
    track_matches(features, map, &matches, pose_w2c, config, None)
}

/// The tail both match sources share: 3-D/2-D correspondences →
/// PnP-RANSAC → motion-prior LM → re-validation under the final pose.
fn track_matches(
    features: &OrbFeatures,
    map: &Map,
    matches: &[DescriptorMatch],
    prior_w2c: &Se3,
    config: &SlamConfig,
    telemetry: Option<&Telemetry>,
) -> TrackingOutcome {
    // Build 3-D/2-D correspondences.
    let mut world = Vec::with_capacity(matches.len());
    let mut pixels = Vec::with_capacity(matches.len());
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(matches.len());
    for m in matches {
        let kp = &features.keypoints[m.query];
        world.push(map.point(m.train).position);
        pixels.push(Vec2::new(kp.x, kp.y));
        pairs.push((m.query, m.train));
    }

    let raw_matches = pairs.len();
    let mut pose_w2c = *prior_w2c;
    let mut inlier_set: Vec<usize> = Vec::new();

    if world.len() >= 4 {
        let _span = Telemetry::span_opt(telemetry, Stage::PoseEstimate);
        if let Some(pnp) = solve_pnp_ransac(&world, &pixels, &config.camera, &config.pnp) {
            pose_w2c = pnp.pose;
            inlier_set = pnp.inliers;
        }
    }

    // LM pose optimization on the inliers (or all matches when RANSAC
    // found nothing and we fall back to the prior pose as the seed).
    let (opt_world, opt_pixels): (Vec<Vec3>, Vec<Vec2>) = if inlier_set.is_empty() {
        (world.clone(), pixels.clone())
    } else {
        inlier_set.iter().map(|&i| (world[i], pixels[i])).unzip()
    };
    let mut final_cost = 0.0;
    if opt_world.len() >= 3 {
        let _span = Telemetry::span_opt(telemetry, Stage::PoseOptimize);
        // The PnP estimate seeds the iteration; the motion prediction
        // (`prior_w2c`) anchors the optional motion-prior term that
        // conditions weakly-constrained solves.
        let lm = optimize_pose_with_prior(
            &pose_w2c,
            Some(prior_w2c),
            &opt_world,
            &opt_pixels,
            &config.camera,
            &config.lm,
        );
        pose_w2c = lm.pose;
        final_cost = lm.final_cost;
    }

    // Re-validate inliers under the final pose.
    let threshold = config.pnp.ransac.threshold;
    let mut matched_map_indices = Vec::new();
    let mut matched_feature_indices = Vec::new();
    for (i, (feat_idx, map_idx)) in pairs.iter().enumerate() {
        if let Some(uv) = config.camera.project(pose_w2c.transform(world[i])) {
            if (uv - pixels[i]).norm() < threshold {
                matched_map_indices.push(*map_idx);
                matched_feature_indices.push(*feat_idx);
            }
        }
    }
    let inliers = matched_map_indices.len();

    TrackingOutcome {
        pose_w2c,
        matched_map_indices,
        matched_feature_indices,
        raw_matches,
        inliers,
        final_cost,
        ok: inliers >= config.min_inliers,
    }
}

/// For each feature, the nearest map descriptor among the points that
/// project under `pose_w2c` inside the image and within `radius` pixels
/// of its keypoint (`du² + dv² ≤ radius²`, `radius ≥ 0`). Ties keep the
/// lowest map index and matches farther than `max_distance` are
/// dropped, the rules of [`match_brute_force_in`]. Returns the matches
/// ordered by feature index.
pub fn match_by_projection(
    features: &OrbFeatures,
    map: &Map,
    pose_w2c: &Se3,
    camera: &PinholeCamera,
    radius: f64,
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    let grid = ProjectionGrid::new(map, pose_w2c, camera, radius);
    let map_descriptors = map.descriptors();
    let radius_sq = radius * radius;
    let mut matches = Vec::new();
    let queries = features.keypoints.iter().zip(&features.descriptors);
    for (query, (kp, descriptor)) in queries.enumerate() {
        let Some((xs, ys)) = grid.cells_within(kp.x, kp.y, radius) else {
            continue;
        };
        // (distance, map index): the tuple order is the tie rule.
        let mut best: Option<(u32, usize)> = None;
        for y in ys {
            for &(index, uv) in grid.row(y, &xs) {
                let (du, dv) = (uv.x - kp.x, uv.y - kp.y);
                if du * du + dv * dv <= radius_sq {
                    let candidate = (descriptor.hamming(&map_descriptors[index]), index);
                    if best.is_none_or(|b| candidate < b) {
                        best = Some(candidate);
                    }
                }
            }
        }
        if let Some((distance, train)) = best.filter(|&(d, _)| d <= max_distance) {
            matches.push(DescriptorMatch {
                query,
                train,
                distance,
            });
        }
    }
    matches
}

/// The map points that project inside the image under one pose,
/// bucketed by a counting sort into square cells in row-major order.
/// Within a cell the points keep ascending map index, and the cells of
/// one grid row are adjacent, so a run of neighbouring cells in a row is
/// one slice.
struct ProjectionGrid {
    cols: usize,
    rows: usize,
    inv_cell: f64,
    /// Allowance for rounding when a query's box is mapped to cells, px.
    slack: f64,
    /// Cell `c` holds `points[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// `(map index, projected pixel)`, grouped by cell.
    points: Vec<(usize, Vec2)>,
}

impl ProjectionGrid {
    /// Projects every point of `map` under `pose_w2c` and buckets those
    /// inside the image into cells of side `cell` (at least a pixel, so
    /// that there are never more cells than pixels).
    fn new(map: &Map, pose_w2c: &Se3, camera: &PinholeCamera, cell: f64) -> Self {
        let inv_cell = 1.0 / cell.max(1.0);
        // `floor + 1`, not `ceil`: every coordinate below the image size
        // then falls in a cell below `cols` (`rows`) after rounding too.
        let cols = (f64::from(camera.width) * inv_cell).floor() as usize + 1;
        let rows = (f64::from(camera.height) * inv_cell).floor() as usize + 1;
        let cell_of = |uv: Vec2| {
            let x = (uv.x * inv_cell).floor() as usize;
            let y = (uv.y * inv_cell).floor() as usize;
            y * cols + x
        };
        let projected: Vec<(usize, usize, Vec2)> = map
            .points()
            .iter()
            .enumerate()
            .filter_map(|(index, point)| {
                let uv = camera.project(pose_w2c.transform(point.position))?;
                camera.in_bounds(uv, 0.0).then(|| (cell_of(uv), index, uv))
            })
            .collect();
        // Counting sort: cell sizes, their running sums (each cell's
        // end), then a backward fill that leaves `starts[c]` at cell
        // `c`'s start and ascending map order within each cell.
        let mut starts = vec![0usize; cols * rows + 1];
        for &(cell, _, _) in &projected {
            starts[cell] += 1;
        }
        let mut end = 0;
        for start in &mut starts {
            end += *start;
            *start = end;
        }
        let mut points = vec![(0, Vec2::default()); projected.len()];
        for &(cell, index, uv) in projected.iter().rev() {
            starts[cell] -= 1;
            points[starts[cell]] = (index, uv);
        }
        let extent = f64::from(camera.width.max(camera.height));
        ProjectionGrid {
            cols,
            rows,
            inv_cell,
            slack: 1e-9 * (cell + extent),
            starts,
            points,
        }
    }

    /// The cell columns and rows that hold every grid point within
    /// `radius` of `(x, y)`: the cells of the box `radius` plus `slack`
    /// around it, clamped to the grid. `None` when the box misses the
    /// grid or the keypoint is not a number.
    ///
    /// A point passing the exact test lies within `radius·(1 + 3ε)` of
    /// the keypoint; `slack` covers that and the rounding of the box's
    /// edges, and `floor(v · inv_cell)` is monotone in `v`, so the box's
    /// cells contain the point's cell.
    fn cells_within(
        &self,
        x: f64,
        y: f64,
        radius: f64,
    ) -> Option<(RangeInclusive<usize>, RangeInclusive<usize>)> {
        let reach = radius + self.slack;
        let axis = |v: f64, n: usize| {
            let lo = ((v - reach) * self.inv_cell).floor();
            let hi = ((v + reach) * self.inv_cell).floor();
            // Both comparisons are false for NaN.
            (hi >= 0.0 && lo < n as f64).then(|| lo.max(0.0) as usize..=(hi as usize).min(n - 1))
        };
        Some((axis(x, self.cols)?, axis(y, self.rows)?))
    }

    /// The points of cells `xs` in grid row `y`, one slice.
    fn row(&self, y: usize, xs: &RangeInclusive<usize>) -> &[(usize, Vec2)] {
        let first = y * self.cols + xs.start();
        let last = y * self.cols + xs.end();
        &self.points[self.starts[first]..self.starts[last + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslam_features::orb::{ExtractionStats, Keypoint};
    use eslam_features::Descriptor;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Builds a synthetic map + a frame observing it from `truth_c2w`.
    fn synthetic_scene(
        seed: u64,
        n: usize,
        truth_c2w: Se3,
        cfg: &SlamConfig,
    ) -> (Map, OrbFeatures) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut map = Map::new();
        let mut keypoints = Vec::new();
        let mut descriptors = Vec::new();
        let w2c = truth_c2w.inverse();
        while map.len() < n {
            let p = Vec3::new(
                (rng.gen::<f64>() - 0.5) * 4.0,
                (rng.gen::<f64>() - 0.5) * 3.0,
                2.0 + rng.gen::<f64>() * 3.0,
            );
            let cam = w2c.transform(p);
            let uv = match cfg.camera.project(cam) {
                Some(uv) if cfg.camera.in_bounds(uv, 2.0) => uv,
                _ => continue,
            };
            let desc = Descriptor::from_words([
                rng.gen::<u64>(),
                rng.gen::<u64>(),
                rng.gen::<u64>(),
                rng.gen::<u64>(),
            ]);
            map.insert(p, desc, 0, 0, uv);
            keypoints.push(Keypoint {
                x: uv.x,
                y: uv.y,
                level: 0,
                level_x: uv.x as u32,
                level_y: uv.y as u32,
                score: 1.0,
                angle: 0.0,
                label: 0,
            });
            descriptors.push(desc);
        }
        let stats = ExtractionStats {
            candidates: n,
            kept: n,
            descriptors_computed: n,
            ..Default::default()
        };
        (
            map,
            OrbFeatures {
                keypoints,
                descriptors,
                stats,
            },
        )
    }

    #[test]
    fn tracks_exact_observations() {
        let cfg = SlamConfig::tum_default();
        let truth_c2w = Se3::from_translation(Vec3::new(0.1, -0.05, 0.2));
        let (map, features) = synthetic_scene(3, 60, truth_c2w, &cfg);
        let outcome = track_frame(
            &features,
            &map,
            &Se3::identity(),
            &cfg,
            WorkerPool::global(),
        );
        assert!(outcome.ok);
        assert_eq!(outcome.raw_matches, 60);
        assert!(outcome.inliers >= 55);
        let est_c2w = outcome.pose_w2c.inverse();
        // The production config carries the motion prior, and this
        // scene hands it a maximally wrong anchor (identity prior, 23cm
        // true motion): the documented conditioning-for-bias tradeoff
        // costs ~0.5 mm here. In operation the prediction is cm-close,
        // shrinking the bias by orders of magnitude.
        assert!(
            (est_c2w.translation - truth_c2w.translation).norm() < 1e-3,
            "pose error {}",
            (est_c2w.translation - truth_c2w.translation).norm()
        );
        // Without the prior, the pure-data optimum is recovered to
        // sub-0.1 mm, as before.
        let mut pure = cfg;
        pure.lm.motion_prior_weight = 0.0;
        let outcome = track_frame(
            &features,
            &map,
            &Se3::identity(),
            &pure,
            WorkerPool::global(),
        );
        let est_c2w = outcome.pose_w2c.inverse();
        assert!(
            (est_c2w.translation - truth_c2w.translation).norm() < 1e-4,
            "prior-free pose error {}",
            (est_c2w.translation - truth_c2w.translation).norm()
        );
    }

    #[test]
    fn survives_descriptor_outliers() {
        let cfg = SlamConfig::tum_default();
        let truth_c2w = Se3::from_translation(Vec3::new(-0.1, 0.0, 0.1));
        let (map, mut features) = synthetic_scene(5, 80, truth_c2w, &cfg);
        // Corrupt 20 keypoint locations → wrong correspondences.
        for kp in features.keypoints.iter_mut().take(20) {
            kp.x = (kp.x + 200.0) % 600.0;
            kp.y = (kp.y + 150.0) % 440.0;
        }
        let outcome = track_frame(
            &features,
            &map,
            &Se3::identity(),
            &cfg,
            WorkerPool::global(),
        );
        assert!(outcome.ok);
        let est_c2w = outcome.pose_w2c.inverse();
        assert!((est_c2w.translation - truth_c2w.translation).norm() < 1e-3);
        assert!(outcome.inliers >= 55);
        assert!(outcome.inliers <= 62);
    }

    #[test]
    fn empty_map_fails_gracefully() {
        let cfg = SlamConfig::tum_default();
        let (_, features) = synthetic_scene(7, 20, Se3::identity(), &cfg);
        let outcome = track_frame(
            &features,
            &Map::new(),
            &Se3::identity(),
            &cfg,
            WorkerPool::global(),
        );
        assert!(!outcome.ok);
        assert_eq!(outcome.raw_matches, 0);
        assert_eq!(outcome.pose_w2c, Se3::identity());
    }

    #[test]
    fn too_few_matches_returns_prior() {
        let cfg = SlamConfig::tum_default();
        let truth = Se3::from_translation(Vec3::new(0.3, 0.0, 0.0));
        let (map, features) = synthetic_scene(11, 3, truth, &cfg);
        let prior = Se3::from_translation(Vec3::new(9.0, 9.0, 9.0));
        let outcome = track_frame(&features, &map, &prior, &cfg, WorkerPool::global());
        assert!(!outcome.ok, "3 matches cannot satisfy min_inliers");
    }

    #[test]
    fn refines_a_perturbed_pose_by_projection() {
        let cfg = SlamConfig::tum_default();
        let truth_c2w = Se3::from_translation(Vec3::new(0.1, -0.05, 0.2));
        let (map, features) = synthetic_scene(3, 60, truth_c2w, &cfg);
        // A relocalized pose is a few centimetres and a degree off.
        let nudge = Se3::new(
            Se3::so3_exp(Vec3::new(0.01, -0.015, 0.005)),
            Vec3::new(0.02, -0.01, 0.015),
        );
        let seed_w2c = nudge.compose(&truth_c2w.inverse());
        let outcome = track_frame_by_projection(&features, &map, &seed_w2c, &cfg);
        assert!(outcome.ok);
        assert_eq!(outcome.raw_matches, 60, "every feature finds its point");
        assert!(outcome.inliers >= 55);
        let err = (outcome.pose_w2c.inverse().translation - truth_c2w.translation).norm();
        assert!(err < 1e-3, "pose error {err}");
    }

    /// The guided search's scalar reference: every map point in index
    /// order, kept when it projects inside the image and within
    /// `radius` of the keypoint; the minimum `(distance, index)` wins.
    fn match_by_projection_reference(
        features: &OrbFeatures,
        map: &Map,
        pose_w2c: &Se3,
        camera: &PinholeCamera,
        radius: f64,
        max_distance: u32,
    ) -> Vec<DescriptorMatch> {
        let mut out = Vec::new();
        let queries = features.keypoints.iter().zip(&features.descriptors);
        for (query, (kp, descriptor)) in queries.enumerate() {
            let mut best: Option<(u32, usize)> = None;
            for (index, point) in map.points().iter().enumerate() {
                let Some(uv) = camera.project(pose_w2c.transform(point.position)) else {
                    continue;
                };
                let (du, dv) = (uv.x - kp.x, uv.y - kp.y);
                let near = du * du + dv * dv <= radius * radius;
                if camera.in_bounds(uv, 0.0) && near {
                    let distance = descriptor.hamming(&map.descriptors()[index]);
                    if best.is_none_or(|(d, _)| distance < d) {
                        best = Some((distance, index));
                    }
                }
            }
            if let Some((distance, train)) = best.filter(|&(d, _)| d <= max_distance) {
                out.push(DescriptorMatch {
                    query,
                    train,
                    distance,
                });
            }
        }
        out
    }

    fn keypoint(x: f64, y: f64) -> Keypoint {
        Keypoint {
            x,
            y,
            level: 0,
            level_x: 0,
            level_y: 0,
            score: 1.0,
            angle: 0.0,
            label: 0,
        }
    }

    fn frame(keypoints: Vec<Keypoint>, descriptors: Vec<Descriptor>) -> OrbFeatures {
        OrbFeatures {
            keypoints,
            descriptors,
            stats: ExtractionStats::default(),
        }
    }

    /// Boundary cases with exact arithmetic: a point at pixel (40, 40)
    /// under the identity pose, and a radius of 8 (the cell side).
    #[test]
    fn guided_search_boundaries() {
        let camera = PinholeCamera::new(64.0, 64.0, 32.0, 32.0, 80, 60);
        let pose = Se3::identity();
        let d = |w: u64| Descriptor::from_words([w, 0, 0, 0]);
        let mut map = Map::new();
        // Pixel (40, 40) twice, with tied descriptors; then, with the
        // query's own descriptor, a point behind the camera and one that
        // projects to (−8, 40), left of the image.
        map.insert(Vec3::new(0.25, 0.25, 2.0), d(0b11), 0, 0, Vec2::default());
        map.insert(Vec3::new(0.5, 0.5, 4.0), d(0b101), 0, 0, Vec2::default());
        map.insert(Vec3::new(0.25, 0.25, -2.0), d(1), 0, 0, Vec2::default());
        map.insert(Vec3::new(-1.25, 0.25, 2.0), d(1), 0, 0, Vec2::default());
        let on_radius = 32.0f64;
        let past_radius = f64::from_bits(on_radius.to_bits() - 1);
        let keypoints = vec![
            keypoint(on_radius, 40.0),
            keypoint(past_radius, 40.0),
            keypoint(40.0, 48.0),
            keypoint(48.0, 48.0),
            keypoint(-8.0, 40.0),
            keypoint(f64::NAN, 40.0),
            keypoint(1e12, -1e12),
        ];
        let n = keypoints.len();
        let features = frame(keypoints, vec![d(1); n]);
        let matches = match_by_projection(&features, &map, &pose, &camera, 8.0, 64);
        let reference = match_by_projection_reference(&features, &map, &pose, &camera, 8.0, 64);
        assert_eq!(matches, reference);
        // On R matches, one ulp past does not; of the two tied points
        // the lower index wins; the corner (48, 48) is √2·8 away.
        let found: Vec<(usize, usize)> = matches.iter().map(|m| (m.query, m.train)).collect();
        assert_eq!(found, [(0, 0), (2, 0)]);
        assert!(match_by_projection(&features, &map, &pose, &camera, 8.0, 0).is_empty());

        // An empty map and an empty frame match nothing.
        let empty = Map::new();
        assert!(match_by_projection(&features, &empty, &pose, &camera, 8.0, 64).is_empty());
        let none = frame(Vec::new(), Vec::new());
        assert!(match_by_projection(&none, &map, &pose, &camera, 8.0, 64).is_empty());
    }

    /// A rounding tie can put a point that the exact test keeps past the
    /// box `radius` around the keypoint. Here the radius falls in cell 0
    /// (`radius · inv_cell` rounds below 1) and the point one ulp above
    /// it in cell 1; a keypoint half an ulp right of 0 sees `u − x`
    /// round down to `radius` and `x + radius` round down to `radius`,
    /// so without the slack the box would end in cell 0.
    #[test]
    fn guided_search_keeps_a_point_past_the_rounded_box() {
        let radius = f64::from_bits(0x401b_9f1d_0bee_51da); // 6.905384241505510…
        let u = radius.next_up();
        let x = (u - radius) / 2.0;
        assert_eq!(u - x, radius);
        assert_eq!(x + radius, radius);
        assert!(radius * (1.0 / radius) < 1.0 && u * (1.0 / radius) >= 1.0);
        // Unit focal length and no offset: (u, 50, 1) projects to (u, 50).
        let camera = PinholeCamera::new(1.0, 1.0, 0.0, 0.0, 200, 200);
        let pose = Se3::identity();
        let mut map = Map::new();
        map.insert(
            Vec3::new(u, 50.0, 1.0),
            Descriptor::ZERO,
            0,
            0,
            Vec2::default(),
        );
        let features = frame(vec![keypoint(x, 50.0)], vec![Descriptor::ZERO]);
        let matches = match_by_projection(&features, &map, &pose, &camera, radius, 0);
        assert_eq!(matches.len(), 1);
        let reference = match_by_projection_reference(&features, &map, &pose, &camera, radius, 0);
        assert_eq!(matches, reference);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The grid search equals the scalar reference on random
            /// cameras, poses and maps: points behind the camera and
            /// outside the image, descriptors drawn from a small pool
            /// (ties), and keypoints on a point's radius, one ulp either
            /// side of it, on cell corners, inside and outside the
            /// image. Empty maps and frames come up too.
            #[test]
            fn guided_search_equals_the_scalar_reference(
                seed in any::<u64>(),
                points in 0usize..160,
                queries in 0usize..120,
                radius_pick in 0usize..5,
                max_distance_pick in 0usize..4,
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let width = 16 + (rng.gen::<u64>() % 200) as u32;
                let height = 12 + (rng.gen::<u64>() % 160) as u32;
                let fx = 40.0 + rng.gen::<f64>() * 300.0;
                let camera = PinholeCamera::new(
                    fx,
                    fx * (0.9 + 0.2 * rng.gen::<f64>()),
                    f64::from(width) * (0.4 + 0.2 * rng.gen::<f64>()),
                    f64::from(height) * (0.4 + 0.2 * rng.gen::<f64>()),
                    width,
                    height,
                );
                let radius = [0.0, 1.0, 8.0, GUIDED_RADIUS_PER_FX * fx, rng.gen::<f64>() * 40.0]
                    [radius_pick];
                let max_distance = [0, 6, 64, 256][max_distance_pick];
                let spin = |rng: &mut SmallRng| (rng.gen::<f64>() - 0.5) * 0.6;
                let pose_w2c = Se3::new(
                    Se3::so3_exp(Vec3::new(spin(&mut rng), spin(&mut rng), spin(&mut rng))),
                    Vec3::new(spin(&mut rng), spin(&mut rng), spin(&mut rng)),
                );
                let c2w = pose_w2c.inverse();

                // Descriptors from a small pool, so that distances tie.
                let pool: Vec<Descriptor> = (0..1 + rng.gen::<u64>() % 5)
                    .map(|_| Descriptor::from_words([rng.gen::<u64>() & 0x1f, 0, 0, 0]))
                    .collect();
                let pick = |rng: &mut SmallRng| pool[(rng.gen::<u64>() % pool.len() as u64) as usize];
                let mut map = Map::new();
                let mut pixels = Vec::new();
                for _ in 0..points {
                    // Camera-frame depth −1..5 m, over a field of view
                    // wider than the image.
                    let z = rng.gen::<f64>() * 6.0 - 1.0;
                    let u = (rng.gen::<f64>() * 1.4 - 0.2) * f64::from(width);
                    let v = (rng.gen::<f64>() * 1.4 - 0.2) * f64::from(height);
                    let cam = Vec3::new((u - camera.cx) * z / camera.fx, (v - camera.cy) * z / camera.fy, z);
                    map.insert(c2w.transform(cam), pick(&mut rng), 0, 0, Vec2::default());
                    if let Some(uv) = camera.project(pose_w2c.transform(c2w.transform(cam))) {
                        pixels.push(uv);
                    }
                }

                let cell = radius.max(1.0);
                let mut keypoints = Vec::new();
                for _ in 0..queries {
                    let near = pixels.get((rng.gen::<u64>() as usize) % pixels.len().max(1)).copied();
                    let (x, y) = match (rng.gen::<u64>() % 5, near) {
                        // On the radius along an axis, or one ulp either side.
                        (0, Some(uv)) => {
                            let x = uv.x - radius;
                            let x = match rng.gen::<u64>() % 3 {
                                0 => x,
                                1 => x.next_up(),
                                _ => x.next_down(),
                            };
                            (x, uv.y)
                        }
                        // Anywhere within 1.5 radii of a point.
                        (1, Some(uv)) => {
                            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
                            let r = rng.gen::<f64>() * 1.5 * radius;
                            (uv.x + r * angle.cos(), uv.y + r * angle.sin())
                        }
                        // A cell corner, the grid's edges included.
                        (2, _) => {
                            let i = (rng.gen::<u64>() % (u64::from(width) / cell as u64 + 3)) as f64 - 1.0;
                            let j = (rng.gen::<u64>() % (u64::from(height) / cell as u64 + 3)) as f64 - 1.0;
                            (i * cell, j * cell)
                        }
                        // Anywhere over the image and a margin outside it.
                        _ => (
                            (rng.gen::<f64>() * 1.6 - 0.3) * f64::from(width),
                            (rng.gen::<f64>() * 1.6 - 0.3) * f64::from(height),
                        ),
                    };
                    keypoints.push(keypoint(x, y));
                }
                let descriptors = keypoints.iter().map(|_| pick(&mut rng)).collect();
                let features = frame(keypoints, descriptors);

                let matches =
                    match_by_projection(&features, &map, &pose_w2c, &camera, radius, max_distance);
                let reference = match_by_projection_reference(
                    &features, &map, &pose_w2c, &camera, radius, max_distance,
                );
                prop_assert_eq!(matches, reference);
            }
        }
    }
}
