//! Perspective-n-Point pose estimation.
//!
//! The paper's pose-estimation stage (§2.1) applies PnP to the matched
//! feature pairs and uses RANSAC to eliminate mismatches. This module
//! implements:
//!
//! * [`solve_p3p`] — Grunert's classic three-point minimal solver (up to
//!   four solutions), whose quartic is solved in closed form by Ferrari's
//!   method ([`crate::poly`]); used inside RANSAC;
//! * [`solve_pnp_ransac`] — the full robust pipeline: P3P hypotheses →
//!   reprojection-error consensus → least-squares polish on the inliers via
//!   Levenberg–Marquardt ([`crate::lm`]).

use crate::align::align_rigid;
use crate::camera::PinholeCamera;
use crate::lm::{optimize_pose, LmParams};
use crate::poly::real_roots;
use crate::ransac::{ransac, RansacParams, RansacResult};
use crate::se3::Se3;
use crate::vector::{Vec2, Vec3};

/// Multiplies two dense polynomials given in ascending-degree coefficient
/// order; `C` must be `A + B − 1`.
fn poly_mul<const A: usize, const B: usize, const C: usize>(
    a: &[f64; A],
    b: &[f64; B],
) -> [f64; C] {
    debug_assert_eq!(C, A + B - 1);
    let mut out = [0.0; C];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] += ai * bj;
        }
    }
    out
}

/// Adds polynomial `b` (scaled by `s`) into `a`, which must be at least as
/// long.
fn poly_add_scaled(a: &mut [f64], b: &[f64], s: f64) {
    for (ai, &bi) in a.iter_mut().zip(b) {
        *ai += s * bi;
    }
}

/// Solves the perspective-three-point problem (Grunert, 1841).
///
/// * `world` — three 3-D points in world coordinates.
/// * `bearings` — the corresponding **unit** bearing vectors in the camera
///   frame (use [`PinholeCamera::bearing`] + normalization).
///
/// Returns up to four camera poses `T` such that the camera at `T` (world →
/// camera convention, `p_cam = R p_world + t`) observes the three points
/// along the given bearings. Degenerate configurations (collinear points,
/// coincident bearings) yield an empty vector. Grunert's quartic is solved
/// in closed form ([`real_roots`]: Ferrari's method, or Cardano's when its
/// leading coefficient vanishes).
///
/// # Examples
///
/// ```
/// use eslam_geometry::{pnp::solve_p3p, Se3, Vec3};
/// let world = [Vec3::new(0.0,0.0,4.0), Vec3::new(1.0,0.0,5.0), Vec3::new(0.0,1.0,4.5)];
/// let truth = Se3::identity();
/// let bearings: Vec<Vec3> = world.iter()
///     .map(|&p| truth.transform(p).normalized().unwrap())
///     .collect();
/// let poses = solve_p3p(&world, &[bearings[0], bearings[1], bearings[2]]);
/// assert!(poses.iter().any(|t| (t.translation - truth.translation).norm() < 1e-6));
/// ```
pub fn solve_p3p(world: &[Vec3; 3], bearings: &[Vec3; 3]) -> Vec<Se3> {
    solve_p3p_with(world, bearings, real_roots)
}

/// [`solve_p3p`] with the real roots of Grunert's quartic (descending
/// coefficients) found by `roots`.
fn solve_p3p_with(
    world: &[Vec3; 3],
    bearings: &[Vec3; 3],
    roots: impl Fn(&[f64]) -> Vec<f64>,
) -> Vec<Se3> {
    let f = match (
        bearings[0].normalized(),
        bearings[1].normalized(),
        bearings[2].normalized(),
    ) {
        (Some(f0), Some(f1), Some(f2)) => [f0, f1, f2],
        _ => return vec![],
    };

    // Side lengths of the world triangle.
    let a = (world[1] - world[2]).norm(); // opposite P1
    let b = (world[0] - world[2]).norm(); // opposite P2
    let c = (world[0] - world[1]).norm(); // opposite P3
    if a < 1e-9 || b < 1e-9 || c < 1e-9 {
        return vec![];
    }

    // Angles between bearing pairs.
    let cos_alpha = f[1].dot(f[2]);
    let cos_beta = f[0].dot(f[2]);
    let cos_gamma = f[0].dot(f[1]);

    let (a2, b2, c2) = (a * a, b * b, c * c);
    let big_a = a2 / b2;
    let big_b = c2 / b2;
    let p = 2.0 * cos_alpha;
    let q = 2.0 * cos_beta;
    let r = 2.0 * cos_gamma;

    // With s2 = u s1, s3 = v s1 the law-of-cosines system reduces to
    //   u(v) = N(v) / L(v),   L = r − p v,
    //   N = (A − 1 − B) v² + q (B − A) v + (A + 1 − B),
    // and the quartic g(v) = L² + N² − r N L − B (v² − q v + 1) L² = 0.
    let l = [r, -p]; // ascending: r − p v
    let n = [
        big_a + 1.0 - big_b,
        q * (big_b - big_a),
        big_a - 1.0 - big_b,
    ];
    let m = [1.0, -q, 1.0]; // 1 − q v + v²

    let l2: [f64; 3] = poly_mul(&l, &l);
    let n2: [f64; 5] = poly_mul(&n, &n);
    let nl: [f64; 4] = poly_mul(&n, &l);
    let ml2: [f64; 5] = poly_mul(&m, &l2);

    let mut g = [l2[0], l2[1], l2[2], 0.0, 0.0];
    poly_add_scaled(&mut g, &n2, 1.0);
    poly_add_scaled(&mut g, &nl, -r);
    poly_add_scaled(&mut g, &ml2, -big_b);

    // The root finder expects descending order.
    g.reverse();
    let mut lead = 0;
    while lead < g.len() - 1 && g[lead].abs() < 1e-12 {
        lead += 1;
    }

    let mut poses = Vec::new();
    for v in roots(&g[lead..]) {
        if v <= 1e-9 {
            continue;
        }
        let lv = r - p * v;
        let u = if lv.abs() > 1e-9 {
            (n[2] * v * v + n[1] * v + n[0]) / lv
        } else {
            // L(v) ≈ 0: recover u from equation (ii) directly:
            // 1 + u² − u r = B (1 + v² − v q)  →  quadratic in u.
            let rhs = big_b * (1.0 + v * v - v * q);
            let disc = r * r - 4.0 * (1.0 - rhs);
            if disc < 0.0 {
                continue;
            }
            (r + disc.sqrt()) / 2.0
        };
        if u <= 1e-9 {
            continue;
        }
        let denom = 1.0 + v * v - v * q;
        if denom <= 1e-12 {
            continue;
        }
        let s1 = (b2 / denom).sqrt();
        let s2 = u * s1;
        let s3 = v * s1;

        // Camera-frame points, then absolute orientation for the pose.
        let cam_pts = [f[0] * s1, f[1] * s2, f[2] * s3];
        if let Some(alignment) = align_rigid(world.as_slice(), cam_pts.as_slice()) {
            if alignment.rmse < 1e-4 * (1.0 + b) {
                poses.push(alignment.transform);
            }
        }
    }
    poses
}

/// A robust PnP estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PnpResult {
    /// The estimated camera pose (world → camera).
    pub pose: Se3,
    /// Indices of correspondences consistent with the pose.
    pub inliers: Vec<usize>,
    /// RANSAC iterations executed.
    pub ransac_iterations: usize,
    /// RMS reprojection error over the inliers, in pixels.
    pub reprojection_rmse: f64,
}

/// Parameters for [`solve_pnp_ransac`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PnpParams {
    /// RANSAC configuration. `threshold` is the inlier reprojection error
    /// in pixels.
    pub ransac: RansacParams,
}

impl Default for PnpParams {
    fn default() -> Self {
        PnpParams {
            ransac: RansacParams {
                max_iterations: 300,
                threshold: 3.0,
                min_inliers: 8,
                confidence: 0.99,
                seed: 0xe51a,
            },
        }
    }
}

/// Estimates the camera pose from 3-D/2-D correspondences with
/// P3P + RANSAC, then polishes it on the inliers with
/// Levenberg–Marquardt ([`optimize_pose`]) and re-classifies the inliers
/// under the polished pose.
///
/// * `world` — 3-D map points in world coordinates.
/// * `pixels` — observed pixel positions of the same points in the current
///   frame.
///
/// Returns `None` when fewer than 4 correspondences are supplied or no
/// consensus of at least `params.ransac.min_inliers` is found.
pub fn solve_pnp_ransac(
    world: &[Vec3],
    pixels: &[Vec2],
    camera: &PinholeCamera,
    params: &PnpParams,
) -> Option<PnpResult> {
    if world.len() != pixels.len() || world.len() < 4 {
        return None;
    }
    let bearings: Vec<Vec3> = pixels
        .iter()
        .map(|&uv| camera.bearing(uv).normalized().unwrap_or(Vec3::Z))
        .collect();

    let reproj_error = |pose: &Se3, i: usize| -> f64 {
        match camera.project(pose.transform(world[i])) {
            Some(uv) => (uv - pixels[i]).norm(),
            None => f64::INFINITY,
        }
    };

    let result: RansacResult<Se3> = ransac(
        world.len(),
        3,
        &params.ransac,
        |idx| {
            let w = [world[idx[0]], world[idx[1]], world[idx[2]]];
            let f = [bearings[idx[0]], bearings[idx[1]], bearings[idx[2]]];
            solve_p3p(&w, &f)
        },
        reproj_error,
    )?;

    let mut pose = result.model;
    let mut inliers = result.inliers;

    if inliers.len() >= 4 {
        let in_world: Vec<Vec3> = inliers.iter().map(|&i| world[i]).collect();
        let in_pixels: Vec<Vec2> = inliers.iter().map(|&i| pixels[i]).collect();
        let lm = optimize_pose(&pose, &in_world, &in_pixels, camera, &LmParams::default());
        pose = lm.pose;
        // Re-classify inliers under the polished pose.
        inliers = (0..world.len())
            .filter(|&i| reproj_error(&pose, i) < params.ransac.threshold)
            .collect();
    }

    let sq_sum: f64 = inliers
        .iter()
        .map(|&i| {
            let e = reproj_error(&pose, i);
            e * e
        })
        .sum();
    let rmse = if inliers.is_empty() {
        f64::INFINITY
    } else {
        (sq_sum / inliers.len() as f64).sqrt()
    };

    Some(PnpResult {
        pose,
        inliers,
        ransac_iterations: result.iterations,
        reprojection_rmse: rmse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{poly_eval_derivative, real_roots_reference};
    use crate::quaternion::Quaternion;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    fn make_scene(seed: u64, n: usize) -> (Vec<Vec3>, Se3, PinholeCamera, Vec<Vec2>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let camera = PinholeCamera::tum_fr1();
        let truth = Se3::from_quaternion_translation(
            &Quaternion::from_axis_angle(
                Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()),
                rng.gen::<f64>() * 0.5,
            ),
            Vec3::new(
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() * 0.3,
            ),
        );
        let mut world = Vec::new();
        let mut pixels = Vec::new();
        while world.len() < n {
            let p = Vec3::new(
                (rng.gen::<f64>() - 0.5) * 4.0,
                (rng.gen::<f64>() - 0.5) * 3.0,
                2.0 + rng.gen::<f64>() * 4.0,
            );
            if let Some(uv) = camera.project(truth.transform(p)) {
                if camera.in_bounds(uv, 1.0) {
                    world.push(p);
                    pixels.push(uv);
                }
            }
        }
        (world, truth, camera, pixels)
    }

    #[test]
    fn p3p_recovers_identity_pose() {
        let world = [
            Vec3::new(-0.5, -0.3, 3.0),
            Vec3::new(0.7, 0.1, 4.0),
            Vec3::new(0.0, 0.6, 3.5),
        ];
        let truth = Se3::identity();
        let bearings = [
            truth.transform(world[0]).normalized().unwrap(),
            truth.transform(world[1]).normalized().unwrap(),
            truth.transform(world[2]).normalized().unwrap(),
        ];
        let poses = solve_p3p(&world, &bearings);
        assert!(!poses.is_empty());
        assert!(poses.iter().any(|t| t.translation.norm() < 1e-6
            && (t.rotation - crate::Mat3::identity()).frobenius_norm() < 1e-6));
    }

    #[test]
    fn p3p_recovers_general_pose() {
        for seed in 0..10u64 {
            let (world, truth, _cam, _pix) = make_scene(seed, 3);
            let w = [world[0], world[1], world[2]];
            let bearings = [
                truth.transform(w[0]).normalized().unwrap(),
                truth.transform(w[1]).normalized().unwrap(),
                truth.transform(w[2]).normalized().unwrap(),
            ];
            let poses = solve_p3p(&w, &bearings);
            assert!(
                poses
                    .iter()
                    .any(|t| (t.translation - truth.translation).norm() < 1e-5
                        && (t.rotation - truth.rotation).frobenius_norm() < 1e-5),
                "seed {seed}: no pose matched truth among {}",
                poses.len()
            );
        }
    }

    fn same_pose(a: &Se3, b: &Se3, tol: f64) -> bool {
        (a.translation - b.translation).norm() < tol
            && (a.rotation - b.rotation).frobenius_norm() < tol
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn p3p_matches_the_reference_on_random_triples(seed in any::<u64>()) {
            let (world, truth, _cam, _pix) = make_scene(seed, 3);
            let w = [world[0], world[1], world[2]];
            let bearings = w.map(|p| truth.transform(p).normalized().unwrap());
            let poses = solve_p3p(&w, &bearings);

            // The same solve with Durand–Kerner behind it, keeping the
            // quartic and its real roots to judge their conditioning.
            let quartic = RefCell::new((Vec::new(), Vec::new()));
            let reference = solve_p3p_with(&w, &bearings, |g| {
                let roots = real_roots_reference(g);
                quartic.replace((g.to_vec(), roots.clone()));
                roots
            });
            // Where the reference recovers the truth, so does the closed
            // form: to 1e-5 on well-conditioned triples (below), and to
            // 1e-3 where a near-double root leaves its place uncertain.
            let found = |tol| poses.iter().any(|t| same_pose(t, &truth, tol));
            prop_assert!(
                found(1e-3) || !reference.iter().any(|t| same_pose(t, &truth, 1e-5)),
                "seed {seed}: the reference recovers the truth, the closed form does not"
            );

            // Well conditioned: rounding the quartic's coefficients moves
            // none of its real roots by more than ~1e-13, and neither the
            // bearings nor the world triangle have an angle under 5°. Then
            // both root finders must give the same poses to far below 1e-9.
            // (Where two real roots nearly meet, both can miss the truth's
            // rmse gate; on a needle triangle, `align_rigid` moved a pose
            // by 2e-8 for a one-ulp change in its root.)
            let (g, v) = quartic.into_inner();
            prop_assume!(v.iter().all(|&x| {
                let magnitude = g.iter().fold(0.0, |acc, c| acc * x.abs() + c.abs());
                f64::EPSILON * magnitude < 1e-13 * poly_eval_derivative(&g, x).abs()
            }));
            let min_angle = (5.0f64).to_radians();
            let angle = |a: Vec3, b: Vec3| a.dot(b).clamp(-1.0, 1.0).acos();
            let corner = |i: usize, j: usize, k: usize| {
                angle((w[j] - w[i]).normalized().unwrap(), (w[k] - w[i]).normalized().unwrap())
            };
            prop_assume!([(0, 1), (0, 2), (1, 2)]
                .iter()
                .all(|&(i, j)| angle(bearings[i], bearings[j]) > min_angle));
            prop_assume!([corner(0, 1, 2), corner(1, 0, 2), corner(2, 0, 1)]
                .iter()
                .all(|&a| a > min_angle));
            prop_assert!(found(1e-5), "seed {seed}: no pose matched truth among {}", poses.len());
            prop_assert_eq!(poses.len(), reference.len(), "seed {}", seed);
            for (a, b) in poses.iter().zip(&reference) {
                prop_assert!(same_pose(a, b, 1e-9), "seed {seed}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn p3p_rejects_collinear_points() {
        let world = [
            Vec3::new(0.0, 0.0, 3.0),
            Vec3::new(0.5, 0.0, 3.0),
            Vec3::new(1.0, 0.0, 3.0),
        ];
        let bearings = [
            world[0].normalized().unwrap(),
            world[1].normalized().unwrap(),
            world[2].normalized().unwrap(),
        ];
        // Collinear points give a degenerate alignment; no pose or garbage
        // pose should never panic.
        let _ = solve_p3p(&world, &bearings);
    }

    #[test]
    fn pnp_ransac_clean_data() {
        let (world, truth, camera, pixels) = make_scene(100, 60);
        let res = solve_pnp_ransac(&world, &pixels, &camera, &PnpParams::default()).unwrap();
        assert!(res.inliers.len() >= 55);
        assert!((res.pose.translation - truth.translation).norm() < 1e-4);
        assert!((res.pose.rotation - truth.rotation).frobenius_norm() < 1e-4);
        assert!(res.reprojection_rmse < 0.1);
    }

    #[test]
    fn pnp_ransac_with_outliers() {
        let (mut world, truth, camera, mut pixels) = make_scene(7, 80);
        let mut rng = SmallRng::seed_from_u64(99);
        // Corrupt 30% of the matches.
        for i in 0..24 {
            let j = i * 3;
            pixels[j] = Vec2::new(rng.gen::<f64>() * 640.0, rng.gen::<f64>() * 480.0);
        }
        // Also add some wildly wrong world points.
        for _ in 0..5 {
            world.push(Vec3::new(100.0, -50.0, 30.0));
            pixels.push(Vec2::new(
                rng.gen::<f64>() * 640.0,
                rng.gen::<f64>() * 480.0,
            ));
        }
        let res = solve_pnp_ransac(&world, &pixels, &camera, &PnpParams::default()).unwrap();
        assert!(
            (res.pose.translation - truth.translation).norm() < 1e-3,
            "translation error {}",
            (res.pose.translation - truth.translation).norm()
        );
        assert!(res.inliers.len() >= 50);
    }

    #[test]
    fn pnp_requires_enough_points() {
        let camera = PinholeCamera::tum_fr1();
        let world = vec![Vec3::new(0.0, 0.0, 2.0); 3];
        let pixels = vec![Vec2::new(320.0, 240.0); 3];
        assert!(solve_pnp_ransac(&world, &pixels, &camera, &PnpParams::default()).is_none());
    }

    #[test]
    fn pnp_with_pixel_noise() {
        let (world, truth, camera, mut pixels) = make_scene(55, 100);
        let mut rng = SmallRng::seed_from_u64(123);
        for uv in pixels.iter_mut() {
            uv.x += (rng.gen::<f64>() - 0.5) * 1.0;
            uv.y += (rng.gen::<f64>() - 0.5) * 1.0;
        }
        let res = solve_pnp_ransac(&world, &pixels, &camera, &PnpParams::default()).unwrap();
        assert!(
            (res.pose.translation - truth.translation).norm() < 0.02,
            "translation error {}",
            (res.pose.translation - truth.translation).norm()
        );
        let rot_err = (res.pose.rotation - truth.rotation).frobenius_norm();
        assert!(rot_err < 0.02, "rotation error {rot_err}");
    }
}
