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

/// Reprojection error, in pixels, of the world point `world` under
/// `pose` against its observed `pixel`; infinite for a point at or
/// behind the camera plane, which [`PinholeCamera::project`] rejects.
fn reprojection_error(camera: &PinholeCamera, pose: &Se3, world: Vec3, pixel: Vec2) -> f64 {
    match camera.project(pose.transform(world)) {
        Some(uv) => (uv - pixel).norm(),
        None => f64::INFINITY,
    }
}

/// `f64` lanes of one [`Correspondences`] block.
const LANES: usize = 4;

/// 3-D/2-D correspondences as structure-of-arrays (world x/y/z, pixel
/// u/v) in blocks of [`LANES`], laid out once per [`solve_pnp_ransac`]
/// call for the count-only RANSAC scorer. The last block is padded with
/// NaN world points, which never count: their camera-frame `z` is NaN,
/// and NaN is not greater than the cut-off.
struct Correspondences {
    blocks: Vec<Block>,
}

/// [`LANES`] correspondences, one per lane.
struct Block {
    x: [f64; LANES],
    y: [f64; LANES],
    z: [f64; LANES],
    u: [f64; LANES],
    v: [f64; LANES],
}

impl Correspondences {
    fn new(world: &[Vec3], pixels: &[Vec2]) -> Correspondences {
        let blocks = world
            .chunks(LANES)
            .zip(pixels.chunks(LANES))
            .map(|(world, pixels)| {
                let mut block = Block {
                    x: [f64::NAN; LANES],
                    y: [f64::NAN; LANES],
                    z: [f64::NAN; LANES],
                    u: [f64::NAN; LANES],
                    v: [f64::NAN; LANES],
                };
                for (lane, (p, uv)) in world.iter().zip(pixels).enumerate() {
                    (block.x[lane], block.y[lane], block.z[lane]) = (p.x, p.y, p.z);
                    (block.u[lane], block.v[lane]) = (uv.x, uv.y);
                }
                block
            })
            .collect();
        Correspondences { blocks }
    }

    /// The number of correspondences whose [`reprojection_error`] under
    /// `pose` is below `threshold`. Runs the AVX2 instance of the scorer
    /// loop where the CPU has AVX2 and the baseline instance elsewhere.
    fn count_inliers(&self, camera: &PinholeCamera, pose: &Se3, threshold: f64) -> usize {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on this CPU.
            return unsafe { self.count_inliers_avx2(camera, pose, threshold) };
        }
        self.count_inliers_baseline(camera, pose, threshold)
    }

    /// The scorer loop compiled for the target's baseline features: the
    /// only instance on hosts without AVX2.
    fn count_inliers_baseline(&self, camera: &PinholeCamera, pose: &Se3, threshold: f64) -> usize {
        self.scorer_loop(camera, pose, threshold)
    }

    /// The scorer loop compiled with AVX2 enabled: the same source as
    /// [`Self::count_inliers_baseline`], one block per 4-lane step.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn count_inliers_avx2(&self, camera: &PinholeCamera, pose: &Se3, threshold: f64) -> usize {
        self.scorer_loop(camera, pose, threshold)
    }

    /// The scorer loop, inlined into each compiled instance. Per lane it
    /// keeps [`reprojection_error`]'s operation order — each rotation
    /// row's dot product `(r0·x + r1·y) + r2·z`, then the translation;
    /// `fx·x / z + cx`; `sqrt(du² + dv²)` — without FMA, so every error
    /// is bit-identical to it. `z > 1e-9` is [`PinholeCamera::project`]'s
    /// test as a lane mask: a point it rejects has an infinite error,
    /// below no threshold.
    #[inline(always)]
    fn scorer_loop(&self, camera: &PinholeCamera, pose: &Se3, threshold: f64) -> usize {
        let [r0, r1, r2] = pose.rotation.m;
        let t = pose.translation;
        let mut counts = [0u64; LANES];
        for b in &self.blocks {
            for (lane, count) in counts.iter_mut().enumerate() {
                let (x, y, z) = (b.x[lane], b.y[lane], b.z[lane]);
                let cx = r0[0] * x + r0[1] * y + r0[2] * z + t.x;
                let cy = r1[0] * x + r1[1] * y + r1[2] * z + t.y;
                let cz = r2[0] * x + r2[1] * y + r2[2] * z + t.z;
                let du = camera.fx * cx / cz + camera.cx - b.u[lane];
                let dv = camera.fy * cy / cz + camera.cy - b.v[lane];
                let error = (du * du + dv * dv).sqrt();
                *count += u64::from((cz > 1e-9) & (error < threshold));
            }
        }
        counts.iter().sum::<u64>() as usize
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
/// RANSAC scores each hypothesis by its inlier count alone, over the
/// correspondences laid out once as structure-of-arrays: one scalar loop
/// compiled for the baseline and for AVX2, whose count equals the
/// reprojection-error filter bit for bit. The adopted hypothesis
/// collects its inliers through that error.
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

    let reproj_error =
        |pose: &Se3, i: usize| -> f64 { reprojection_error(camera, pose, world[i], pixels[i]) };
    let correspondences = Correspondences::new(world, pixels);
    let threshold = params.ransac.threshold;

    let result: RansacResult<Se3> = ransac(
        world.len(),
        3,
        &params.ransac,
        |idx| {
            let w = [world[idx[0]], world[idx[1]], world[idx[2]]];
            let f = [bearings[idx[0]], bearings[idx[1]], bearings[idx[2]]];
            solve_p3p(&w, &f)
        },
        |pose| correspondences.count_inliers(camera, pose, threshold),
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

    Some(PnpResult {
        pose,
        inliers,
        ransac_iterations: result.iterations,
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

    /// A correspondence for the scorer proptest: a world point and its
    /// pixel, one of `kind`'s edge cases or an ordinary point seen by the
    /// camera at `pose`, its pixel moved by up to ±6 px.
    fn scorer_case(rng: &mut SmallRng, kind: u8, pose: &Se3) -> (Vec3, Vec2) {
        let camera = PinholeCamera::tum_fr1();
        let cam = Vec3::new(
            (rng.gen::<f64>() - 0.5) * 3.0,
            (rng.gen::<f64>() - 0.5) * 2.0,
            1.0 + rng.gen::<f64>() * 5.0,
        );
        let world = pose.inverse().transform(cam);
        let pixel = camera.project(cam).unwrap()
            + Vec2::new(
                (rng.gen::<f64>() - 0.5) * 12.0,
                (rng.gen::<f64>() - 0.5) * 12.0,
            );
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
        match kind {
            // Behind the camera.
            0 => (
                pose.inverse().transform(Vec3::new(cam.x, cam.y, -cam.z)),
                pixel,
            ),
            // On the camera plane's cut-off, and just past it (exact in
            // camera coordinates under the identity pose).
            1 => (Vec3::new(cam.x, cam.y, 1e-9), pixel),
            2 => (
                Vec3::new(cam.x, cam.y, f64::from_bits(1e-9f64.to_bits() + 1)),
                pixel,
            ),
            // A NaN or infinite world coordinate or pixel.
            3 => (Vec3::new(special, world.y, world.z), pixel),
            4 => (Vec3::new(world.x, world.y, special), pixel),
            5 => (world, Vec2::new(pixel.x, special)),
            _ => (world, pixel),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both compiled instances of the count-only scorer count the
        /// correspondences whose reprojection error is below the
        /// threshold, for 0–13 correspondences and for the same set
        /// repeated past the vector width: points behind the camera, at
        /// and just past `z = 1e-9`, NaN and infinite coordinates, and
        /// thresholds an error lands on exactly, infinite or NaN.
        #[test]
        fn scorer_instances_count_like_the_reprojection_filter(
            seed in any::<u64>(),
            n in 0usize..14,
            identity in any::<bool>(),
            threshold_kind in 0usize..4,
            on in 0usize..14,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let camera = PinholeCamera::tum_fr1();
            let pose = if identity {
                Se3::identity()
            } else {
                make_scene(seed, 1).1
            };
            let (world, pixels): (Vec<Vec3>, Vec<Vec2>) = (0..n)
                .map(|_| {
                    let kind = rng.gen_range(0..12u8);
                    scorer_case(&mut rng, kind, &pose)
                })
                .unzip();
            let error = |i: usize| reprojection_error(&camera, &pose, world[i], pixels[i]);
            let threshold = match threshold_kind {
                // An error landing on the threshold counts as an outlier.
                0 if on < n => error(on),
                1 => f64::INFINITY,
                2 => f64::NAN,
                _ => 3.0,
            };
            for copies in [1usize, 7] {
                let world: Vec<Vec3> = world.iter().copied().cycle().take(n * copies).collect();
                let pixels: Vec<Vec2> = pixels.iter().copied().cycle().take(n * copies).collect();
                let expect = (0..world.len())
                    .filter(|&i| reprojection_error(&camera, &pose, world[i], pixels[i]) < threshold)
                    .count();
                let scorer = Correspondences::new(&world, &pixels);
                prop_assert_eq!(
                    scorer.count_inliers_baseline(&camera, &pose, threshold),
                    expect,
                    "baseline, {} correspondences, threshold {}",
                    world.len(),
                    threshold
                );
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 was detected on this CPU.
                    let avx2 = unsafe { scorer.count_inliers_avx2(&camera, &pose, threshold) };
                    prop_assert_eq!(
                        avx2,
                        expect,
                        "avx2, {} correspondences, threshold {}",
                        world.len(),
                        threshold
                    );
                }
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
        let worst = res
            .inliers
            .iter()
            .map(|&i| reprojection_error(&camera, &res.pose, world[i], pixels[i]))
            .fold(0.0, f64::max);
        assert!(worst < 0.1, "largest inlier reprojection error {worst} px");
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
