//! Geometry substrate for the eSLAM reproduction.
//!
//! This crate provides every piece of numerical geometry the ORB-SLAM
//! pipeline of the paper needs, implemented from scratch on fixed-size
//! types (no heap allocation on the hot paths):
//!
//! * [`Vec2`]/[`Vec3`]/[`Vec6`], [`Mat3`]/[`Mat6`] — small linear algebra
//!   with LU inverse, Cholesky solve and a Jacobi symmetric eigen-solver;
//! * [`Quaternion`] and [`Se3`] — rotation/pose representations with
//!   exponential and logarithm maps for manifold optimization;
//! * [`PinholeCamera`] — the TUM Kinect camera model;
//! * [`ransac`] — a generic, seeded RANSAC loop (the paper's mismatch
//!   rejection, §2.1);
//! * [`pnp`] — Grunert P3P and the full robust PnP pipeline (the paper's
//!   *pose estimation* stage);
//! * [`lm`] — Levenberg-Marquardt reprojection-error minimization (the
//!   paper's *pose optimization* stage, Eq. 1), with an optional
//!   motion-prior regularizer;
//! * [`ba`] — windowed local bundle adjustment: joint pose + landmark
//!   refinement by sparse Schur-complement Levenberg-Marquardt (the
//!   keyframe backend's solver);
//! * [`align`] — Kabsch/Umeyama point-set alignment, used by P3P and the
//!   ATE trajectory-error metric of Fig. 8.
//!
//! # Examples
//!
//! Estimating a camera pose from 3-D/2-D matches, then polishing it:
//!
//! ```
//! use eslam_geometry::{PinholeCamera, Se3, Vec3, pnp::{solve_pnp_ransac, PnpParams}};
//!
//! let camera = PinholeCamera::tum_fr1();
//! let truth = Se3::from_translation(Vec3::new(0.05, 0.0, 0.1));
//! // A synthetic set of map points observed by the camera at `truth`.
//! let world: Vec<Vec3> = (0..40)
//!     .map(|i| Vec3::new(((i * 7) % 13) as f64 * 0.2 - 1.2,
//!                        ((i * 5) % 11) as f64 * 0.2 - 1.0,
//!                        2.0 + ((i * 3) % 7) as f64 * 0.4))
//!     .collect();
//! let pixels: Vec<_> = world.iter()
//!     .filter_map(|&p| camera.project(truth.transform(p)))
//!     .collect();
//! let estimate = solve_pnp_ransac(&world, &pixels, &camera, &PnpParams::default())
//!     .expect("consensus");
//! assert!((estimate.pose.translation - truth.translation).norm() < 1e-4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod align;
pub mod ba;
pub mod camera;
pub mod lm;
pub mod matrix;
pub mod pnp;
pub mod poly;
pub mod pose_graph;
pub mod quaternion;
pub mod ransac;
pub mod robust;
pub mod se3;
pub mod vector;

pub use camera::PinholeCamera;
pub use matrix::{Mat3, Mat6, Vec6};
pub use quaternion::Quaternion;
pub use se3::Se3;
pub use vector::{Vec2, Vec3};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_f64() -> impl Strategy<Value = f64> {
        -3.0..3.0f64
    }

    proptest! {
        #[test]
        fn se3_exp_log_round_trip(
            tx in small_f64(), ty in small_f64(), tz in small_f64(),
            wx in -1.5..1.5f64, wy in -1.5..1.5f64, wz in -1.5..1.5f64,
        ) {
            let xi = Vec6::from_parts(Vec3::new(tx, ty, tz), Vec3::new(wx, wy, wz));
            let t = Se3::exp(&xi);
            let back = t.log();
            for i in 0..6 {
                prop_assert!((back[i] - xi[i]).abs() < 1e-8,
                    "component {} differs: {} vs {}", i, back[i], xi[i]);
            }
        }

        #[test]
        fn quaternion_rotation_preserves_norm(
            ax in small_f64(), ay in small_f64(), az in small_f64(),
            angle in -3.0..3.0f64,
            px in small_f64(), py in small_f64(), pz in small_f64(),
        ) {
            prop_assume!(Vec3::new(ax, ay, az).norm() > 1e-3);
            let q = Quaternion::from_axis_angle(Vec3::new(ax, ay, az), angle);
            let p = Vec3::new(px, py, pz);
            let r = q.rotate(p);
            prop_assert!((r.norm() - p.norm()).abs() < 1e-9);
        }

        #[test]
        fn rotation_matrices_compose_like_quaternions(
            a1 in small_f64(), a2 in small_f64(), a3 in small_f64(),
            b1 in small_f64(), b2 in small_f64(), b3 in small_f64(),
        ) {
            prop_assume!(Vec3::new(a1, a2, a3).norm() > 1e-3);
            prop_assume!(Vec3::new(b1, b2, b3).norm() > 1e-3);
            let qa = Quaternion::from_rotation_vector(Vec3::new(a1, a2, a3));
            let qb = Quaternion::from_rotation_vector(Vec3::new(b1, b2, b3));
            let m = qa.mul(&qb).to_matrix();
            let m2 = qa.to_matrix() * qb.to_matrix();
            prop_assert!((m - m2).frobenius_norm() < 1e-9);
        }

        #[test]
        fn mat3_inverse_consistency(
            a in small_f64(), b in small_f64(), c in small_f64(),
            d in small_f64(), e in small_f64(), f in small_f64(),
            g in small_f64(), h in small_f64(), i in small_f64(),
        ) {
            let m = Mat3 { m: [[a+4.0, b, c], [d, e+4.0, f], [g, h, i+4.0]] };
            // Diagonally dominated, hence invertible.
            if let Some(inv) = m.inverse() {
                prop_assert!(((m * inv) - Mat3::identity()).frobenius_norm() < 1e-7);
            }
        }

        #[test]
        fn camera_project_unproject_round_trip(
            x in -1.5..1.5f64, y in -1.0..1.0f64, z in 0.5..8.0f64,
        ) {
            let cam = PinholeCamera::tum_fr1();
            let p = Vec3::new(x, y, z);
            let uv = cam.project(p).unwrap();
            let back = cam.unproject(uv, z);
            prop_assert!((back - p).norm() < 1e-9);
        }

        #[test]
        fn symmetric_eigen_reconstructs(
            a in small_f64(), b in small_f64(), c in small_f64(),
            d in small_f64(), e in small_f64(), f in small_f64(),
        ) {
            let m = Mat3 { m: [[a, b, c], [b, d, e], [c, e, f]] };
            let (vals, vecs) = m.symmetric_eigen();
            let d_mat = Mat3::from_diagonal(vals);
            let reconstructed = vecs * d_mat * vecs.transpose();
            prop_assert!((reconstructed - m).frobenius_norm() < 1e-7);
        }
    }
}
