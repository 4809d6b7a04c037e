//! Criterion bench: the geometric back-end — P3P, PnP-RANSAC and the
//! Levenberg-Marquardt pose optimizer (the PE and PO stages the paper
//! keeps on the ARM host).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eslam_geometry::lm::{optimize_pose, LmParams};
use eslam_geometry::pnp::{solve_p3p, solve_pnp_ransac, PnpParams};
use eslam_geometry::{PinholeCamera, Quaternion, Se3, Vec2, Vec3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn scene(seed: u64, n: usize) -> (Vec<Vec3>, Se3, PinholeCamera, Vec<Vec2>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let camera = PinholeCamera::tum_fr1();
    let truth = Se3::from_quaternion_translation(
        &Quaternion::from_axis_angle(Vec3::new(0.3, 1.0, 0.2), 0.2),
        Vec3::new(0.1, -0.05, 0.15),
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

fn bench_p3p(c: &mut Criterion) {
    let (world, truth, _, _) = scene(1, 3);
    let w = [world[0], world[1], world[2]];
    let f = [
        truth.transform(w[0]).normalized().unwrap(),
        truth.transform(w[1]).normalized().unwrap(),
        truth.transform(w[2]).normalized().unwrap(),
    ];
    c.bench_function("pose/p3p_minimal", |b| {
        b.iter(|| black_box(solve_p3p(&w, &f)))
    });
}

/// P3P as RANSAC meets it in relocalization: 300 seeded minimal samples
/// from a 332-correspondence scene with 80% outliers. Most triples are not
/// a consistent view, so the quartics are far less tame than
/// `pose/p3p_minimal`'s single exact triple.
fn bench_p3p_ransac_draws(c: &mut Criterion) {
    const MATCHES: usize = 332;
    let (world, _, camera, mut pixels) = scene(4, MATCHES);
    let mut rng = SmallRng::seed_from_u64(5);
    for uv in pixels.iter_mut().take(MATCHES * 4 / 5) {
        *uv = Vec2::new(rng.gen::<f64>() * 640.0, rng.gen::<f64>() * 480.0);
    }
    let bearings: Vec<Vec3> = pixels
        .iter()
        .map(|&uv| camera.bearing(uv).normalized().unwrap())
        .collect();
    let triples: Vec<[usize; 3]> = (0..300)
        .map(|_| loop {
            let t: [usize; 3] = std::array::from_fn(|_| rng.gen_range(0..MATCHES));
            if t[0] != t[1] && t[0] != t[2] && t[1] != t[2] {
                break t;
            }
        })
        .collect();
    c.bench_function("pose/p3p_ransac_draws", |b| {
        b.iter(|| {
            for t in &triples {
                black_box(solve_p3p(&t.map(|i| world[i]), &t.map(|i| bearings[i])));
            }
        })
    });
}

fn bench_pnp_ransac(c: &mut Criterion) {
    let mut group = c.benchmark_group("pose/pnp_ransac");
    group.sample_size(20);
    for n in [50usize, 200, 500] {
        let (world, _, camera, pixels) = scene(2, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(solve_pnp_ransac(
                    &world,
                    &pixels,
                    &camera,
                    &PnpParams::default(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_lm(c: &mut Criterion) {
    let mut group = c.benchmark_group("pose/lm_optimize");
    for n in [50usize, 200, 500] {
        let (world, _, camera, pixels) = scene(3, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(optimize_pose(
                    &Se3::identity(),
                    &world,
                    &pixels,
                    &camera,
                    &LmParams::default(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_p3p,
    bench_p3p_ransac_draws,
    bench_pnp_ransac,
    bench_lm
);
criterion_main!(benches);
