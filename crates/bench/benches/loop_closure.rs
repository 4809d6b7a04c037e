//! Criterion bench: the loop-closure pipeline — BoW candidate retrieval
//! (`loop_closure/bow_query`, tracked by the bench-regression gate)
//! versus the brute-force fallback it replaces, and the Se(3)
//! pose-graph solve (`loop_closure/pose_graph`, also tracked) at a
//! realistic loop-correction problem size.

use criterion::{criterion_group, criterion_main, Criterion};
use eslam_features::bow::{BowParams, BowVector, Vocabulary};
use eslam_features::matcher::{active_kernel, match_mutual_with_kernel};
use eslam_features::Descriptor;
use eslam_geometry::pose_graph::{optimize_pose_graph, PoseGraphEdge, PoseGraphParams};
use eslam_geometry::{Se3, Vec3};
use std::hint::black_box;

/// Deterministic pseudo-random descriptor stream (keyframe appearance).
fn descriptors(count: usize, salt: u64) -> Vec<Descriptor> {
    (0..count)
        .map(|i| {
            let mut state = salt
                .wrapping_add(i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut words = [0u64; 4];
            for w in &mut words {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *w = state;
            }
            Descriptor::from_words(words)
        })
        .collect()
}

/// Candidate retrieval at production shape: a 40-keyframe store of
/// 512-descriptor keyframes, queried by a fresh 512-descriptor frame.
fn bench_candidate_retrieval(c: &mut Criterion) {
    const KEYFRAMES: usize = 40;
    const PER_KEYFRAME: usize = 512;
    let stores: Vec<Vec<Descriptor>> = (0..KEYFRAMES)
        .map(|k| descriptors(PER_KEYFRAME, k as u64 * 977))
        .collect();
    let training: Vec<Descriptor> = stores.iter().flatten().copied().take(4096).collect();
    let vocabulary = Vocabulary::train(&training, &BowParams::default()).expect("vocabulary");
    let vectors: Vec<BowVector> = stores.iter().map(|s| vocabulary.vector_of(s)).collect();
    let query = descriptors(PER_KEYFRAME, 31_337);

    let mut group = c.benchmark_group("loop_closure");
    group.sample_size(20);
    // The tracked entry: quantize the query frame and score it against
    // every stored keyframe's BoW vector (the inverted-index walk is
    // strictly cheaper than this dense scoring upper bound).
    group.bench_function("bow_query", |b| {
        b.iter(|| {
            let v = vocabulary.vector_of(black_box(&query));
            let best = vectors
                .iter()
                .enumerate()
                .map(|(i, kv)| (i, v.similarity(kv)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            black_box(best)
        })
    });
    // The fallback it replaces: cross-checked SIMD matching (the
    // one-pass mutual search) against every keyframe (informational —
    // shows the retrieval win).
    let kernel = active_kernel();
    group.bench_function("brute_force_retrieval", |b| {
        b.iter(|| {
            let mut best = (0usize, 0usize);
            for (i, store) in stores.iter().enumerate() {
                let n = match_mutual_with_kernel(kernel, &query, store, 64).len();
                if n > best.1 {
                    best = (i, n);
                }
            }
            black_box(best)
        })
    });
    group.finish();
}

/// One pose-graph correction at loop scale: a 40-node odometry chain
/// with sparse covisibility edges and one loop edge.
fn bench_pose_graph(c: &mut Criterion) {
    const NODES: usize = 40;
    let truth: Vec<Se3> = (0..NODES)
        .map(|i| {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / NODES as f64;
            Se3::new(
                Se3::so3_exp(Vec3::Y * -angle),
                Vec3::new(angle.cos(), 0.0, angle.sin()),
            )
            .inverse()
        })
        .collect();
    // Drifted odometry: constant creep per step.
    let creep = Se3::from_translation(Vec3::new(0.003, -0.001, 0.004));
    let mut drifted = vec![truth[0]];
    for i in 1..NODES {
        let step = truth[i].compose(&truth[i - 1].inverse());
        let prev = drifted[i - 1];
        drifted.push(creep.compose(&step).compose(&prev));
    }
    let mut edges: Vec<PoseGraphEdge> = (1..NODES)
        .map(|i| PoseGraphEdge::from_current(&drifted, i - 1, i, 1.0))
        .collect();
    for i in (0..NODES - 4).step_by(3) {
        edges.push(PoseGraphEdge::from_current(&drifted, i, i + 4, 1.0));
    }
    edges.push(PoseGraphEdge {
        from: NODES - 1,
        to: 0,
        measured: truth[0].compose(&truth[NODES - 1].inverse()),
        weight: 3.0,
    });
    let mut fixed = vec![false; NODES];
    fixed[0] = true;
    let params = PoseGraphParams::default();

    let mut group = c.benchmark_group("loop_closure");
    group.sample_size(20);
    group.bench_function("pose_graph", |b| {
        b.iter(|| {
            let mut poses = drifted.clone();
            let result = optimize_pose_graph(&mut poses, &edges, &fixed, &params);
            black_box((poses[NODES - 1], result.iterations))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_candidate_retrieval, bench_pose_graph);
criterion_main!(benches);
