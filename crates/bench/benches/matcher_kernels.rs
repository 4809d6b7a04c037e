//! Criterion bench: one matcher workload per dispatch rung of the
//! Hamming kernel ladder (scalar → popcnt → avx512), pinned via
//! [`match_brute_force_with_kernel`] so the comparison is independent of
//! which rung runtime auto-detection picks. Single-threaded by
//! construction: this measures the kernels, not the pool.
//!
//! Rungs the host CPU cannot run print a `<name>: skipped` line (on
//! stdout, where the bench-regression tool can see it) instead of a
//! timing, so the CI gate knows a missing entry is "unsupported here",
//! not "silently dropped". The bench-smoke job tracks these timings in
//! its regression baseline (see `crates/bench/src/regress.rs`).
//!
//! `matcher_mutual/<rung>` times the one-pass mutual search
//! ([`match_mutual_with_kernel`]) at the relocalization workload's shape,
//! 1,024 query descriptors against a 979-descriptor keyframe, and
//! `matcher_mutual/pooled/t2` the same search on the active rung with
//! its rows split across an owned 2-thread pool ([`match_mutual_in`]),
//! as a relocalizing session runs it. Both are informational: the
//! baseline has no entry for them, and the pooled one reads the
//! one-thread figure when other tenants hold the second core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eslam_features::matcher::{
    match_brute_force_with_kernel, match_mutual_in, match_mutual_with_kernel, MatchKernel,
};
use eslam_features::pool::WorkerPool;
use eslam_features::{Descriptor, DescriptorMatch};
use std::hint::black_box;

fn descriptors(n: usize, salt: u64) -> Vec<Descriptor> {
    (0..n)
        .map(|i| {
            let s = (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) ^ salt;
            Descriptor::from_words([
                s,
                s.rotate_left(17),
                s.rotate_left(31) ^ 0xabcdef,
                s.rotate_left(47),
            ])
        })
        .collect()
}

/// One matcher search pinned to a rung.
type Search = fn(MatchKernel, &[Descriptor], &[Descriptor], u32) -> Vec<DescriptorMatch>;

/// Runs one `group_name/<rung>` bench per supported dispatch rung,
/// printing a stdout skip marker (which `eslam_bench::regress` parses)
/// for rungs the host CPU cannot execute.
fn bench_kernel_group(
    c: &mut Criterion,
    group_name: &str,
    search: Search,
    nq: usize,
    nt: usize,
    salt: u64,
) {
    let query = descriptors(nq, salt);
    let train = descriptors(nt, salt + 1);
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for kernel in MatchKernel::ALL {
        if !kernel.is_supported() {
            println!(
                "{group_name}/{}: skipped (kernel unsupported on this CPU)",
                kernel.name()
            );
            continue;
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(kernel.name()),
            &kernel,
            |b, &kernel| b.iter(|| black_box(search(kernel, &query, &train, u32::MAX))),
        );
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    // The paper's design point: 1024 features against a 2304-point map.
    let nearest: Search = match_brute_force_with_kernel;
    bench_kernel_group(c, "matcher_kernel", nearest, 1024, 2304, 1);
}

fn bench_kernels_small_map(c: &mut Criterion) {
    // Small-map regime (bootstrap frames): reduction overhead per pair
    // weighs more here, so track it separately.
    let nearest: Search = match_brute_force_with_kernel;
    bench_kernel_group(c, "matcher_kernel_small", nearest, 512, 576, 3);
}

fn bench_mutual(c: &mut Criterion) {
    // Relocalization's verification match: a query frame's 1024
    // descriptors against one candidate keyframe's 979.
    bench_kernel_group(c, "matcher_mutual", match_mutual_with_kernel, 1024, 979, 5);
    let query = descriptors(1024, 5);
    let train = descriptors(979, 6);
    let pool = WorkerPool::new(2);
    let mut group = c.benchmark_group("matcher_mutual");
    group.sample_size(10);
    group.bench_function("pooled/t2", |b| {
        b.iter(|| black_box(match_mutual_in(&pool, &query, &train, u32::MAX)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_kernels_small_map,
    bench_mutual
);
criterion_main!(benches);
