//! Per-kernel bit-identity suite for the Hamming matcher dispatch
//! ladder (avx512 → popcnt → scalar) and the persistent worker pool.
//!
//! The ladder runs one search, a nearest-neighbour argmin whose ties keep
//! the lowest train index, like the hardware Comparator. Every rung the
//! CPU supports is proven bit-identical to its scalar oracle,
//! [`match_brute_force_reference`], on random corpora, degenerate
//! descriptors (all-zero, all-one, single-bit-set) and shapes that
//! straddle the tile and SIMD-batch boundaries (query/train counts that
//! are not multiples of the 8-train AVX-512 group, the 8-row query block
//! or the 128-descriptor train tile).
//! The mutual search, [`match_mutual_with_kernel`], is held the same way
//! to its two-pass oracle, [`match_mutual_reference`], on train counts
//! around the 8-train group and the 128-train tile whose per-train
//! column minima the one-pass search carries, and on sets where every
//! row or every column ties.
//! The pooled entry points are proven independent of pool size,
//! including pools wider than the host's core count; the pooled mutual
//! search, [`match_mutual_in`], is held to [`match_mutual_reference`] on
//! query counts straddling every split of the rows, with a train whose
//! nearest-query tie crosses the split.

use eslam_features::matcher::{
    active_kernel, match_brute_force, match_brute_force_in, match_brute_force_reference,
    match_brute_force_with_kernel, match_mutual_in, match_mutual_reference,
    match_mutual_with_kernel, MatchKernel,
};
use eslam_features::orb::{OrbConfig, OrbExtractor, OrbScratch};
use eslam_features::pool::WorkerPool;
use eslam_features::Descriptor;
use eslam_image::GrayImage;
use proptest::prelude::*;

fn supported_kernels() -> Vec<MatchKernel> {
    MatchKernel::ALL
        .into_iter()
        .filter(|k| k.is_supported())
        .collect()
}

/// Splitmix-derived descriptor stream.
fn descriptor_set(n: usize, salt: u64) -> Vec<Descriptor> {
    (0..n)
        .map(|i| {
            let s = (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) ^ salt;
            Descriptor::from_words([s, s.rotate_left(13), s.rotate_left(29), s.rotate_left(47)])
        })
        .collect()
}

/// A descriptor with exactly one bit set.
fn single_bit(bit: usize) -> Descriptor {
    let mut d = Descriptor::ZERO;
    d.set_bit(bit, true);
    d
}

#[test]
fn every_supported_kernel_matches_reference_on_boundary_shapes() {
    // Shapes straddling the SIMD group (8), the query block (8) and the
    // train tile (128): remainder handling must not change results.
    let shapes = [
        (1usize, 1usize),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 7),
        (3, 127),
        (5, 128),
        (7, 129),
        (8, 130),
        (9, 131),
        (17, 255),
        (33, 260),
    ];
    for kernel in supported_kernels() {
        for (nq, nt) in shapes {
            let query = descriptor_set(nq, 0xA5);
            let train = descriptor_set(nt, 0x5A);
            for max_d in [u32::MAX, 120, 64] {
                assert_eq!(
                    match_brute_force_with_kernel(kernel, &query, &train, max_d),
                    match_brute_force_reference(&query, &train, max_d),
                    "{kernel:?} {nq}x{nt} max {max_d}"
                );
            }
        }
    }
}

#[test]
fn every_supported_kernel_handles_degenerate_descriptors() {
    let all_zero = Descriptor::ZERO;
    let all_one = Descriptor::from_words([u64::MAX; 4]);
    // Single-bit descriptors probing every word and both word edges.
    let bits = [0usize, 1, 63, 64, 127, 128, 191, 192, 254, 255];
    let mut train: Vec<Descriptor> = bits.iter().map(|&b| single_bit(b)).collect();
    train.push(all_zero);
    train.push(all_one);
    // Duplicates force the lowest-index tie rule through every kernel.
    train.push(all_zero);
    train.push(single_bit(64));
    let query: Vec<Descriptor> = [all_zero, all_one]
        .into_iter()
        .chain(bits.iter().map(|&b| single_bit(b)))
        .collect();
    for kernel in supported_kernels() {
        for max_d in [u32::MAX, 256, 2, 0] {
            assert_eq!(
                match_brute_force_with_kernel(kernel, &query, &train, max_d),
                match_brute_force_reference(&query, &train, max_d),
                "{kernel:?} degenerate max {max_d}"
            );
        }
    }
}

/// Low-density descriptors: distances are small and tie often.
fn sparse_set(n: usize, salt: u64) -> Vec<Descriptor> {
    let a = descriptor_set(n, salt);
    let b = descriptor_set(n, salt ^ 0x3c3c);
    a.iter()
        .zip(&b)
        .map(|(x, y)| Descriptor::from_words(std::array::from_fn(|w| x.words[w] & y.words[w])))
        .collect()
}

#[test]
fn every_supported_kernel_matches_the_mutual_oracle_on_boundary_shapes() {
    // Train counts around the 8-train AVX-512 group and the 128-train
    // tile; query counts around the 8-row block and past 128, so both
    // the row and the column minima cross every boundary.
    let train_counts = [7usize, 8, 9, 127, 128, 129, 257];
    let query_counts = [1usize, 9, 130];
    let sparse = sparse_set;
    for kernel in supported_kernels() {
        for nt in train_counts {
            for nq in query_counts {
                let mut query = sparse(nq, 0xC3 + nt as u64);
                let mut train = sparse(nt, 0x3C + nq as u64);
                // A query copied into the train set, and repeats on
                // both sides.
                train[nt / 2] = query[nq / 2];
                train[nt - 1] = train[0];
                query[nq - 1] = query[0];
                // Every train identical: every row ties on train 0.
                let same_trains = vec![train[1]; nt];
                // Every query identical: every column ties on query 0.
                let same_queries = vec![query[0]; nq];
                let cases = [
                    (&query, &train, "mixed"),
                    (&query, &same_trains, "identical trains"),
                    (&same_queries, &train, "identical queries"),
                ];
                for (q, t, name) in cases {
                    for max_d in [u32::MAX, 64, 0] {
                        assert_eq!(
                            match_mutual_with_kernel(kernel, q, t, max_d),
                            match_mutual_reference(q, t, max_d),
                            "{kernel:?} {nq}x{nt} {name} max {max_d}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn active_kernel_is_supported_and_drives_the_dispatcher() {
    let kernel = active_kernel();
    assert!(
        kernel.is_supported(),
        "active kernel {kernel:?} unsupported"
    );
    // The production entry point must agree with the pinned-kernel hook.
    let query = descriptor_set(130, 1);
    let train = descriptor_set(300, 2);
    assert_eq!(
        match_brute_force(&query, &train, u32::MAX),
        match_brute_force_with_kernel(kernel, &query, &train, u32::MAX),
    );
}

#[test]
fn kernel_names_round_trip() {
    // Each name picks out exactly its own rung of the ladder.
    for kernel in MatchKernel::ALL {
        let named: Vec<MatchKernel> = MatchKernel::ALL
            .into_iter()
            .filter(|k| k.name() == kernel.name())
            .collect();
        assert_eq!(named, [kernel]);
    }
    // The ladder is ordered slowest → fastest.
    assert_eq!(MatchKernel::ALL.len(), 3);
    assert!(MatchKernel::Scalar < MatchKernel::Popcnt);
    assert!(MatchKernel::Popcnt < MatchKernel::Avx512);
    // Detection picks a supported rung.
    assert!(MatchKernel::detect().is_supported());
}

#[test]
fn pooled_matching_is_identical_for_any_pool_size() {
    // 300 query rows exceed MIN_ROWS_PER_THREAD×2, so multi-thread pools
    // genuinely split the rows (on any host — pool sizes here are exact,
    // not clamped).
    let query = descriptor_set(300, 7);
    let train = descriptor_set(513, 8);
    let expect = match_brute_force_reference(&query, &train, u32::MAX);
    for threads in [1usize, 2, 3, 5] {
        let pool = WorkerPool::new(threads);
        assert_eq!(
            match_brute_force_in(&pool, &query, &train, u32::MAX),
            expect,
            "{threads} threads"
        );
    }
}

#[test]
fn pooled_mutual_search_matches_the_oracle_on_every_split() {
    // Pools split the rows into pieces of at least 64: query counts
    // around one, two and three such pieces, and the reloc workload's
    // 1,024; train counts around the 128-train tile whose column minima
    // each piece carries, and the reloc workload's 979.
    let query_counts = [63usize, 64, 65, 127, 128, 129, 1024];
    let train_counts = [1usize, 127, 128, 129, 979];
    let pools: Vec<WorkerPool> = [1usize, 2, 3, 5].into_iter().map(WorkerPool::new).collect();
    for nq in query_counts {
        for nt in train_counts {
            let mut query = sparse_set(nq, 0x51 + nt as u64);
            let mut train = sparse_set(nt, 0x15 + nq as u64);
            // The first query row again as the last, which any split
            // puts in another piece, and as a train: that train's
            // nearest query ties at distance 0 across the split, and
            // the lower index must win.
            let tied = nt / 2;
            query[nq - 1] = query[0];
            train[tied] = query[0];
            for max_d in [0, 64, u32::MAX] {
                let expect = match_mutual_reference(&query, &train, max_d);
                let wins = |q| expect.iter().any(|m| (m.query, m.distance) == (q, 0));
                assert!(
                    wins(0) && !wins(nq - 1),
                    "{nq}x{nt}: no tie at train {tied}"
                );
                for pool in &pools {
                    assert_eq!(
                        match_mutual_in(pool, &query, &train, max_d),
                        expect,
                        "{nq}x{nt} max {max_d} on {} threads",
                        pool.threads()
                    );
                }
            }
        }
    }
    let one = descriptor_set(1, 9);
    assert!(match_mutual_in(&pools[1], &[], &one, u32::MAX).is_empty());
    assert!(match_mutual_in(&pools[1], &one, &[], u32::MAX).is_empty());
}

#[test]
fn pooled_extraction_matches_reference_for_any_pool_size() {
    let img = GrayImage::from_fn(200, 150, |x, y| {
        let base = if ((x / 10) + (y / 10)) % 2 == 0 {
            50
        } else {
            190
        };
        base + ((x * 31 + y * 17) % 23) as u8
    });
    let extractor = OrbExtractor::new(OrbConfig::default());
    let reference = extractor.extract_reference(&img);
    for threads in [1usize, 2, 4] {
        let mut scratch = OrbScratch::with_pool(WorkerPool::new(threads));
        // Two frames through the same scratch: the steady-state path.
        for frame in 0..2 {
            assert_eq!(
                extractor.extract_with(&img, &mut scratch),
                reference,
                "{threads} threads, frame {frame}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernels_match_reference_on_random_corpora(
        nq in 1usize..96, nt in 1usize..320, salt in 0u64..10_000, max_d in 0u32..257,
    ) {
        let query = descriptor_set(nq, salt);
        let mut train = descriptor_set(nt, salt ^ 0xffff);
        if nt > 3 {
            // Inject duplicates so ties exercise the lowest-index rule.
            train[nt - 1] = train[1];
            train[nt / 2] = train[1];
        }
        let expect = match_brute_force_reference(&query, &train, max_d);
        for kernel in supported_kernels() {
            prop_assert_eq!(
                &match_brute_force_with_kernel(kernel, &query, &train, max_d),
                &expect,
                "{:?}", kernel
            );
        }
    }

    #[test]
    fn kernels_agree_on_adversarial_bit_patterns(
        words in prop::collection::vec(any::<u64>(), 8..64),
        bit in 0usize..256,
    ) {
        // Mix random words with degenerate rows in one train set.
        let mut train: Vec<Descriptor> = words
            .chunks(4)
            .filter(|c| c.len() == 4)
            .map(|c| Descriptor::from_words([c[0], c[1], c[2], c[3]]))
            .collect();
        train.push(Descriptor::ZERO);
        train.push(Descriptor::from_words([u64::MAX; 4]));
        train.push(single_bit(bit));
        let query = [Descriptor::ZERO, Descriptor::from_words([u64::MAX; 4]), single_bit(255 - bit)];
        let expect = match_brute_force_reference(&query, &train, u32::MAX);
        for kernel in supported_kernels() {
            prop_assert_eq!(
                &match_brute_force_with_kernel(kernel, &query, &train, u32::MAX),
                &expect,
                "{:?}", kernel
            );
        }
    }
}
