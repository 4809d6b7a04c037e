//! Brute-force Hamming-distance matching.
//!
//! Software reference of the paper's BRIEF Matcher (§3.2): for each
//! descriptor of the current frame, compute the Hamming distance to every
//! map descriptor and keep the minimum, the first one on ties, as the
//! hardware Comparator does. There are two searches, each with one scalar
//! oracle:
//!
//! * the nearest search, [`match_brute_force`] (tracking against the
//!   map), held to [`match_brute_force_reference`];
//! * the mutual search, [`match_mutual_with_kernel`] (the cross-checked
//!   match of relocalization and loop verification), held to
//!   [`match_mutual_reference`]: a nearest pass each way plus a
//!   cross-check. The production search computes each distance once and
//!   keeps two minima, each query's over the trains and each train's
//!   over the queries.
//!
//! The production kernels are cache-tiled over the `[u64; 4]` descriptor
//! words — train tiles stay L1-resident while a block of query rows
//! streams over them. The nearest search splits the query rows across a
//! persistent [`WorkerPool`] on multicore hosts (the process-global pool
//! for [`match_brute_force`], an explicit pool for
//! [`match_brute_force_in`]); the mutual search runs on the calling
//! thread.
//!
//! # Kernel dispatch ladder
//!
//! The Hamming inner loop dispatches at runtime down the ladder
//! **avx512 → popcnt → scalar** ([`MatchKernel`]):
//!
//! * [`MatchKernel::Avx512`] — two descriptors per ZMM register,
//!   per-word `vpopcntq`, distances folded eight at a time and the
//!   running `(distance, index)` minimum kept per lane with `vpminuq`;
//! * [`MatchKernel::Popcnt`] — four `u64` xor + `popcnt` pairs;
//! * [`MatchKernel::Scalar`] — the same loop without any target-feature
//!   enablement (LLVM's SWAR popcount on baseline x86-64), and the only
//!   rung on other targets.
//!
//! A rung stays only while it pays at least 1.2× over the rung below it.
//! On a 2-vCPU Xeon with AVX-512 VPOPCNTDQ, single-thread kernel runs read
//! avx512 at 2.5–3.7× over a former AVX2 rung and popcnt at 2.1–3.1× over
//! scalar. That AVX2 rung (a Mula nibble-LUT `pshufb` popcount
//! hybridised with inline-asm scalar `popcnt` chains) read only
//! 1.02–1.15× over popcnt at 1024 × 2304, 512 × 576 and 1024 × 600
//! pairs, so it was deleted: AVX2 hosts without VPOPCNTDQ run popcnt.
//!
//! The production entry points run the fastest rung the CPU supports
//! ([`active_kernel`]); the `*_with_kernel` hooks pin any rung, which is
//! how the per-kernel property tests and benches cover the whole ladder
//! in one process. Every rung of each search is bit-identical to that
//! search's oracle (proven by unit and property tests).

use crate::descriptor::Descriptor;
use crate::pool::WorkerPool;

/// Train descriptors per tile: 128 × 32 B = 4 KiB, comfortably
/// L1-resident together with a query block.
const TRAIN_TILE: usize = 128;
/// Query rows per block inside one tile pass.
const QUERY_BLOCK: usize = 8;
/// Minimum query rows per additional thread — below this the spawn
/// overhead outweighs the parallelism.
const MIN_ROWS_PER_THREAD: usize = 64;

/// One rung of the Hamming-kernel dispatch ladder (fastest first:
/// `Avx512` → `Popcnt` → `Scalar`). All rungs are bit-identical; they
/// differ only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchKernel {
    /// Portable scalar loop (no target-feature enablement).
    Scalar,
    /// x86-64 `popcnt`-enabled loop (runtime-detected).
    Popcnt,
    /// x86-64 AVX-512 `vpopcntq` over pairs of descriptors per ZMM
    /// register (runtime-detected: `avx512f` + `avx512vpopcntdq`, plus
    /// `popcnt` for tile remainders).
    Avx512,
}

impl MatchKernel {
    /// Every rung, slowest first.
    pub const ALL: [MatchKernel; 3] = [
        MatchKernel::Scalar,
        MatchKernel::Popcnt,
        MatchKernel::Avx512,
    ];

    /// Whether the running CPU can execute this kernel.
    pub fn is_supported(self) -> bool {
        match self {
            MatchKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            MatchKernel::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            MatchKernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The fastest kernel the running CPU supports.
    pub fn detect() -> MatchKernel {
        if MatchKernel::Avx512.is_supported() {
            MatchKernel::Avx512
        } else if MatchKernel::Popcnt.is_supported() {
            MatchKernel::Popcnt
        } else {
            MatchKernel::Scalar
        }
    }

    /// The kernel's lowercase name, for logs and run headers.
    pub fn name(self) -> &'static str {
        match self {
            MatchKernel::Scalar => "scalar",
            MatchKernel::Popcnt => "popcnt",
            MatchKernel::Avx512 => "avx512",
        }
    }
}

/// The kernel the production entry points dispatch to: the fastest rung
/// the running CPU supports ([`MatchKernel::detect`]; std caches the
/// feature probes).
pub fn active_kernel() -> MatchKernel {
    MatchKernel::detect()
}

/// A correspondence between a query descriptor and a train descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescriptorMatch {
    /// Index into the query set (current frame).
    pub query: usize,
    /// Index into the train set (map points).
    pub train: usize,
    /// Hamming distance between the two descriptors.
    pub distance: u32,
}

/// For each query descriptor, finds the nearest train descriptor
/// (minimum Hamming distance; ties keep the lowest train index, matching
/// the sequential hardware comparator). Matches with distance above
/// `max_distance` are dropped.
///
/// Returns matches ordered by query index. Empty train sets yield no
/// matches.
///
/// # Examples
///
/// ```
/// use eslam_features::{Descriptor, matcher::match_brute_force};
/// let q = [Descriptor::from_words([0b1011, 0, 0, 0])];
/// let t = [
///     Descriptor::from_words([0b0011, 0, 0, 0]), // distance 1
///     Descriptor::from_words([0b1111, 0, 0, 0]), // distance 1 (tie — first wins)
///     Descriptor::ZERO,                            // distance 3
/// ];
/// let m = match_brute_force(&q, &t, u32::MAX);
/// assert_eq!(m[0].train, 0);
/// assert_eq!(m[0].distance, 1);
/// ```
pub fn match_brute_force(
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    match_brute_force_in(WorkerPool::global(), query, train, max_distance)
}

/// [`match_brute_force`] running its parallel rows on an explicit
/// [`WorkerPool`] (e.g. the pool owned by the SLAM system) instead of
/// the process-global one. Results are identical for any pool size.
pub fn match_brute_force_in(
    pool: &WorkerPool,
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    // (distance, train index) per query; train is non-empty, so every
    // query has a nearest neighbour.
    let mut best = vec![(u32::MAX, 0u32); query.len()];
    run_rows(pool, query, &mut best, |rows, out| {
        nearest_rows(rows, train, out)
    });
    collect_nearest(&best, max_distance)
}

/// [`match_brute_force`] forced onto one dispatch rung, single-threaded.
///
/// This is the hook the per-kernel property tests and the
/// `matcher_kernels` benches use to pin a rung regardless of what
/// [`active_kernel`] detects; an unsupported `kernel` falls back to
/// [`MatchKernel::Scalar`]. Production callers want [`match_brute_force`].
pub fn match_brute_force_with_kernel(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    let mut best = vec![(u32::MAX, 0u32); query.len()];
    nearest_rows_with(kernel, query, train, &mut best);
    collect_nearest(&best, max_distance)
}

/// Folds per-row `(distance, train)` minima into the match list.
fn collect_nearest(best: &[(u32, u32)], max_distance: u32) -> Vec<DescriptorMatch> {
    best.iter()
        .enumerate()
        .filter(|(_, &(d, _))| d <= max_distance)
        .map(|(qi, &(d, ti))| DescriptorMatch {
            query: qi,
            train: ti as usize,
            distance: d,
        })
        .collect()
}

/// Scalar reference of [`match_brute_force`] (one query at a time, no
/// tiling/threading); the bit-exact oracle for the production kernel.
pub fn match_brute_force_reference(
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    let mut out = Vec::with_capacity(query.len());
    for (qi, q) in query.iter().enumerate() {
        let mut best: Option<(usize, u32)> = None;
        for (ti, t) in train.iter().enumerate() {
            let d = q.hamming(t);
            match best {
                Some((_, bd)) if d >= bd => {}
                _ => best = Some((ti, d)),
            }
        }
        if let Some((ti, d)) = best {
            if d <= max_distance {
                out.push(DescriptorMatch {
                    query: qi,
                    train: ti,
                    distance: d,
                });
            }
        }
    }
    out
}

/// Mutual-nearest matches on one dispatch rung, single-threaded: query
/// `q` pairs with train `t` when `t` is `q`'s nearest train (ties keep
/// the lowest train index), `q` is `t`'s nearest query (ties keep the
/// lowest query index), and their distance is within `max_distance`.
///
/// One tiled pass computes each distance once and keeps both minima:
/// the row minimum `(distance, train)` per query, as
/// [`match_brute_force`] does, and a `(distance << 32) | query` key
/// minimum per train. Returns matches ordered by query index; an
/// unsupported `kernel` falls back to [`MatchKernel::Scalar`]. Every rung
/// is bit-identical to [`match_mutual_reference`].
///
/// # Examples
///
/// ```
/// use eslam_features::{Descriptor, matcher::{match_mutual_with_kernel, MatchKernel}};
/// let q = [Descriptor::from_words([0b0111, 0, 0, 0]), Descriptor::from_words([0b0011, 0, 0, 0])];
/// let t = [Descriptor::from_words([0b0001, 0, 0, 0])];
/// // Both queries' nearest train is train 0, whose nearest query is query 1.
/// let m = match_mutual_with_kernel(MatchKernel::detect(), &q, &t, u32::MAX);
/// assert_eq!(m.len(), 1);
/// assert_eq!((m[0].query, m[0].train, m[0].distance), (1, 0, 1));
/// ```
pub fn match_mutual_with_kernel(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    let mut rows = vec![(u32::MAX, 0u32); query.len()];
    let mut cols = vec![u64::MAX; train.len()];
    mutual_rows_with(kernel, query, train, &mut rows, &mut cols);
    rows.iter()
        .enumerate()
        .filter(|&(qi, &(d, ti))| d <= max_distance && cols[ti as usize] as u32 == qi as u32)
        .map(|(qi, &(d, ti))| DescriptorMatch {
            query: qi,
            train: ti as usize,
            distance: d,
        })
        .collect()
}

/// Scalar reference of [`match_mutual_with_kernel`]: a
/// [`match_brute_force_reference`] pass each way, query → train and
/// train → query, then a cross-check that keeps a forward match
/// `(q → t)` only when the backward pass pairs `t → q`.
pub fn match_mutual_reference(
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    let forward = match_brute_force_reference(query, train, max_distance);
    let backward = match_brute_force_reference(train, query, max_distance);
    cross_check(&forward, &backward)
}

/// Splits `out` (one slot per query row) across the worker pool and runs
/// `kernel` on each piece. Row order inside a piece is preserved and
/// pieces are disjoint, so the result is independent of the split.
fn run_rows<T: Send>(
    pool: &WorkerPool,
    query: &[Descriptor],
    out: &mut [T],
    kernel: impl Fn(&[Descriptor], &mut [T]) + Sync,
) {
    let threads = pool.threads().min(query.len() / MIN_ROWS_PER_THREAD).max(1);
    if threads == 1 {
        kernel(query, out);
        return;
    }
    let chunk = query.len().div_ceil(threads);
    let kernel = &kernel;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = query
        .chunks(chunk)
        .zip(out.chunks_mut(chunk))
        .map(|(q_chunk, o_chunk)| {
            Box::new(move || kernel(q_chunk, o_chunk)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.scope_run(tasks);
}

/// Cache-tiled nearest-neighbour search: `out[i]` becomes the minimum
/// `(distance, train index)` for `query[i]`, ties keeping the lowest
/// train index (train scanned in ascending order).
///
/// Inside a tile, query rows are register-blocked in pairs: each train
/// descriptor's four words are loaded once and xor-popcounted against
/// both queries, halving the load traffic and doubling the independent
/// instruction streams.
#[inline(always)]
fn nearest_rows_inner(query: &[Descriptor], train: &[Descriptor], out: &mut [(u32, u32)]) {
    for (tile_idx, tile) in train.chunks(TRAIN_TILE).enumerate() {
        let base = (tile_idx * TRAIN_TILE) as u32;
        for (q_block, o_block) in query.chunks(QUERY_BLOCK).zip(out.chunks_mut(QUERY_BLOCK)) {
            let even = q_block.len() & !1;
            let (q_even, q_rem) = q_block.split_at(even);
            let (o_even, o_rem) = o_block.split_at_mut(even);
            for (qs, os) in q_even.chunks_exact(2).zip(o_even.chunks_exact_mut(2)) {
                let (q0, q1) = (&qs[0], &qs[1]);
                let (mut b0, mut b1) = (os[0], os[1]);
                for (j, t) in tile.iter().enumerate() {
                    let d0 = q0.hamming(t);
                    let d1 = q1.hamming(t);
                    if d0 < b0.0 {
                        b0 = (d0, base + j as u32);
                    }
                    if d1 < b1.0 {
                        b1 = (d1, base + j as u32);
                    }
                }
                os[0] = b0;
                os[1] = b1;
            }
            // Odd trailing query row of the block.
            for (q, o) in q_rem.iter().zip(o_rem.iter_mut()) {
                let mut best = *o;
                for (j, t) in tile.iter().enumerate() {
                    let d = q.hamming(t);
                    if d < best.0 {
                        best = (d, base + j as u32);
                    }
                }
                *o = best;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn nearest_rows_popcnt(query: &[Descriptor], train: &[Descriptor], out: &mut [(u32, u32)]) {
    nearest_rows_inner(query, train, out)
}

/// `(distance << 32) | index`: ordered by distance, then by index.
#[inline(always)]
fn key(distance: u32, index: usize) -> u64 {
    ((distance as u64) << 32) | index as u64
}

/// Cache-tiled mutual search, the tiling and row pairing of
/// [`nearest_rows_inner`]: `rows[i]` becomes query `i`'s minimum
/// `(distance, train index)`, and `cols[j]` train `j`'s minimum
/// [`key`] over the queries (`cols` starts at `u64::MAX`). A key
/// minimum does not depend on the order the queries are visited in.
#[inline(always)]
fn mutual_rows_inner(
    query: &[Descriptor],
    train: &[Descriptor],
    rows: &mut [(u32, u32)],
    cols: &mut [u64],
) {
    for (tile_idx, (tile, tile_cols)) in train
        .chunks(TRAIN_TILE)
        .zip(cols.chunks_mut(TRAIN_TILE))
        .enumerate()
    {
        let base = (tile_idx * TRAIN_TILE) as u32;
        for (block_idx, (q_block, o_block)) in query
            .chunks(QUERY_BLOCK)
            .zip(rows.chunks_mut(QUERY_BLOCK))
            .enumerate()
        {
            let first = block_idx * QUERY_BLOCK;
            let even = q_block.len() & !1;
            let (q_even, q_rem) = q_block.split_at(even);
            let (o_even, o_rem) = o_block.split_at_mut(even);
            for (pair, (qs, os)) in q_even
                .chunks_exact(2)
                .zip(o_even.chunks_exact_mut(2))
                .enumerate()
            {
                let (q0, q1) = (&qs[0], &qs[1]);
                let i0 = first + 2 * pair;
                let (mut b0, mut b1) = (os[0], os[1]);
                for (j, (t, col)) in tile.iter().zip(tile_cols.iter_mut()).enumerate() {
                    let d0 = q0.hamming(t);
                    let d1 = q1.hamming(t);
                    if d0 < b0.0 {
                        b0 = (d0, base + j as u32);
                    }
                    if d1 < b1.0 {
                        b1 = (d1, base + j as u32);
                    }
                    *col = (*col).min(key(d0, i0)).min(key(d1, i0 + 1));
                }
                os[0] = b0;
                os[1] = b1;
            }
            // Odd trailing query row of the block.
            for (q, o) in q_rem.iter().zip(o_rem.iter_mut()) {
                let i = first + even;
                let mut best = *o;
                for (j, (t, col)) in tile.iter().zip(tile_cols.iter_mut()).enumerate() {
                    let d = q.hamming(t);
                    if d < best.0 {
                        best = (d, base + j as u32);
                    }
                    *col = (*col).min(key(d, i));
                }
                *o = best;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn mutual_rows_popcnt(
    query: &[Descriptor],
    train: &[Descriptor],
    rows: &mut [(u32, u32)],
    cols: &mut [u64],
) {
    mutual_rows_inner(query, train, rows, cols)
}

/// The top rung: AVX-512 `vpopcntq`. A ZMM register holds **two**
/// descriptors, so one load + xor + `vpopcntq` covers two pairs; a
/// shuffle tree folds four ZMMs' per-word counts into eight distances
/// at once, and a native unsigned 64-bit min (`vpminuq`, absent from
/// AVX2) keeps the running `(distance << 32) | index` key minimum per
/// lane — ≈3 µops per pair against the popcnt rung's port-1-bound 4.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{key, Descriptor, TRAIN_TILE};
    use std::arch::x86_64::*;

    /// Trains per inner step: four ZMMs of two descriptors each.
    const GROUP: usize = 8;

    /// Lane sentinel: no candidate yet (real keys < 2⁴¹).
    const KEY_SENTINEL: u64 = u64::MAX;

    /// Train offset, within a group, of each lane of [`distances_x8`]'s
    /// output (ZMM `i` holds trains `2i` and `2i+1`; the fold interleaves
    /// them as below).
    const LANE_TRAIN_OFFSETS: [u64; 8] = [0, 2, 4, 6, 1, 3, 5, 7];

    /// Eight distances of one (duplicated) query against eight train
    /// descriptors, in [`LANE_TRAIN_OFFSETS`] lane order.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq")]
    unsafe fn distances_x8(q2: __m512i, octet: &[Descriptor]) -> __m512i {
        // SAFETY (caller): avx512f + avx512vpopcntdq available; `octet`
        // holds ≥ 8 descriptors (64 contiguous bytes per pair of them).
        let t0 = _mm512_popcnt_epi64(_mm512_xor_si512(
            q2,
            _mm512_loadu_si512(octet.as_ptr().cast()),
        ));
        let t1 = _mm512_popcnt_epi64(_mm512_xor_si512(
            q2,
            _mm512_loadu_si512(octet.as_ptr().add(2).cast()),
        ));
        let t2 = _mm512_popcnt_epi64(_mm512_xor_si512(
            q2,
            _mm512_loadu_si512(octet.as_ptr().add(4).cast()),
        ));
        let t3 = _mm512_popcnt_epi64(_mm512_xor_si512(
            q2,
            _mm512_loadu_si512(octet.as_ptr().add(6).cast()),
        ));
        // Fold the eight per-word counts of each ZMM down to per-128-bit
        // partials, pairing sources so all eight distances materialise in
        // two permutes + three adds.
        let w01 = _mm512_add_epi64(_mm512_unpacklo_epi64(t0, t1), _mm512_unpackhi_epi64(t0, t1));
        let w23 = _mm512_add_epi64(_mm512_unpacklo_epi64(t2, t3), _mm512_unpackhi_epi64(t2, t3));
        // w01 lanes: [P00a P10a P00b P10b P01a P11a P01b P11b] where
        // Pij{a,b} = half-descriptor partials of ZMM i, descriptor j.
        let first = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
        let second = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
        let a = _mm512_permutex2var_epi64(w01, first, w23);
        let b = _mm512_permutex2var_epi64(w01, second, w23);
        _mm512_add_epi64(a, b)
    }

    /// Packed `(distance << 32) | global_train_index` keys for a group.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq")]
    unsafe fn keys_x8(q2: __m512i, octet: &[Descriptor], idx: __m512i) -> __m512i {
        _mm512_add_epi64(_mm512_slli_epi64::<32>(distances_x8(q2, octet)), idx)
    }

    /// AVX-512 twin of `nearest_rows_inner`: identical tiling, identical
    /// ascending-index tie rule (packed keys order by distance then
    /// index; `vpminuq` keeps the per-lane minimum; the scalar fold and
    /// the carried best preserve first-occurrence semantics).
    #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq", enable = "popcnt")]
    pub(super) unsafe fn nearest_rows(
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut [(u32, u32)],
    ) {
        let step = _mm512_set1_epi64(GROUP as i64);
        let offsets = _mm512_loadu_si512(LANE_TRAIN_OFFSETS.as_ptr().cast());
        for (tile_idx, tile) in train.chunks(TRAIN_TILE).enumerate() {
            let base = (tile_idx * TRAIN_TILE) as u32;
            let groups = tile.len() / GROUP;
            let rem = &tile[groups * GROUP..];
            for (q, o) in query.iter().zip(out.iter_mut()) {
                let q2 = _mm512_broadcast_i64x4(_mm256_loadu_si256(q.words.as_ptr().cast()));
                let mut idx = _mm512_add_epi64(_mm512_set1_epi64(base as i64), offsets);
                let mut best = _mm512_set1_epi64(KEY_SENTINEL as i64);
                for group in tile.chunks_exact(GROUP) {
                    best = _mm512_min_epu64(best, keys_x8(q2, group, idx));
                    idx = _mm512_add_epi64(idx, step);
                }
                let mut keys = [KEY_SENTINEL; 8];
                _mm512_storeu_si512(keys.as_mut_ptr().cast(), best);
                // Carried best first: its index is the lowest seen, so it
                // wins distance ties under the unsigned key order.
                let carried = ((o.0 as u64) << 32) | o.1 as u64;
                let key = keys.iter().fold(carried, |acc, &k| acc.min(k));
                let (mut best_d, mut best_i) = ((key >> 32) as u32, key as u32);
                for (k, t) in rem.iter().enumerate() {
                    let d = q.hamming(t);
                    if d < best_d {
                        best_d = d;
                        best_i = base + (groups * GROUP + k) as u32;
                    }
                }
                *o = (best_d, best_i);
            }
        }
    }

    /// AVX-512 twin of `mutual_rows_inner`: the row minimum exactly as
    /// [`nearest_rows`] keeps it, plus a `(distance << 32) | query` key
    /// per lane, min-updated per group in a per-tile buffer of 128 keys
    /// (lane order) and written to `cols` in train order once every
    /// query has passed over the tile.
    #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq", enable = "popcnt")]
    pub(super) unsafe fn mutual_rows(
        query: &[Descriptor],
        train: &[Descriptor],
        rows: &mut [(u32, u32)],
        cols: &mut [u64],
    ) {
        let step = _mm512_set1_epi64(GROUP as i64);
        let offsets = _mm512_loadu_si512(LANE_TRAIN_OFFSETS.as_ptr().cast());
        for (tile_idx, (tile, tile_cols)) in train
            .chunks(TRAIN_TILE)
            .zip(cols.chunks_mut(TRAIN_TILE))
            .enumerate()
        {
            let base = (tile_idx * TRAIN_TILE) as u32;
            let groups = tile.len() / GROUP;
            let rem = &tile[groups * GROUP..];
            let (group_cols, rem_cols) = tile_cols.split_at_mut(groups * GROUP);
            let mut col_keys = [_mm512_set1_epi64(KEY_SENTINEL as i64); TRAIN_TILE / GROUP];
            for (qi, (q, o)) in query.iter().zip(rows.iter_mut()).enumerate() {
                let q2 = _mm512_broadcast_i64x4(_mm256_loadu_si256(q.words.as_ptr().cast()));
                let q_index = _mm512_set1_epi64(qi as i64);
                let mut idx = _mm512_add_epi64(_mm512_set1_epi64(base as i64), offsets);
                let mut best = _mm512_set1_epi64(KEY_SENTINEL as i64);
                for (group, col) in tile.chunks_exact(GROUP).zip(col_keys.iter_mut()) {
                    let d = _mm512_slli_epi64::<32>(distances_x8(q2, group));
                    best = _mm512_min_epu64(best, _mm512_add_epi64(d, idx));
                    *col = _mm512_min_epu64(*col, _mm512_add_epi64(d, q_index));
                    idx = _mm512_add_epi64(idx, step);
                }
                let mut keys = [KEY_SENTINEL; 8];
                _mm512_storeu_si512(keys.as_mut_ptr().cast(), best);
                let carried = ((o.0 as u64) << 32) | o.1 as u64;
                let row = keys.iter().fold(carried, |acc, &k| acc.min(k));
                let (mut best_d, mut best_i) = ((row >> 32) as u32, row as u32);
                for (k, (t, col)) in rem.iter().zip(rem_cols.iter_mut()).enumerate() {
                    let d = q.hamming(t);
                    if d < best_d {
                        best_d = d;
                        best_i = base + (groups * GROUP + k) as u32;
                    }
                    *col = (*col).min(key(d, qi));
                }
                *o = (best_d, best_i);
            }
            for (octet, keys) in group_cols.chunks_exact_mut(GROUP).zip(&col_keys) {
                let mut lanes = [KEY_SENTINEL; 8];
                _mm512_storeu_si512(lanes.as_mut_ptr().cast(), *keys);
                for (&lane, &offset) in lanes.iter().zip(&LANE_TRAIN_OFFSETS) {
                    octet[offset as usize] = lane;
                }
            }
        }
    }
}

/// Runs the mutual-search row kernel for an explicit dispatch rung.
/// An unsupported `kernel` falls back to the scalar rung.
fn mutual_rows_with(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    rows: &mut [(u32, u32)],
    cols: &mut [u64],
) {
    #[cfg(target_arch = "x86_64")]
    match kernel {
        MatchKernel::Avx512 if kernel.is_supported() => {
            // SAFETY: avx512f + avx512vpopcntdq + popcnt just checked.
            return unsafe { avx512::mutual_rows(query, train, rows, cols) };
        }
        MatchKernel::Popcnt if kernel.is_supported() => {
            // SAFETY: popcnt support just checked.
            return unsafe { mutual_rows_popcnt(query, train, rows, cols) };
        }
        _ => {}
    }
    mutual_rows_inner(query, train, rows, cols)
}

/// Runs the nearest-neighbour row kernel for an explicit dispatch rung.
/// An unsupported `kernel` falls back to the scalar rung.
fn nearest_rows_with(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    out: &mut [(u32, u32)],
) {
    #[cfg(target_arch = "x86_64")]
    match kernel {
        MatchKernel::Avx512 if kernel.is_supported() => {
            // SAFETY: avx512f + avx512vpopcntdq + popcnt just checked.
            return unsafe { avx512::nearest_rows(query, train, out) };
        }
        MatchKernel::Popcnt if kernel.is_supported() => {
            // SAFETY: popcnt support just checked.
            return unsafe { nearest_rows_popcnt(query, train, out) };
        }
        _ => {}
    }
    nearest_rows_inner(query, train, out)
}

fn nearest_rows(query: &[Descriptor], train: &[Descriptor], out: &mut [(u32, u32)]) {
    nearest_rows_with(active_kernel(), query, train, out)
}

/// Mutual-consistency filter of [`match_mutual_reference`]: keeps a
/// forward match `(q → t)` only when the backward matching also pairs
/// `t → q`.
fn cross_check(forward: &[DescriptorMatch], backward: &[DescriptorMatch]) -> Vec<DescriptorMatch> {
    forward
        .iter()
        .filter(|f| {
            backward
                .iter()
                .any(|b| b.query == f.train && b.train == f.query)
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(bits: &[usize]) -> Descriptor {
        let mut d = Descriptor::ZERO;
        for &b in bits {
            d.set_bit(b, true);
        }
        d
    }

    #[test]
    fn exact_match_has_zero_distance() {
        let q = [desc(&[1, 5, 9])];
        let t = [desc(&[0]), desc(&[1, 5, 9]), desc(&[2])];
        let m = match_brute_force(&q, &t, u32::MAX);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].train, 1);
        assert_eq!(m[0].distance, 0);
    }

    #[test]
    fn empty_train_set_gives_no_matches() {
        let q = [desc(&[1])];
        assert!(match_brute_force(&q, &[], u32::MAX).is_empty());
    }

    #[test]
    fn empty_query_set_gives_no_matches() {
        let t = [desc(&[1])];
        assert!(match_brute_force(&[], &t, u32::MAX).is_empty());
    }

    #[test]
    fn max_distance_filters() {
        let q = [desc(&[0, 1, 2, 3])];
        let t = [Descriptor::ZERO]; // distance 4
        assert!(match_brute_force(&q, &t, 3).is_empty());
        assert_eq!(match_brute_force(&q, &t, 4).len(), 1);
    }

    #[test]
    fn tie_keeps_lowest_train_index() {
        let q = [desc(&[10])];
        let t = [desc(&[11]), desc(&[12])]; // both at distance 2
        let m = match_brute_force(&q, &t, u32::MAX);
        assert_eq!(m[0].train, 0);
    }

    #[test]
    fn matches_ordered_by_query() {
        let q = [desc(&[0]), desc(&[64]), desc(&[128])];
        let t = [desc(&[0]), desc(&[64]), desc(&[128])];
        let m = match_brute_force(&q, &t, u32::MAX);
        let idx: Vec<_> = m.iter().map(|x| x.query).collect();
        assert_eq!(idx, [0, 1, 2]);
        for x in &m {
            assert_eq!(x.query, x.train);
        }
    }

    #[test]
    fn cross_check_keeps_mutual_only() {
        let fwd = vec![
            DescriptorMatch {
                query: 0,
                train: 5,
                distance: 1,
            },
            DescriptorMatch {
                query: 1,
                train: 6,
                distance: 2,
            },
        ];
        let bwd = vec![
            DescriptorMatch {
                query: 5,
                train: 0,
                distance: 1,
            }, // mutual with fwd[0]
            DescriptorMatch {
                query: 6,
                train: 9,
                distance: 2,
            }, // not mutual
        ];
        let kept = cross_check(&fwd, &bwd);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].query, 0);
    }

    fn pseudo_random_descriptors(n: usize, salt: u64) -> Vec<Descriptor> {
        (0..n)
            .map(|i| {
                let s = (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) ^ salt;
                Descriptor::from_words([s, s.rotate_left(17), s.rotate_left(31), s.rotate_left(47)])
            })
            .collect()
    }

    #[test]
    fn tiled_matcher_matches_reference_across_shapes() {
        // Sweep sizes around the tile/block boundaries and duplicate-heavy
        // sets (forcing tie-breaks) against the scalar reference.
        for (nq, nt) in [
            (1usize, 1usize),
            (3, 7),
            (8, 128),
            (9, 129),
            (64, 300),
            (200, 1000),
        ] {
            let query = pseudo_random_descriptors(nq, 0xAA);
            let mut train = pseudo_random_descriptors(nt, 0xBB);
            // Inject duplicates so ties exercise the lowest-index rule.
            if nt > 4 {
                let d = train[2];
                train[nt - 1] = d;
                train[nt / 2] = d;
            }
            for max_d in [u32::MAX, 128, 40] {
                assert_eq!(
                    match_brute_force(&query, &train, max_d),
                    match_brute_force_reference(&query, &train, max_d),
                    "brute force {nq}x{nt} max {max_d}"
                );
            }
        }
    }

    #[test]
    fn brute_force_finds_global_minimum() {
        // Pseudo-random descriptor sets; verify against naive argmin.
        let mk = |seed: u64| {
            let mut words = [0u64; 4];
            for (i, w) in words.iter_mut().enumerate() {
                *w = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64 * 1442695040888963407);
            }
            Descriptor::from_words(words)
        };
        let query: Vec<Descriptor> = (0..20).map(|i| mk(i * 7 + 1)).collect();
        let train: Vec<Descriptor> = (0..50).map(|i| mk(i * 13 + 3)).collect();
        let matches = match_brute_force(&query, &train, u32::MAX);
        assert_eq!(matches.len(), query.len());
        for m in &matches {
            let naive = train
                .iter()
                .map(|t| query[m.query].hamming(t))
                .min()
                .unwrap();
            assert_eq!(m.distance, naive);
        }
    }
}
