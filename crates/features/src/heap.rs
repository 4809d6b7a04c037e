//! Bounded best-N selection heap.
//!
//! The paper's Heap module stores descriptors, coordinates and Harris
//! scores, using "a max-heap structure … to guarantee that only the 1024
//! features with the best Harris scores are reserved" (§3.1). The
//! efficient realization is a *min*-heap of capacity N whose root is the
//! weakest kept feature: a new feature replaces the root iff it scores
//! higher. This module implements that structure generically.
//!
//! [`BestHeap`] defines the order every best-N choice of the extractor
//! follows — score descending, ties to the earlier arrival — and is the
//! selector of the scalar reference
//! (`OrbExtractor::extract_reference`). The production extractor
//! (`OrbExtractor::extract_with`) keeps and orders exactly what the heap
//! would, but selects in its order over compact `(score, arrival)` keys
//! instead of pushing every described feature through it.

use std::collections::BinaryHeap;

/// Default heap capacity of the eSLAM Heap module (§3.1).
pub const DEFAULT_HEAP_CAPACITY: usize = 1024;

/// Internal entry ordered by ascending score so that the `BinaryHeap`
/// (a max-heap) exposes the weakest element at the root.
#[derive(Debug)]
struct Entry<T> {
    score: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse on score: lower score = "greater" for the max-heap, so
        // the weakest sits at the root. Ties: later arrivals are evicted
        // first (earlier seq wins), keeping the filter deterministic.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Keeps the `capacity` highest-scoring items pushed into it.
///
/// # Examples
///
/// ```
/// use eslam_features::heap::BestHeap;
/// let mut heap = BestHeap::new(3);
/// for (score, name) in [(1.0, "a"), (5.0, "b"), (3.0, "c"), (4.0, "d")] {
///     heap.push(score, name);
/// }
/// let kept = heap.into_sorted_vec();
/// assert_eq!(kept.iter().map(|(_, n)| *n).collect::<Vec<_>>(), ["b", "d", "c"]);
/// ```
#[derive(Debug)]
pub struct BestHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    capacity: usize,
    seq: u64,
    pushed: u64,
}

impl<T> BestHeap<T> {
    /// Creates a heap that retains at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "heap capacity must be positive");
        BestHeap {
            heap: BinaryHeap::with_capacity(capacity + 1),
            capacity,
            seq: 0,
            pushed: 0,
        }
    }

    /// Offers an item; returns `true` if it was retained (possibly
    /// evicting the current weakest).
    pub fn push(&mut self, score: f64, item: T) -> bool {
        self.pushed += 1;
        let entry = Entry {
            score,
            seq: self.seq,
            item,
        };
        self.seq += 1;
        if self.heap.len() < self.capacity {
            self.heap.push(entry);
            return true;
        }
        // Root is the weakest kept item.
        let weakest = self.heap.peek().expect("non-empty at capacity");
        let evict = weakest.score < score;
        if evict {
            self.heap.pop();
            self.heap.push(entry);
        }
        evict
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of items ever offered — the `M` of the paper's
    /// workflow discussion (`M − N` descriptors are computed "in excess"
    /// by the rescheduled pipeline).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Score of the current weakest retained item, if any.
    pub fn weakest_score(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.score)
    }

    /// Consumes the heap, returning `(score, item)` pairs sorted by
    /// descending score (ties in arrival order).
    pub fn into_sorted_vec(self) -> Vec<(f64, T)> {
        let mut v: Vec<Entry<T>> = self.heap.into_vec();
        v.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.seq.cmp(&b.seq))
        });
        v.into_iter().map(|e| (e.score, e.item)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_all_below_capacity() {
        let mut h = BestHeap::new(10);
        for i in 0..5 {
            assert!(h.push(i as f64, i));
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.total_pushed(), 5);
    }

    #[test]
    fn evicts_weakest_at_capacity() {
        let mut h = BestHeap::new(3);
        h.push(1.0, "one");
        h.push(2.0, "two");
        h.push(3.0, "three");
        assert_eq!(h.weakest_score(), Some(1.0));
        assert!(h.push(4.0, "four")); // evicts "one"
        assert_eq!(h.weakest_score(), Some(2.0));
        assert!(!h.push(0.5, "half")); // too weak
        let kept: Vec<_> = h.into_sorted_vec().into_iter().map(|(_, s)| s).collect();
        assert_eq!(kept, ["four", "three", "two"]);
    }

    #[test]
    fn matches_naive_top_n_selection() {
        // Pseudo-random scores; heap result must equal sort-then-truncate.
        let scores: Vec<f64> = (0..500u64)
            .map(|i| ((i.wrapping_mul(2654435761) >> 7) % 10_000) as f64 / 10.0)
            .collect();
        let mut h = BestHeap::new(64);
        for (i, &s) in scores.iter().enumerate() {
            h.push(s, i);
        }
        let heap_kept: Vec<f64> = h.into_sorted_vec().into_iter().map(|(s, _)| s).collect();
        let mut expect = scores.clone();
        expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
        expect.truncate(64);
        assert_eq!(heap_kept, expect);
    }

    #[test]
    fn equal_scores_keep_earliest() {
        let mut h = BestHeap::new(2);
        h.push(1.0, "first");
        h.push(1.0, "second");
        assert!(!h.push(1.0, "third"), "equal score must not evict");
        let kept: Vec<_> = h.into_sorted_vec().into_iter().map(|(_, s)| s).collect();
        assert_eq!(kept, ["first", "second"]);
    }

    #[test]
    fn total_pushed_counts_rejections() {
        let mut h = BestHeap::new(1);
        h.push(5.0, ());
        h.push(1.0, ());
        h.push(2.0, ());
        assert_eq!(h.total_pushed(), 3);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn sorted_output_descending() {
        let mut h = BestHeap::new(100);
        for i in 0..50 {
            h.push(((i * 37) % 19) as f64, i);
        }
        let v = h.into_sorted_vec();
        for pair in v.windows(2) {
            assert!(pair[0].0 >= pair[1].0);
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = BestHeap::<()>::new(0);
    }

    #[test]
    fn empty_heap_properties() {
        let h = BestHeap::<u8>::new(4);
        assert!(h.is_empty());
        assert_eq!(h.weakest_score(), None);
        assert!(h.into_sorted_vec().is_empty());
    }

    #[test]
    fn default_capacity_matches_paper() {
        assert_eq!(DEFAULT_HEAP_CAPACITY, 1024);
    }
}
