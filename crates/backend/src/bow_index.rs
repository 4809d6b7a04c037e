//! The BoW keyframe index that loop detection and relocalization share:
//! one [`BowVector`] per keyframe plus the inverted word → keyframe
//! index over them.
//!
//! Retrieval ([`BowIndex::scores`]) scores every keyframe that shares a
//! word with the query. The postings of the query's words mark the
//! sharing keyframes in a per-keyframe mask; then each marked keyframe,
//! in ascending id order, sums `min(query weight, weight)` over its own
//! entries against a dense per-word array of the query's weights. A
//! word the query lacks holds 0.0 there and adds `min(0.0, w) = 0.0`,
//! which leaves the running sum unchanged because BoW weights are never
//! negative. Every score therefore equals [`BowVector::similarity`] bit
//! for bit, without the sort and dedup of the keyframe ids or the
//! sorted-list merge per keyframe.

use crate::keyframe::KeyframeId;
use eslam_features::bow::BowVector;

/// Per-keyframe BoW vectors, keyframe-id aligned, with the inverted
/// word → keyframe index over them.
#[derive(Debug, Clone, Default)]
pub(crate) struct BowIndex {
    /// One vector per keyframe, indexed by keyframe id (an empty vector
    /// for a keyframe without descriptors).
    vectors: Vec<BowVector>,
    /// Word id → keyframes whose vector contains it, ascending. Indexed
    /// by word: vocabulary word ids are exactly `0..words`.
    inverted: Vec<Vec<KeyframeId>>,
}

impl BowIndex {
    /// Indexes `vector` as the keyframe after the last one; returns its
    /// id.
    pub(crate) fn push(&mut self, vector: BowVector) -> KeyframeId {
        let id = self.vectors.len();
        for &(word, _) in vector.entries() {
            let word = word as usize;
            if word >= self.inverted.len() {
                self.inverted.resize_with(word + 1, Vec::new);
            }
            self.inverted[word].push(id);
        }
        self.vectors.push(vector);
        id
    }

    /// Number of indexed keyframes.
    pub(crate) fn len(&self) -> usize {
        self.vectors.len()
    }

    /// The vector of keyframe `id`.
    pub(crate) fn vector(&self, id: KeyframeId) -> &BowVector {
        &self.vectors[id]
    }

    /// Every keyframe that shares at least one word with `query` and
    /// that `keep` accepts, in ascending id order, with its
    /// [`BowVector::similarity`] to `query`. `keep` sees each sharing
    /// keyframe once, in the same order.
    pub(crate) fn scores(
        &self,
        query: &BowVector,
        mut keep: impl FnMut(KeyframeId) -> bool,
    ) -> Vec<(KeyframeId, f64)> {
        let mut sharing = vec![false; self.vectors.len()];
        let mut weights = vec![0.0f64; self.inverted.len()];
        for &(word, weight) in query.entries() {
            if let Some(ids) = self.inverted.get(word as usize) {
                weights[word as usize] = weight;
                for &id in ids {
                    sharing[id] = true;
                }
            }
        }
        sharing
            .iter()
            .enumerate()
            .filter(|&(id, &shares)| shares && keep(id))
            .map(|(id, _)| {
                let score = self.vectors[id]
                    .entries()
                    .iter()
                    .fold(0.0, |sum, &(word, weight)| {
                        sum + weights[word as usize].min(weight)
                    });
                (id, score)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslam_features::bow::{BowParams, Vocabulary};
    use eslam_features::Descriptor;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The retrieval walk before the shared index: the query words'
    /// keyframe lists through a hash map, concatenated, sorted and
    /// deduplicated, then `similarity` per accepted keyframe.
    fn sort_dedup_scores(
        vectors: &[BowVector],
        query: &BowVector,
        keep: &mut dyn FnMut(KeyframeId) -> bool,
    ) -> Vec<(KeyframeId, f64)> {
        let mut inverted: HashMap<u32, Vec<KeyframeId>> = HashMap::new();
        for (id, vector) in vectors.iter().enumerate() {
            for &(word, _) in vector.entries() {
                inverted.entry(word).or_default().push(id);
            }
        }
        let mut sharing: Vec<KeyframeId> = Vec::new();
        for &(word, _) in query.entries() {
            if let Some(ids) = inverted.get(&word) {
                sharing.extend_from_slice(ids);
            }
        }
        sharing.sort_unstable();
        sharing.dedup();
        sharing
            .into_iter()
            .filter(|&id| keep(id))
            .map(|id| (id, query.similarity(&vectors[id])))
            .collect()
    }

    /// A splitmix stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    /// `n` descriptors, each one of four family patterns with a few
    /// random bits flipped, so that documents share some words.
    fn descriptors(n: usize, next: &mut impl FnMut() -> u64) -> Vec<Descriptor> {
        const FAMILIES: [u64; 4] = [0, u64::MAX, 0xaaaa_aaaa_aaaa_aaaa, 0x0f0f_0f0f_0f0f_0f0f];
        (0..n)
            .map(|_| {
                let p = FAMILIES[(next() % 4) as usize];
                let mut words = [p, !p, p ^ 0xabcd, p];
                for _ in 0..24 {
                    let bit = next() % 256;
                    words[(bit / 64) as usize] ^= 1 << (bit % 64);
                }
                Descriptor::from_words(words)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The mask-plus-dense walk yields the ids, the `keep` calls and
        /// the scores (by `f64::to_bits`) of the sort/dedup walk, over
        /// tf and tf-idf vectors, and empty keyframes and queries.
        #[test]
        fn scores_equal_the_sort_dedup_walk(
            seed in any::<u64>(),
            keyframes in 0usize..14,
            tfidf in any::<bool>(),
            skip in 0usize..4,
        ) {
            let mut next = stream(seed);
            let mut vocabulary =
                Vocabulary::train(&descriptors(200, &mut next), &BowParams::default()).unwrap();
            let documents: Vec<Vec<Descriptor>> = (0..keyframes)
                .map(|_| {
                    let n = (next() % 60) as usize;
                    descriptors(n, &mut next)
                })
                .collect();
            if tfidf {
                vocabulary.train_idf(documents.iter().map(Vec::as_slice));
            }
            let mut index = BowIndex::default();
            let mut vectors = Vec::new();
            for document in &documents {
                let vector = vocabulary.tfidf_vector_of(document);
                prop_assert_eq!(index.push(vector.clone()), vectors.len());
                vectors.push(vector);
            }

            let n = (next() % 80) as usize;
            let query = vocabulary.tfidf_vector_of(&descriptors(n, &mut next));
            let (mut seen, mut seen_oracle) = (Vec::new(), Vec::new());
            let scores = index.scores(&query, |id| {
                seen.push(id);
                id % 4 != skip
            });
            let oracle = sort_dedup_scores(&vectors, &query, &mut |id| {
                seen_oracle.push(id);
                id % 4 != skip
            });
            prop_assert_eq!(seen, seen_oracle);
            let bits = |s: &[(KeyframeId, f64)]| -> Vec<(KeyframeId, u64)> {
                s.iter().map(|&(id, score)| (id, score.to_bits())).collect()
            };
            prop_assert_eq!(bits(&scores), bits(&oracle));
        }
    }
}
