//! Bag-of-binary-words vocabulary for place recognition.
//!
//! Loop closure needs to answer "have I seen this view before?" without
//! matching the current frame against every stored keyframe. The
//! standard tool (DBoW-style) is a hierarchical vocabulary over binary
//! descriptors: a k-ary tree whose nodes are 256-bit cluster centres;
//! quantizing a descriptor walks the tree by Hamming distance to a leaf
//! *word*, and a whole frame becomes a sparse, L1-normalized
//! [`BowVector`] of word weights. Two frames of the same place share
//! words; two frames of different places share few — so candidate
//! retrieval reduces to a sparse-vector [`BowVector::similarity`] (plus
//! an inverted word→keyframe index on the caller's side) instead of an
//! O(N·M²) descriptor match.
//!
//! The vocabulary here is trained **online** by deterministic k-medians
//! ("k-majority" for binary strings: the cluster representative takes
//! each bit by majority vote): seeds are index-strided rather than
//! random, ties break toward the lowest cluster index, and the
//! recursion splits clusters in a fixed order — so training the same
//! descriptor set always yields the same tree, which the backend's
//! bit-identical sync/async guarantee relies on.
//!
//! For map persistence a trained vocabulary round-trips through
//! [`VocabularyParts`] ([`Vocabulary::to_parts`] /
//! [`Vocabulary::from_parts`] — the importer re-validates every tree
//! invariant, so a corrupted file can never produce a vocabulary whose
//! quantization walk loops or indexes out of bounds), and can carry
//! optional **idf** (inverse document frequency) weights trained over a
//! keyframe corpus ([`Vocabulary::train_idf`]): cold-start
//! relocalization queries use [`Vocabulary::tfidf_vector_of`] to
//! down-weight words that appear in most keyframes. The idf channel is
//! strictly opt-in — [`Vocabulary::vector_of`] and the online loop
//! detector's scoring are untouched by it.
//!
//! Quantization ([`Vocabulary::vector_of`]) walks each descriptor down
//! the tree in one word loop, compiled twice from one source: once for
//! the target's baseline features, where `count_ones` is a
//! bit-twiddling sequence, and once with `popcnt` enabled, chosen at
//! run time. Both give every descriptor the word [`Vocabulary::word_of`]
//! gives it, and the words are counted in a dense per-word histogram.

use crate::descriptor::{Descriptor, DESCRIPTOR_BITS};

/// Parameters of the vocabulary tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BowParams {
    /// Branching factor `k` of the tree (clusters per node, ≥ 2).
    pub branching: usize,
    /// Maximum depth of the tree (levels of clustering below the root,
    /// ≥ 1). Leaves at depth `levels` (or clusters too small to split)
    /// become words; `branching^levels` bounds the word count.
    pub levels: usize,
    /// k-medians refinement rounds per split (the assignment usually
    /// stabilizes in a handful).
    pub iterations: usize,
}

impl Default for BowParams {
    fn default() -> Self {
        BowParams {
            branching: 8,
            levels: 3,
            iterations: 6,
        }
    }
}

/// One node of the vocabulary tree.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    /// Cluster centre (bitwise majority of the training descriptors
    /// assigned to this node).
    centroid: Descriptor,
    /// Child node indices (empty for leaves).
    children: Vec<usize>,
    /// Word id (leaves only).
    word: Option<u32>,
}

/// A trained hierarchical binary vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct Vocabulary {
    nodes: Vec<Node>,
    /// Children of the (virtual) root.
    roots: Vec<usize>,
    words: usize,
    /// Optional per-word idf weights ([`Vocabulary::train_idf`]);
    /// `None` straight after [`Vocabulary::train`].
    idf: Option<Vec<f64>>,
}

/// One node of a vocabulary tree in exported form — the serializable
/// mirror of the private tree node (see [`Vocabulary::to_parts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VocabularyNode {
    /// Cluster centre (bitwise majority of the training descriptors).
    pub centroid: Descriptor,
    /// Child node indices (empty for leaves). Training emits parents
    /// before children, so every child index is strictly greater than
    /// its parent's — [`Vocabulary::from_parts`] enforces this, which
    /// is what guarantees the quantization walk terminates.
    pub children: Vec<usize>,
    /// Word id (leaves only).
    pub word: Option<u32>,
}

/// The complete exported state of a [`Vocabulary`] — everything needed
/// to rebuild it bit-identically on another machine or after a process
/// restart. Produced by [`Vocabulary::to_parts`]; consumed (with full
/// re-validation) by [`Vocabulary::from_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct VocabularyParts {
    /// Flattened tree nodes, parents strictly before children.
    pub nodes: Vec<VocabularyNode>,
    /// Children of the (virtual) root.
    pub roots: Vec<usize>,
    /// Number of words (leaves); leaf word ids are exactly `0..words`.
    pub words: usize,
    /// Optional per-word idf weights (length `words` when present).
    pub idf: Option<Vec<f64>>,
}

impl Vocabulary {
    /// Trains a vocabulary on `descriptors` by recursive deterministic
    /// k-medians. Returns `None` when there are fewer descriptors than
    /// the branching factor (no meaningful clustering possible).
    pub fn train(descriptors: &[Descriptor], params: &BowParams) -> Option<Vocabulary> {
        let k = params.branching.max(2);
        if descriptors.len() < k {
            return None;
        }
        let mut vocab = Vocabulary {
            nodes: Vec::new(),
            roots: Vec::new(),
            words: 0,
            idf: None,
        };
        let all: Vec<usize> = (0..descriptors.len()).collect();
        vocab.roots = vocab.split(descriptors, &all, params.levels.max(1), params);
        Some(vocab)
    }

    /// Number of words (leaves) in the vocabulary.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Clusters `members` into up to `k` children, recursing while
    /// `depth` and cluster sizes allow; returns the child node indices.
    fn split(
        &mut self,
        descriptors: &[Descriptor],
        members: &[usize],
        depth: usize,
        params: &BowParams,
    ) -> Vec<usize> {
        let k = params.branching.max(2).min(members.len());
        // Deterministic seeding: index-strided members (always distinct
        // indices; duplicate *values* merely yield an empty cluster).
        let mut centroids: Vec<Descriptor> = (0..k)
            .map(|c| descriptors[members[c * members.len() / k]])
            .collect();
        let mut assignment: Vec<usize> = vec![0; members.len()];
        for _ in 0..params.iterations.max(1) {
            // Assign each member to the nearest centroid (ties: lowest
            // cluster index).
            let mut changed = false;
            for (slot, &m) in members.iter().enumerate() {
                let d = &descriptors[m];
                let mut best = (u32::MAX, 0usize);
                for (c, centroid) in centroids.iter().enumerate() {
                    let dist = d.hamming(centroid);
                    if dist < best.0 {
                        best = (dist, c);
                    }
                }
                if assignment[slot] != best.1 {
                    assignment[slot] = best.1;
                    changed = true;
                }
            }
            // Recompute centroids by bitwise majority vote.
            for (c, centroid) in centroids.iter_mut().enumerate() {
                let cluster: Vec<usize> = members
                    .iter()
                    .zip(&assignment)
                    .filter(|(_, &a)| a == c)
                    .map(|(&m, _)| m)
                    .collect();
                if !cluster.is_empty() {
                    *centroid = majority(descriptors, &cluster);
                }
            }
            if !changed {
                break;
            }
        }
        // Emit children in cluster order; recurse or close as words.
        let mut children = Vec::new();
        for (c, &centroid) in centroids.iter().enumerate() {
            let cluster: Vec<usize> = members
                .iter()
                .zip(&assignment)
                .filter(|(_, &a)| a == c)
                .map(|(&m, _)| m)
                .collect();
            if cluster.is_empty() {
                continue;
            }
            let node = self.nodes.len();
            self.nodes.push(Node {
                centroid,
                children: Vec::new(),
                word: None,
            });
            children.push(node);
            if depth > 1 && cluster.len() > params.branching.max(2) {
                let grandchildren = self.split(descriptors, &cluster, depth - 1, params);
                self.nodes[node].children = grandchildren;
            } else {
                let word = self.words as u32;
                self.words += 1;
                self.nodes[node].word = Some(word);
            }
        }
        children
    }

    /// Quantizes one descriptor to its word id by walking the tree
    /// (nearest child by Hamming distance, ties toward the first).
    /// Always inlined, so each compiled instance of
    /// [`Vocabulary::vector_of`]'s word loop walks with its own
    /// `count_ones`.
    #[inline(always)]
    pub fn word_of(&self, descriptor: &Descriptor) -> u32 {
        let mut level = &self.roots;
        loop {
            let mut best = (u32::MAX, usize::MAX);
            for &child in level {
                let dist = descriptor.hamming(&self.nodes[child].centroid);
                if dist < best.0 {
                    best = (dist, child);
                }
            }
            let node = &self.nodes[best.1];
            match node.word {
                Some(w) => return w,
                None => level = &node.children,
            }
        }
    }

    /// Quantizes a whole frame's descriptors into an L1-normalized
    /// sparse [`BowVector`] (term-frequency weights).
    ///
    /// The word loop runs the `popcnt` instance where the CPU has the
    /// instruction and the baseline instance elsewhere. Words are
    /// counted in a dense per-word histogram and collected in word
    /// order, so each weight is its exact count over the exact total.
    pub fn vector_of(&self, descriptors: &[Descriptor]) -> BowVector {
        let mut words = vec![0u32; descriptors.len()];
        self.words_into(descriptors, &mut words);
        let mut counts = vec![0u32; self.words];
        for &w in &words {
            counts[w as usize] += 1;
        }
        let mut entries: Vec<(u32, f64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(w, &c)| (w as u32, f64::from(c)))
            .collect();
        let total: f64 = entries.iter().map(|e| e.1).sum();
        if total > 0.0 {
            for e in &mut entries {
                e.1 /= total;
            }
        }
        BowVector { entries }
    }

    /// The word loop: `words[i]` becomes the word of `descriptors[i]`.
    fn words_into(&self, descriptors: &[Descriptor], words: &mut [u32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: popcnt was detected on this CPU.
            unsafe { self.words_into_popcnt(descriptors, words) };
            return;
        }
        self.words_into_baseline(descriptors, words);
    }

    /// The word loop compiled for the target's baseline features: the
    /// only instance on hosts without `popcnt`.
    fn words_into_baseline(&self, descriptors: &[Descriptor], words: &mut [u32]) {
        self.word_loop(descriptors, words);
    }

    /// The word loop compiled with `popcnt` enabled: the same source as
    /// [`Self::words_into_baseline`], one `popcnt` per descriptor word.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn words_into_popcnt(&self, descriptors: &[Descriptor], words: &mut [u32]) {
        self.word_loop(descriptors, words);
    }

    /// The word loop itself, inlined into each compiled instance.
    #[inline(always)]
    fn word_loop(&self, descriptors: &[Descriptor], words: &mut [u32]) {
        for (d, w) in descriptors.iter().zip(words.iter_mut()) {
            *w = self.word_of(d);
        }
    }

    /// Trains per-word idf (inverse document frequency) weights over a
    /// corpus of documents (one descriptor set per keyframe, say) and
    /// attaches them to the vocabulary. Uses the smooth formulation
    /// `idf(w) = ln((1 + N) / (1 + n_w)) + 1` (N documents, `n_w`
    /// containing word `w`), which is strictly positive and defined
    /// even for words no document contains — so a tf-idf vector can
    /// never lose words outright, only down-weight them.
    ///
    /// Each document's words come from [`Vocabulary::vector_of`],
    /// whose entries are exactly its distinct words.
    ///
    /// This only affects [`Vocabulary::tfidf_vector_of`];
    /// [`Vocabulary::vector_of`] (and everything built on it, like the
    /// online loop detector) is unchanged.
    pub fn train_idf<'a, I>(&mut self, documents: I)
    where
        I: IntoIterator<Item = &'a [Descriptor]>,
    {
        let mut containing = vec![0u64; self.words];
        let mut total_docs = 0u64;
        for doc in documents {
            total_docs += 1;
            for &(w, _) in self.vector_of(doc).entries() {
                containing[w as usize] += 1;
            }
        }
        self.idf = Some(
            containing
                .iter()
                .map(|&n| ((1.0 + total_docs as f64) / (1.0 + n as f64)).ln() + 1.0)
                .collect(),
        );
    }

    /// The trained per-word idf weights, if [`Vocabulary::train_idf`]
    /// has run (or the imported parts carried them).
    pub fn idf(&self) -> Option<&[f64]> {
        self.idf.as_deref()
    }

    /// Quantizes a frame into an L1-normalized **tf-idf** weighted
    /// sparse vector: term frequencies scaled by the trained idf
    /// weights, then renormalized. Falls back to plain term-frequency
    /// weighting ([`Vocabulary::vector_of`]) when no idf weights are
    /// attached, so callers need not branch on idf availability.
    pub fn tfidf_vector_of(&self, descriptors: &[Descriptor]) -> BowVector {
        let mut v = self.vector_of(descriptors);
        let Some(idf) = &self.idf else {
            return v;
        };
        for e in &mut v.entries {
            e.1 *= idf[e.0 as usize];
        }
        let total: f64 = v.entries.iter().map(|e| e.1).sum();
        if total > 0.0 {
            for e in &mut v.entries {
                e.1 /= total;
            }
        }
        v
    }

    /// Exports the complete vocabulary state for serialization. The
    /// round trip `Vocabulary::from_parts(vocab.to_parts())` is exact:
    /// the reimported vocabulary compares equal and quantizes every
    /// descriptor to the same word.
    pub fn to_parts(&self) -> VocabularyParts {
        VocabularyParts {
            nodes: self
                .nodes
                .iter()
                .map(|n| VocabularyNode {
                    centroid: n.centroid,
                    children: n.children.clone(),
                    word: n.word,
                })
                .collect(),
            roots: self.roots.clone(),
            words: self.words,
            idf: self.idf.clone(),
        }
    }

    /// Rebuilds a vocabulary from exported parts, re-validating every
    /// structural invariant the quantization walk relies on — node
    /// indices in range, children strictly after their parent (the tree
    /// is acyclic and the walk terminates), every node either a leaf
    /// (word, no children) or internal (children, no word), word ids
    /// exactly `0..words` with one leaf each, and idf weights (when
    /// present) finite, non-negative and of length `words`. Returns a
    /// description of the first violation instead, so corrupted or
    /// adversarial files surface as typed errors upstream rather than
    /// hangs or panics. Non-negative idf keeps every tf-idf weight
    /// non-negative, which retrieval's dense scoring relies on.
    pub fn from_parts(parts: VocabularyParts) -> Result<Vocabulary, String> {
        let n = parts.nodes.len();
        if parts.roots.is_empty() {
            return Err("vocabulary has no root children".into());
        }
        for &r in &parts.roots {
            if r >= n {
                return Err(format!("root child index {r} out of range ({n} nodes)"));
            }
        }
        let mut word_seen = vec![false; parts.words];
        let mut leaves = 0usize;
        for (i, node) in parts.nodes.iter().enumerate() {
            match node.word {
                Some(w) => {
                    if !node.children.is_empty() {
                        return Err(format!("node {i} is both a leaf and internal"));
                    }
                    let w = w as usize;
                    if w >= parts.words {
                        return Err(format!(
                            "node {i} word id {w} out of range ({} words)",
                            parts.words
                        ));
                    }
                    if word_seen[w] {
                        return Err(format!("word id {w} assigned to more than one leaf"));
                    }
                    word_seen[w] = true;
                    leaves += 1;
                }
                None => {
                    if node.children.is_empty() {
                        return Err(format!("internal node {i} has no children"));
                    }
                    for &c in &node.children {
                        if c >= n {
                            return Err(format!(
                                "node {i} child index {c} out of range ({n} nodes)"
                            ));
                        }
                        if c <= i {
                            return Err(format!(
                                "node {i} child index {c} not strictly after its parent"
                            ));
                        }
                    }
                }
            }
        }
        if leaves != parts.words {
            return Err(format!(
                "{leaves} leaves but {} words declared",
                parts.words
            ));
        }
        if let Some(idf) = &parts.idf {
            if idf.len() != parts.words {
                return Err(format!(
                    "idf length {} does not match {} words",
                    idf.len(),
                    parts.words
                ));
            }
            if let Some(bad) = idf.iter().find(|v| !v.is_finite()) {
                return Err(format!("non-finite idf weight {bad}"));
            }
            if let Some(bad) = idf.iter().find(|&&v| v < 0.0) {
                return Err(format!("negative idf weight {bad}"));
            }
        }
        Ok(Vocabulary {
            nodes: parts
                .nodes
                .into_iter()
                .map(|n| Node {
                    centroid: n.centroid,
                    children: n.children,
                    word: n.word,
                })
                .collect(),
            roots: parts.roots,
            words: parts.words,
            idf: parts.idf,
        })
    }
}

/// Bitwise majority vote over a set of descriptors (the binary-space
/// "median": ties — an exact half split — leave the bit cleared).
fn majority(descriptors: &[Descriptor], members: &[usize]) -> Descriptor {
    let mut counts = [0u32; DESCRIPTOR_BITS];
    for &m in members {
        let d = &descriptors[m];
        for (w, &word) in d.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                counts[w * 64 + b] += 1;
                bits &= bits - 1;
            }
        }
    }
    let half = members.len() as u32;
    let mut out = Descriptor::ZERO;
    for (i, &c) in counts.iter().enumerate() {
        if 2 * c > half {
            out.set_bit(i, true);
        }
    }
    out
}

/// A sparse, L1-normalized word-frequency vector (one per frame or
/// keyframe), sorted by word id. Weights are never negative: term
/// frequencies, scaled by non-negative idf weights for tf-idf vectors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BowVector {
    /// `(word, weight)` entries, sorted by word, weights summing to 1.
    entries: Vec<(u32, f64)>,
}

impl BowVector {
    /// An empty vector (no words — similarity 0 to everything).
    pub fn empty() -> BowVector {
        BowVector::default()
    }

    /// The `(word, weight)` entries, sorted by word id.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Whether the vector holds no words.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Histogram-intersection similarity `Σ min(wᵃ, wᵇ)` over common
    /// words — 1 for identical distributions, 0 for disjoint word sets.
    /// A linear merge over the two sorted entry lists.
    pub fn similarity(&self, other: &BowVector) -> f64 {
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j, mut score) = (0usize, 0usize, 0.0f64);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    score += a[i].1.min(b[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random descriptor "around" a seed pattern:
    /// `flips` bits of the seed pattern are toggled, selected by `salt`.
    fn descriptor_near(pattern: u64, flips: usize, salt: u64) -> Descriptor {
        let mut d = Descriptor::from_words([pattern, !pattern, pattern ^ 0xabcd, pattern]);
        let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..flips {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bit = (state >> 33) as usize % DESCRIPTOR_BITS;
            d.set_bit(bit, !d.bit(bit));
        }
        d
    }

    /// Three well-separated descriptor families.
    fn three_places(per_family: usize) -> Vec<Descriptor> {
        let mut out = Vec::new();
        for (f, pattern) in [0u64, u64::MAX, 0xaaaa_aaaa_aaaa_aaaa]
            .into_iter()
            .enumerate()
        {
            for i in 0..per_family {
                out.push(descriptor_near(pattern, 12, (f * 1000 + i) as u64));
            }
        }
        out
    }

    #[test]
    fn training_needs_enough_descriptors() {
        let few = vec![Descriptor::ZERO; 3];
        assert!(Vocabulary::train(&few, &BowParams::default()).is_none());
        let enough = three_places(4);
        assert!(Vocabulary::train(&enough, &BowParams::default()).is_some());
    }

    #[test]
    fn training_is_deterministic() {
        let data = three_places(30);
        let a = Vocabulary::train(&data, &BowParams::default()).unwrap();
        let b = Vocabulary::train(&data, &BowParams::default()).unwrap();
        assert_eq!(a, b);
        assert!(a.words() >= 3, "words {}", a.words());
    }

    #[test]
    fn same_family_lands_on_same_words() {
        let data = three_places(30);
        let vocab = Vocabulary::train(&data, &BowParams::default()).unwrap();
        // Fresh descriptors from each family quantize like their
        // training siblings: intra-family similarity far above
        // inter-family.
        let frame = |pattern: u64, salt: u64| -> BowVector {
            let ds: Vec<Descriptor> = (0..20)
                .map(|i| descriptor_near(pattern, 12, salt + i))
                .collect();
            vocab.vector_of(&ds)
        };
        let a1 = frame(0, 5000);
        let a2 = frame(0, 6000);
        let b1 = frame(u64::MAX, 7000);
        let intra = a1.similarity(&a2);
        let inter = a1.similarity(&b1);
        assert!(
            intra > inter + 0.3,
            "intra {intra} should dominate inter {inter}"
        );
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let data = three_places(20);
        let vocab = Vocabulary::train(&data, &BowParams::default()).unwrap();
        let v1 = vocab.vector_of(&data[..20]);
        let v2 = vocab.vector_of(&data[20..40]);
        let s12 = v1.similarity(&v2);
        let s21 = v2.similarity(&v1);
        assert_eq!(s12, s21);
        assert!((0.0..=1.0).contains(&s12));
        // Self-similarity of a normalized vector is exactly 1.
        assert!((v1.similarity(&v1) - 1.0).abs() < 1e-12);
        // Empty vectors are similar to nothing.
        assert_eq!(BowVector::empty().similarity(&v1), 0.0);
    }

    #[test]
    fn vector_entries_are_sorted_and_normalized() {
        let data = three_places(20);
        let vocab = Vocabulary::train(&data, &BowParams::default()).unwrap();
        let v = vocab.vector_of(&data);
        let entries = v.entries();
        assert!(!entries.is_empty());
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "entries sorted by word");
        }
        let total: f64 = entries.iter().map(|e| e.1).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn word_of_matches_vector_of() {
        let data = three_places(12);
        let vocab = Vocabulary::train(&data, &BowParams::default()).unwrap();
        let d = descriptor_near(0, 5, 99);
        let w = vocab.word_of(&d);
        let v = vocab.vector_of(std::slice::from_ref(&d));
        assert_eq!(v.entries(), &[(w, 1.0)]);
        assert!((w as usize) < vocab.words());
    }

    #[test]
    fn parts_round_trip_is_exact() {
        let data = three_places(30);
        let mut vocab = Vocabulary::train(&data, &BowParams::default()).unwrap();
        let docs: Vec<&[Descriptor]> = data.chunks(10).collect();
        vocab.train_idf(docs.iter().copied());
        let rebuilt = Vocabulary::from_parts(vocab.to_parts()).expect("valid parts");
        assert_eq!(vocab, rebuilt);
        for d in &data {
            assert_eq!(vocab.word_of(d), rebuilt.word_of(d));
        }
        assert_eq!(
            vocab.tfidf_vector_of(&data[..10]),
            rebuilt.tfidf_vector_of(&data[..10])
        );
    }

    #[test]
    fn from_parts_rejects_malformed_trees() {
        let data = three_places(20);
        let vocab = Vocabulary::train(&data, &BowParams::default()).unwrap();
        let good = vocab.to_parts();

        let mut no_roots = good.clone();
        no_roots.roots.clear();
        assert!(Vocabulary::from_parts(no_roots).is_err());

        let mut bad_root = good.clone();
        bad_root.roots[0] = good.nodes.len();
        assert!(Vocabulary::from_parts(bad_root).is_err());

        // A child pointing at (or before) its parent would make the
        // quantization walk loop forever — must be rejected.
        let mut cyclic = good.clone();
        if let Some(internal) = cyclic.nodes.iter().position(|n| !n.children.is_empty()) {
            cyclic.nodes[internal].children[0] = internal;
            assert!(Vocabulary::from_parts(cyclic).is_err());
        }

        let mut dup_word = good.clone();
        let leaf_ids: Vec<usize> = dup_word
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.word.is_some())
            .map(|(i, _)| i)
            .collect();
        assert!(leaf_ids.len() >= 2, "need two leaves to duplicate a word");
        dup_word.nodes[leaf_ids[1]].word = dup_word.nodes[leaf_ids[0]].word;
        assert!(Vocabulary::from_parts(dup_word).is_err());

        let mut bad_idf = good.clone();
        bad_idf.idf = Some(vec![f64::NAN; good.words]);
        assert!(Vocabulary::from_parts(bad_idf).is_err());

        let mut negative_idf = good.clone();
        negative_idf.idf = Some(vec![1.0; good.words]);
        negative_idf.idf.as_mut().unwrap()[0] = -0.5;
        assert!(Vocabulary::from_parts(negative_idf).is_err());

        let mut short_idf = good;
        short_idf.idf = Some(vec![1.0]);
        assert!(Vocabulary::from_parts(short_idf).is_err());
    }

    #[test]
    fn idf_down_weights_ubiquitous_words() {
        let data = three_places(30);
        let mut vocab = Vocabulary::train(&data, &BowParams::default()).unwrap();
        assert!(vocab.idf().is_none());
        // tf-idf without idf falls back to plain tf.
        assert_eq!(
            vocab.tfidf_vector_of(&data[..10]),
            vocab.vector_of(&data[..10])
        );
        // Documents: family A appears in every document (ubiquitous),
        // families B and C in one third each.
        let docs: Vec<Vec<Descriptor>> = (0..6)
            .map(|i| {
                let mut d: Vec<Descriptor> = data[..10].to_vec(); // family A
                let other = 30 + (i % 2) * 30; // B or C
                d.extend_from_slice(&data[other..other + 10]);
                d
            })
            .collect();
        vocab.train_idf(docs.iter().map(|d| d.as_slice()));
        let idf = vocab.idf().expect("trained");
        assert_eq!(idf.len(), vocab.words());
        // The weights equal a document count taken through `word_of`.
        let mut containing = vec![0u64; vocab.words()];
        for doc in &docs {
            let mut words: Vec<u32> = doc.iter().map(|d| vocab.word_of(d)).collect();
            words.sort_unstable();
            words.dedup();
            for w in words {
                containing[w as usize] += 1;
            }
        }
        let by_word_of: Vec<u64> = containing
            .iter()
            .map(|&n| ((1.0 + docs.len() as f64) / (1.0 + n as f64)).ln() + 1.0)
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            idf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            by_word_of
        );
        assert!(idf.iter().all(|v| v.is_finite() && *v > 0.0));
        // A word every document contains gets the minimum weight; the
        // family-A words are those, so their idf sits strictly below
        // the idf of the rarer family-B words.
        let word_a = vocab.word_of(&data[0]) as usize;
        let word_b = vocab.word_of(&data[30]) as usize;
        assert!(
            idf[word_a] < idf[word_b],
            "ubiquitous {} vs rare {}",
            idf[word_a],
            idf[word_b]
        );
        // The weighted vector stays normalized.
        let v = vocab.tfidf_vector_of(&docs[0]);
        let total: f64 = v.entries().iter().map(|e| e.1).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn majority_vote_takes_each_bit_by_majority() {
        let mut a = Descriptor::ZERO;
        let mut b = Descriptor::ZERO;
        let mut c = Descriptor::ZERO;
        a.set_bit(0, true); // bit 0: 1/3 → clear
        a.set_bit(7, true);
        b.set_bit(7, true); // bit 7: 2/3 → set
        c.set_bit(255, true); // bit 255: 1/3 → clear
        let all = [a, b, c];
        let m = majority(&all, &[0, 1, 2]);
        assert!(!m.bit(0));
        assert!(m.bit(7));
        assert!(!m.bit(255));
        // Exact half split (2-of-4) clears the bit deterministically.
        let m2 = majority(&[a, b, c, Descriptor::ZERO], &[0, 1, 2, 3]);
        assert!(!m2.bit(7), "2/4 is a tie, bit stays clear");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn descriptors_from(words: &[u64]) -> Vec<Descriptor> {
            words
                .chunks(4)
                .filter(|c| c.len() == 4)
                .map(|c| Descriptor::from_words([c[0], c[1], c[2], c[3]]))
                .collect()
        }

        /// `vector_of` before the dense histogram: a sorted insert per
        /// descriptor, as `(word, weight bits)`.
        fn vector_by_sorted_insert(
            vocab: &Vocabulary,
            descriptors: &[Descriptor],
        ) -> Vec<(u32, u64)> {
            let mut entries: Vec<(u32, f64)> = Vec::new();
            for d in descriptors {
                let w = vocab.word_of(d);
                match entries.binary_search_by_key(&w, |e| e.0) {
                    Ok(i) => entries[i].1 += 1.0,
                    Err(i) => entries.insert(i, (w, 1.0)),
                }
            }
            let total: f64 = entries.iter().map(|e| e.1).sum();
            if total > 0.0 {
                for e in &mut entries {
                    e.1 /= total;
                }
            }
            entries.iter().map(|&(w, x)| (w, x.to_bits())).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Both compiled instances of the word loop give every
            /// descriptor the word `word_of` gives it, on a vocabulary
            /// trained on descriptor families or on random descriptors,
            /// for random queries, repeated query rows and training
            /// descriptors themselves; `vector_of` equals the sorted
            /// insert it replaced, weight bits included.
            #[test]
            fn word_loop_instances_equal_word_of(
                families in any::<bool>(),
                train_words in proptest::collection::vec(any::<u64>(), 32..256),
                query_words in proptest::collection::vec(any::<u64>(), 0..256),
                dup in any::<usize>(),
            ) {
                let train = if families { three_places(30) } else { descriptors_from(&train_words) };
                let vocab = Vocabulary::train(&train, &BowParams::default()).unwrap();
                let mut query = descriptors_from(&query_words);
                if let Some(&repeated) = query.get(dup % query.len().max(1)) {
                    query.push(repeated);
                    query.push(repeated);
                }
                query.extend(train.iter().skip(dup % 3).step_by(3));
                query.push(train[dup % train.len()]);
                let expect: Vec<u32> = query.iter().map(|d| vocab.word_of(d)).collect();

                let mut words = vec![u32::MAX; query.len()];
                vocab.words_into_baseline(&query, &mut words);
                prop_assert_eq!(&words, &expect, "baseline");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("popcnt") {
                    let mut words = vec![u32::MAX; query.len()];
                    // SAFETY: popcnt was detected on this CPU.
                    unsafe { vocab.words_into_popcnt(&query, &mut words) };
                    prop_assert_eq!(&words, &expect, "popcnt");
                }

                let vector: Vec<(u32, u64)> = vocab
                    .vector_of(&query)
                    .entries()
                    .iter()
                    .map(|&(w, x)| (w, x.to_bits()))
                    .collect();
                prop_assert_eq!(vector, vector_by_sorted_insert(&vocab, &query));
            }

            /// Every descriptor quantizes to a valid word, and the frame
            /// vector stays normalized, for arbitrary inputs.
            #[test]
            fn quantization_total_and_in_range(
                train_words in proptest::collection::vec(any::<u64>(), 32..256),
                query_words in proptest::collection::vec(any::<u64>(), 4..128),
            ) {
                let train = descriptors_from(&train_words);
                let query = descriptors_from(&query_words);
                let vocab = Vocabulary::train(&train, &BowParams::default()).unwrap();
                prop_assert!(vocab.words() >= 1);
                for d in &query {
                    prop_assert!((vocab.word_of(d) as usize) < vocab.words());
                }
                let v = vocab.vector_of(&query);
                let total: f64 = v.entries().iter().map(|e| e.1).sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
                for w in v.entries().windows(2) {
                    prop_assert!(w[0].0 < w[1].0);
                }
            }
        }
    }
}
