//! The covisibility graph: keyframes weighted by shared landmark
//! observations.
//!
//! Two keyframes are *covisible* when they observe common landmarks;
//! the edge weight is the number of shared observations, exactly the
//! ORB-SLAM covisibility notion. The graph is maintained incrementally
//! as keyframes are inserted (the mapper computes each new keyframe's
//! shared-landmark counts from its inverted landmark→keyframes index)
//! and answers the neighbourhood queries the backend uses to reason
//! about map connectivity.
//!
//! Determinism: adjacency is stored in [`BTreeMap`]s and
//! [`CovisibilityGraph::neighbors`] orders ties by id, so every query
//! is reproducible — a requirement for the backend's bit-identical
//! sync/async guarantee.

use crate::keyframe::KeyframeId;
use std::collections::BTreeMap;

/// Undirected keyframe graph weighted by shared-observation counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CovisibilityGraph {
    /// Per-keyframe adjacency: neighbour id → shared observations.
    adjacency: Vec<BTreeMap<KeyframeId, usize>>,
}

impl CovisibilityGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        CovisibilityGraph::default()
    }

    /// Number of keyframe nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Appends a node for the next keyframe id and returns it.
    pub fn add_node(&mut self) -> KeyframeId {
        self.adjacency.push(BTreeMap::new());
        self.adjacency.len() - 1
    }

    /// Adds `shared` to the weight of edge `(a, b)` (both directions).
    ///
    /// # Panics
    /// Panics if either id is out of range, or `a == b` (keyframes are
    /// not covisible with themselves).
    pub fn accumulate(&mut self, a: KeyframeId, b: KeyframeId, shared: usize) {
        assert_ne!(a, b, "covisibility is irreflexive");
        assert!(a < self.adjacency.len() && b < self.adjacency.len());
        if shared == 0 {
            return;
        }
        *self.adjacency[a].entry(b).or_insert(0) += shared;
        *self.adjacency[b].entry(a).or_insert(0) += shared;
    }

    /// The weight of edge `(a, b)` (0 when not connected).
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn weight(&self, a: KeyframeId, b: KeyframeId) -> usize {
        self.adjacency[a].get(&b).copied().unwrap_or(0)
    }

    /// Neighbours of `a` with weight ≥ `min_weight`, ordered by
    /// descending weight (ties: ascending id — deterministic).
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn neighbors(&self, a: KeyframeId, min_weight: usize) -> Vec<(KeyframeId, usize)> {
        let mut out: Vec<(KeyframeId, usize)> = self.adjacency[a]
            .iter()
            .filter(|(_, &w)| w >= min_weight.max(1))
            .map(|(&id, &w)| (id, w))
            .collect();
        out.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        out
    }

    /// Total degree (sum of edge weights) of keyframe `a`.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn degree(&self, a: KeyframeId) -> usize {
        self.adjacency[a].values().sum()
    }

    /// Every keyframe reachable from `a` within `max_hops` edges of
    /// weight ≥ `min_weight`, **including `a` itself** — the
    /// covisibility neighbourhood the loop detector gates candidates
    /// against ("a true loop is a place the graph does *not* already
    /// connect you to"). BFS over the BTreeMap adjacency, so the
    /// traversal (and the returned sorted ids) is deterministic.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn within_distance(
        &self,
        a: KeyframeId,
        max_hops: usize,
        min_weight: usize,
    ) -> Vec<KeyframeId> {
        assert!(a < self.adjacency.len());
        let mut seen = vec![false; self.adjacency.len()];
        seen[a] = true;
        let mut frontier = vec![a];
        for _ in 0..max_hops {
            let mut next = Vec::new();
            for &node in &frontier {
                for (&nb, &w) in &self.adjacency[node] {
                    if w >= min_weight.max(1) && !seen[nb] {
                        seen[nb] = true;
                        next.push(nb);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(id, _)| id)
            .collect()
    }

    /// Every undirected edge as `(a, b, weight)` with `a < b`, ordered
    /// by `(a, b)` — the canonical export for serialization (each edge
    /// appears once; [`CovisibilityGraph::from_edges`] restores both
    /// directions).
    pub fn edges(&self) -> Vec<(KeyframeId, KeyframeId, usize)> {
        let mut out = Vec::new();
        for (a, adj) in self.adjacency.iter().enumerate() {
            for (&b, &w) in adj.range(a + 1..) {
                out.push((a, b, w));
            }
        }
        out
    }

    /// Rebuilds a graph over `nodes` keyframes from an undirected edge
    /// list (the atlas-load path). Edges must be in range, irreflexive
    /// and positively weighted; duplicates (either orientation)
    /// accumulate, matching incremental construction. Returns a
    /// description of the first violation instead of panicking, so
    /// corrupted files surface as typed errors upstream.
    pub fn from_edges(
        nodes: usize,
        edges: &[(KeyframeId, KeyframeId, usize)],
    ) -> Result<CovisibilityGraph, String> {
        let mut g = CovisibilityGraph {
            adjacency: vec![BTreeMap::new(); nodes],
        };
        for &(a, b, w) in edges {
            if a >= nodes || b >= nodes {
                return Err(format!("edge ({a}, {b}) out of range ({nodes} nodes)"));
            }
            if a == b {
                return Err(format!(
                    "self edge on keyframe {a} (covisibility is irreflexive)"
                ));
            }
            if w == 0 {
                return Err(format!("zero-weight edge ({a}, {b})"));
            }
            g.accumulate(a, b, w);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CovisibilityGraph {
        let mut g = CovisibilityGraph::new();
        for _ in 0..3 {
            g.add_node();
        }
        g.accumulate(0, 1, 10);
        g.accumulate(1, 2, 4);
        g.accumulate(0, 2, 4);
        g
    }

    #[test]
    fn weights_are_symmetric() {
        let g = triangle();
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert_eq!(g.weight(a, b), g.weight(b, a), "({a},{b})");
                }
            }
        }
        assert_eq!(g.weight(0, 1), 10);
        assert_eq!(g.weight(2, 2), 0);
    }

    #[test]
    fn accumulate_sums_shared_counts() {
        let mut g = triangle();
        g.accumulate(0, 1, 5);
        assert_eq!(g.weight(0, 1), 15);
        assert_eq!(g.degree(0), 19);
        // Zero-weight accumulation is a no-op (no phantom edges).
        g.accumulate(0, 2, 0);
        assert_eq!(g.weight(0, 2), 4);
    }

    #[test]
    fn neighbors_sorted_by_weight_then_id() {
        let g = triangle();
        assert_eq!(g.neighbors(0, 1), vec![(1, 10), (2, 4)]);
        // Ties break by ascending id: 1 and 2 both share 4 with node 2?
        // Build an explicit tie.
        let mut g = CovisibilityGraph::new();
        for _ in 0..4 {
            g.add_node();
        }
        g.accumulate(0, 3, 7);
        g.accumulate(0, 1, 7);
        g.accumulate(0, 2, 9);
        assert_eq!(g.neighbors(0, 1), vec![(2, 9), (1, 7), (3, 7)]);
        // min_weight filters.
        assert_eq!(g.neighbors(0, 8), vec![(2, 9)]);
    }

    #[test]
    #[should_panic(expected = "irreflexive")]
    fn self_edges_rejected() {
        let mut g = triangle();
        g.accumulate(1, 1, 3);
    }

    #[test]
    fn within_distance_walks_hops() {
        // A chain 0—1—2—3 plus an isolated node 4.
        let mut g = CovisibilityGraph::new();
        for _ in 0..5 {
            g.add_node();
        }
        g.accumulate(0, 1, 5);
        g.accumulate(1, 2, 5);
        g.accumulate(2, 3, 1);
        assert_eq!(g.within_distance(0, 0, 1), vec![0]);
        assert_eq!(g.within_distance(0, 1, 1), vec![0, 1]);
        assert_eq!(g.within_distance(0, 2, 1), vec![0, 1, 2]);
        assert_eq!(g.within_distance(0, 3, 1), vec![0, 1, 2, 3]);
        assert_eq!(g.within_distance(0, 99, 1), vec![0, 1, 2, 3]);
        // Weight gating prunes the weak 2—3 edge.
        assert_eq!(g.within_distance(0, 99, 2), vec![0, 1, 2]);
        // The isolated node reaches only itself.
        assert_eq!(g.within_distance(4, 10, 1), vec![4]);
    }

    #[test]
    fn edge_export_round_trips() {
        let g = triangle();
        let edges = g.edges();
        assert_eq!(edges, vec![(0, 1, 10), (0, 2, 4), (1, 2, 4)]);
        let rebuilt = CovisibilityGraph::from_edges(g.len(), &edges).unwrap();
        assert_eq!(g, rebuilt);
        // Malformed edge lists are rejected, not panicked on.
        assert!(CovisibilityGraph::from_edges(2, &[(0, 2, 1)]).is_err());
        assert!(CovisibilityGraph::from_edges(2, &[(1, 1, 1)]).is_err());
        assert!(CovisibilityGraph::from_edges(2, &[(0, 1, 0)]).is_err());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Symmetry holds for any accumulation sequence, and every
            /// neighbour list is consistent with the weights.
            #[test]
            fn covisibility_weight_symmetry(
                nodes in 2usize..8,
                edges in proptest::collection::vec(
                    (0usize..8, 0usize..8, 0usize..20), 0..32),
            ) {
                let mut g = CovisibilityGraph::new();
                for _ in 0..nodes {
                    g.add_node();
                }
                for (a, b, w) in edges {
                    let (a, b) = (a % nodes, b % nodes);
                    if a != b {
                        g.accumulate(a, b, w);
                    }
                }
                for a in 0..nodes {
                    for b in 0..nodes {
                        if a != b {
                            prop_assert_eq!(g.weight(a, b), g.weight(b, a));
                        }
                    }
                    // Neighbour lists agree with weight lookups and are
                    // sorted by (weight desc, id asc).
                    let n = g.neighbors(a, 1);
                    for w in n.windows(2) {
                        prop_assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
                    }
                    for (b, w) in n {
                        prop_assert_eq!(g.weight(a, b), w);
                        prop_assert!(w >= 1);
                    }
                }
            }
        }
    }
}
