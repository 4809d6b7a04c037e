//! Non-maximum suppression.
//!
//! The paper's NMS module "removes FAST keypoints that are too close to
//! each other, and only reserves the one with maximum Harris score in any
//! 3 × 3 pixels patch" (§3.1).

use std::collections::HashMap;

/// A scored candidate keypoint entering NMS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPoint {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
    /// Harris corner score.
    pub score: f64,
}

/// Suppresses non-maxima: a point survives iff its score is the maximum
/// within its 3×3 neighbourhood among the candidates. Ties are broken by
/// raster order (the earlier point wins), matching the deterministic
/// behaviour of the streaming hardware comparator.
///
/// Input order does not affect the result; output is in raster order.
///
/// # Examples
///
/// ```
/// use eslam_features::nms::{suppress, ScoredPoint};
/// let pts = vec![
///     ScoredPoint { x: 10, y: 10, score: 5.0 },
///     ScoredPoint { x: 11, y: 10, score: 7.0 }, // adjacent, higher
///     ScoredPoint { x: 20, y: 20, score: 1.0 }, // isolated
/// ];
/// let kept = suppress(&pts);
/// assert_eq!(kept.len(), 2);
/// assert_eq!((kept[0].x, kept[0].y), (11, 10));
/// ```
pub fn suppress(points: &[ScoredPoint]) -> Vec<ScoredPoint> {
    let index: HashMap<(u32, u32), f64> = points.iter().map(|p| ((p.x, p.y), p.score)).collect();

    let mut kept: Vec<ScoredPoint> = points
        .iter()
        .filter(|p| {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let nx = p.x as i64 + dx;
                    let ny = p.y as i64 + dy;
                    if nx < 0 || ny < 0 {
                        continue;
                    }
                    if let Some(&neighbour) = index.get(&(nx as u32, ny as u32)) {
                        if neighbour > p.score {
                            return false;
                        }
                        // Tie: earlier raster position wins.
                        if neighbour == p.score && (ny as u32, nx as u32) < (p.y, p.x) {
                            return false;
                        }
                    }
                }
            }
            true
        })
        .copied()
        .collect();
    kept.sort_by_key(|p| (p.y, p.x));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: u32, y: u32, score: f64) -> ScoredPoint {
        ScoredPoint { x, y, score }
    }

    #[test]
    fn empty_input() {
        assert!(suppress(&[]).is_empty());
    }

    #[test]
    fn isolated_points_all_survive() {
        let pts = vec![pt(0, 0, 1.0), pt(10, 0, 2.0), pt(0, 10, 3.0)];
        assert_eq!(suppress(&pts).len(), 3);
    }

    #[test]
    fn adjacent_pair_keeps_maximum() {
        let pts = vec![pt(5, 5, 1.0), pt(6, 5, 2.0)];
        let kept = suppress(&pts);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].x, 6);
    }

    #[test]
    fn diagonal_neighbours_suppress() {
        let pts = vec![pt(5, 5, 3.0), pt(6, 6, 1.0)];
        let kept = suppress(&pts);
        assert_eq!(kept.len(), 1);
        assert_eq!((kept[0].x, kept[0].y), (5, 5));
    }

    #[test]
    fn two_pixel_gap_is_not_suppressed() {
        let pts = vec![pt(5, 5, 3.0), pt(7, 5, 1.0)];
        assert_eq!(suppress(&pts).len(), 2);
    }

    #[test]
    fn plateau_breaks_ties_by_raster_order() {
        let pts = vec![pt(5, 5, 2.0), pt(6, 5, 2.0), pt(5, 6, 2.0)];
        let kept = suppress(&pts);
        assert_eq!(kept.len(), 1);
        assert_eq!((kept[0].x, kept[0].y), (5, 5));
    }

    #[test]
    fn chain_suppression_is_local_not_transitive() {
        // Scores 1 < 2 < 3 in a row: the middle is killed by the right,
        // the left is killed by the middle *only if* the middle's score is
        // higher — which it is. Only the maximum survives.
        let pts = vec![pt(5, 5, 1.0), pt(6, 5, 2.0), pt(7, 5, 3.0)];
        let kept = suppress(&pts);
        // (5,5) is suppressed by (6,5) even though (6,5) itself dies:
        // the paper's 3×3 rule is purely local.
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].x, 7);
    }

    #[test]
    fn input_order_does_not_matter() {
        let mut pts = vec![pt(3, 3, 5.0), pt(4, 3, 7.0), pt(9, 9, 2.0), pt(10, 9, 2.0)];
        let a = suppress(&pts);
        pts.reverse();
        let b = suppress(&pts);
        assert_eq!(a, b);
    }

    #[test]
    fn output_in_raster_order() {
        let pts = vec![pt(30, 1, 1.0), pt(2, 5, 1.0), pt(20, 3, 1.0)];
        let kept = suppress(&pts);
        let keys: Vec<_> = kept.iter().map(|p| (p.y, p.x)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
