//! Spatial coverage of a keypoint set.
//!
//! The paper filters purely by Harris score through the 1024-entry Heap,
//! while production ORB-SLAM also spreads keypoints across the image to
//! stabilize PnP geometry. [`coverage`] measures how evenly a keypoint
//! set covers a grid of square cells; the heap-capacity ablation
//! (`ablation_heap`) reports it per Heap size.

use crate::orb::Keypoint;
use std::collections::HashMap;

/// Statistics describing how evenly keypoints cover the image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageStats {
    /// Number of non-empty cells.
    pub occupied_cells: usize,
    /// Total cells inspected (bounding grid of the keypoints).
    pub total_cells: usize,
    /// Maximum keypoints found in one cell.
    pub max_per_cell: usize,
}

impl CoverageStats {
    /// Fraction of the bounding grid covered by at least one keypoint.
    pub fn occupancy(&self) -> f64 {
        if self.total_cells == 0 {
            0.0
        } else {
            self.occupied_cells as f64 / self.total_cells as f64
        }
    }
}

/// Measures the spatial coverage of a keypoint set over its bounding
/// grid of `cell_size` cells.
pub fn coverage(keypoints: &[Keypoint], cell_size: u32) -> CoverageStats {
    if keypoints.is_empty() || cell_size == 0 {
        return CoverageStats {
            occupied_cells: 0,
            total_cells: 0,
            max_per_cell: 0,
        };
    }
    let cs = cell_size as f64;
    let mut counts: HashMap<(i64, i64), usize> = HashMap::new();
    let (mut min_cx, mut max_cx) = (i64::MAX, i64::MIN);
    let (mut min_cy, mut max_cy) = (i64::MAX, i64::MIN);
    for kp in keypoints {
        let cx = (kp.x / cs).floor() as i64;
        let cy = (kp.y / cs).floor() as i64;
        *counts.entry((cx, cy)).or_insert(0) += 1;
        min_cx = min_cx.min(cx);
        max_cx = max_cx.max(cx);
        min_cy = min_cy.min(cy);
        max_cy = max_cy.max(cy);
    }
    let total = ((max_cx - min_cx + 1) * (max_cy - min_cy + 1)).max(0) as usize;
    CoverageStats {
        occupied_cells: counts.len(),
        total_cells: total,
        max_per_cell: counts.values().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(x: f64, y: f64, score: f64) -> Keypoint {
        Keypoint {
            x,
            y,
            level: 0,
            level_x: x as u32,
            level_y: y as u32,
            score,
            angle: 0.0,
            label: 0,
        }
    }

    #[test]
    fn empty_input() {
        let stats = coverage(&[], 32);
        assert_eq!(stats.occupancy(), 0.0);
    }

    #[test]
    fn coverage_counts_cells() {
        // 4 keypoints in 2 distinct cells of a 2x1 bounding grid.
        let kps = vec![
            kp(5.0, 5.0, 1.0),
            kp(6.0, 6.0, 1.0),
            kp(40.0, 5.0, 1.0),
            kp(41.0, 6.0, 1.0),
        ];
        let stats = coverage(&kps, 32);
        assert_eq!(stats.occupied_cells, 2);
        assert_eq!(stats.total_cells, 2);
        assert_eq!(stats.max_per_cell, 2);
        assert!((stats.occupancy() - 1.0).abs() < 1e-12);
    }
}
