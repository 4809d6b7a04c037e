//! Sequence-level statistics over per-frame reports.
//!
//! Aggregates the [`crate::FrameReport`] stream of a run into the
//! quantities the evaluation section cares about: tracking robustness,
//! key-frame rate, workload characteristics (the M/N counts driving the
//! hardware models), and map evolution.

use crate::system::FrameReport;

/// Aggregate statistics of a processed sequence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SequenceStats {
    /// Total frames processed.
    pub frames: usize,
    /// Frames where tracking met the inlier threshold.
    pub tracked: usize,
    /// Frames promoted to key frames.
    pub keyframes: usize,
    /// Frames recovered by relocalization.
    pub relocalizations: usize,
    /// Mean raw descriptor matches per frame (excluding bootstrap).
    pub mean_matches: f64,
    /// Mean geometric inliers per frame (excluding bootstrap).
    pub mean_inliers: f64,
    /// Mean NMS-surviving candidates per frame (the paper's M).
    pub mean_candidates: f64,
    /// Mean kept features per frame (the paper's N).
    pub mean_kept: f64,
    /// Final map size.
    pub final_map_size: usize,
    /// Largest map size seen.
    pub peak_map_size: usize,
}

impl SequenceStats {
    /// Computes statistics from a report stream.
    pub fn from_reports(reports: &[FrameReport]) -> SequenceStats {
        let mut stats = SequenceStats {
            frames: reports.len(),
            ..Default::default()
        };
        if reports.is_empty() {
            return stats;
        }
        let mut match_sum = 0.0;
        let mut inlier_sum = 0.0;
        let mut cand_sum = 0.0;
        let mut kept_sum = 0.0;
        let mut non_bootstrap = 0.0;
        for r in reports {
            if r.tracking_ok {
                stats.tracked += 1;
            }
            if r.is_keyframe {
                stats.keyframes += 1;
            }
            if r.relocalized {
                stats.relocalizations += 1;
            }
            if r.index > 0 {
                match_sum += r.raw_matches as f64;
                inlier_sum += r.inliers as f64;
                non_bootstrap += 1.0;
            }
            cand_sum += r.extraction.candidates as f64;
            kept_sum += r.extraction.kept as f64;
            stats.peak_map_size = stats.peak_map_size.max(r.map_size);
        }
        if non_bootstrap > 0.0 {
            stats.mean_matches = match_sum / non_bootstrap;
            stats.mean_inliers = inlier_sum / non_bootstrap;
        }
        stats.mean_candidates = cand_sum / reports.len() as f64;
        stats.mean_kept = kept_sum / reports.len() as f64;
        stats.final_map_size = reports.last().map_or(0, |r| r.map_size);
        stats
    }

    /// Fraction of frames tracked successfully.
    pub fn tracking_ratio(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.tracked as f64 / self.frames as f64
        }
    }

    /// Fraction of frames promoted to key frames (drives the Table 3
    /// normal-vs-key frame mix).
    pub fn keyframe_ratio(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.keyframes as f64 / self.frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FrameHwTiming;
    use eslam_features::orb::ExtractionStats;
    use eslam_geometry::Se3;

    fn report(index: usize, ok: bool, kf: bool, reloc: bool, map: usize) -> FrameReport {
        FrameReport {
            index,
            timestamp: index as f64,
            pose_c2w: Se3::identity(),
            is_keyframe: kf,
            tracking_ok: ok,
            relocalized: reloc,
            // remaining workload fields below
            raw_matches: 100,
            inliers: 80,
            map_size: map,
            extraction: ExtractionStats {
                candidates: 500,
                kept: 300,
                ..Default::default()
            },
            hw_timing: FrameHwTiming::default(),
            frame_wait_ms: 0.0,
            track_ms: 0.0,
            backend_applied: false,
            loop_closed: false,
        }
    }

    #[test]
    fn empty_reports() {
        let s = SequenceStats::from_reports(&[]);
        assert_eq!(s.frames, 0);
        assert_eq!(s.tracking_ratio(), 0.0);
        assert_eq!(s.keyframe_ratio(), 0.0);
    }

    #[test]
    fn aggregates_counts() {
        let reports = vec![
            report(0, true, true, false, 100),
            report(1, true, false, false, 100),
            report(2, false, false, false, 100),
            report(3, true, true, true, 250),
            report(4, true, false, false, 200),
        ];
        let s = SequenceStats::from_reports(&reports);
        assert_eq!(s.frames, 5);
        assert_eq!(s.tracked, 4);
        assert_eq!(s.keyframes, 2);
        assert_eq!(s.relocalizations, 1);
        assert_eq!(s.final_map_size, 200);
        assert_eq!(s.peak_map_size, 250);
        assert!((s.tracking_ratio() - 0.8).abs() < 1e-12);
        assert!((s.keyframe_ratio() - 0.4).abs() < 1e-12);
        // Bootstrap frame excluded from matching means.
        assert!((s.mean_matches - 100.0).abs() < 1e-12);
        assert!((s.mean_inliers - 80.0).abs() < 1e-12);
        assert!((s.mean_candidates - 500.0).abs() < 1e-12);
        assert!((s.mean_kept - 300.0).abs() < 1e-12);
    }
}
