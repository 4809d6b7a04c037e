//! Sequence-level timing analysis under the Fig. 7 heterogeneous
//! pipeline, for all three platforms of the paper.
//!
//! Each processed frame's *actual* workload (pyramid pixels, candidate
//! and kept feature counts, map size) feeds the calibrated hardware and
//! CPU models, and the per-frame stage times are scheduled sequentially
//! (CPUs) or pipelined (eSLAM) to produce sequence totals — the
//! "measured" columns of EXPERIMENTS.md.

use crate::system::FrameReport;
use eslam_hw::cpu::{arm_cortex_a9, intel_i7, CpuModel};
use eslam_hw::system::{frame_timing, Schedule, StageTimesMs};

/// Timing summary of one platform over a processed sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSequenceTiming {
    /// Platform name.
    pub name: &'static str,
    /// Total processing time, ms.
    pub total_ms: f64,
    /// Mean per-frame time, ms.
    pub mean_frame_ms: f64,
    /// Effective frame rate, fps.
    pub fps: f64,
    /// Mean normal-frame time, ms.
    pub mean_normal_ms: f64,
    /// Mean key-frame time, ms (0 when the sequence has none).
    pub mean_keyframe_ms: f64,
    /// Energy consumed over the sequence, mJ.
    pub energy_mj: f64,
    /// Measured wall-clock time spent waiting for frame pixels over the
    /// run (dataset render/load latency, summed from
    /// [`FrameReport::frame_wait_ms`]). Accounted separately from the
    /// modelled compute totals above — it is a property of the dataset
    /// layer, identical for every platform, and collapses toward zero
    /// when the async prefetcher overlaps rendering with tracking.
    pub frame_wait_ms: f64,
}

/// Measured wall-clock timing of one run, split into the time spent
/// *waiting for pixels* versus the time spent *tracking* — the
/// software analogue of the paper's Fig. 7 stage-overlap argument
/// applied to the dataset layer.
///
/// With synchronous frame pulls, `frame_wait_ms` carries the full
/// render/load cost; with the async prefetcher it shrinks to the
/// residual the background render could not hide behind tracking.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SequenceWallTiming {
    /// Total time blocked waiting for frame pixels, ms.
    pub frame_wait_ms: f64,
    /// Total time inside [`crate::Slam::process`], ms.
    pub track_ms: f64,
    /// Mean per-frame wait, ms.
    pub mean_wait_ms: f64,
    /// Mean per-frame tracking time, ms.
    pub mean_track_ms: f64,
}

impl SequenceWallTiming {
    /// Aggregates the measured per-frame wait/track times of a report
    /// stream.
    pub fn from_reports(reports: &[FrameReport]) -> SequenceWallTiming {
        let frame_wait_ms: f64 = reports.iter().map(|r| r.frame_wait_ms).sum();
        let track_ms: f64 = reports.iter().map(|r| r.track_ms).sum();
        let frames = reports.len().max(1) as f64;
        SequenceWallTiming {
            frame_wait_ms,
            track_ms,
            mean_wait_ms: frame_wait_ms / frames,
            mean_track_ms: track_ms / frames,
        }
    }

    /// Total measured wall time (wait + track), ms.
    pub fn total_ms(&self) -> f64 {
        self.frame_wait_ms + self.track_ms
    }

    /// Fraction of the run spent waiting for pixels (0 when nothing was
    /// measured). The overlap metric: synchronous runs sit at the
    /// render/track cost ratio, prefetched runs push this toward 0.
    pub fn wait_fraction(&self) -> f64 {
        let total = self.total_ms();
        if total <= 0.0 {
            0.0
        } else {
            self.frame_wait_ms / total
        }
    }
}

/// Per-frame stage times for the CPU platforms, derived from the frame's
/// actual workload.
fn cpu_stages(report: &FrameReport, cpu: &CpuModel, map_size_hint: usize) -> StageTimesMs {
    let pixels = report.extraction.pixels_processed;
    let pairs = report.extraction.kept as u64 * map_size_hint as u64;
    StageTimesMs {
        fe: cpu.fe_ms(pixels),
        fm: cpu.fm_ms(pairs),
        pe: cpu.pe_ms,
        po: cpu.po_ms,
        mu: cpu.mu_ms,
    }
}

/// Per-frame stage times for eSLAM: accelerator models for FE/FM, ARM
/// host for the geometric stages.
fn eslam_stages(report: &FrameReport) -> StageTimesMs {
    let arm = arm_cortex_a9();
    StageTimesMs {
        fe: report.hw_timing.fe_ms,
        fm: report.hw_timing.fm_ms,
        pe: arm.pe_ms,
        po: arm.po_ms,
        mu: arm.mu_ms,
    }
}

fn summarize(
    name: &'static str,
    reports: &[FrameReport],
    power_w: f64,
    mut stages_of: impl FnMut(&FrameReport) -> StageTimesMs,
    schedule: Schedule,
) -> PlatformSequenceTiming {
    let mut total = 0.0;
    let mut normal_sum = 0.0;
    let mut normal_n = 0usize;
    let mut key_sum = 0.0;
    let mut key_n = 0usize;
    for r in reports {
        let stages = stages_of(r);
        let ft = frame_timing(&stages, schedule);
        let t = if r.is_keyframe {
            ft.keyframe_ms
        } else {
            ft.normal_ms
        };
        total += t;
        if r.is_keyframe {
            key_sum += t;
            key_n += 1;
        } else {
            normal_sum += t;
            normal_n += 1;
        }
    }
    let frames = reports.len().max(1) as f64;
    PlatformSequenceTiming {
        name,
        total_ms: total,
        mean_frame_ms: total / frames,
        fps: 1000.0 * frames / total.max(1e-9),
        mean_normal_ms: if normal_n > 0 {
            normal_sum / normal_n as f64
        } else {
            0.0
        },
        mean_keyframe_ms: if key_n > 0 {
            key_sum / key_n as f64
        } else {
            0.0
        },
        energy_mj: total * power_w,
        frame_wait_ms: reports.iter().map(|r| r.frame_wait_ms).sum(),
    }
}

/// Computes the ARM / Intel i7 / eSLAM timing summaries for a processed
/// sequence. `map_size_hint` sets the matcher workload for frames
/// (use the mean map size; per-frame map sizes are in the reports).
pub fn sequence_timing(reports: &[FrameReport]) -> [PlatformSequenceTiming; 3] {
    let arm = arm_cortex_a9();
    let i7 = intel_i7();
    let mean_map: usize = if reports.is_empty() {
        0
    } else {
        reports.iter().map(|r| r.map_size).sum::<usize>() / reports.len()
    };
    [
        summarize(
            "ARM",
            reports,
            arm.power_w,
            |r| cpu_stages(r, &arm, mean_map),
            Schedule::Sequential,
        ),
        summarize(
            "Intel i7",
            reports,
            i7.power_w,
            |r| cpu_stages(r, &i7, mean_map),
            Schedule::Sequential,
        ),
        summarize(
            "eSLAM",
            reports,
            eslam_hw::power::eslam_power_w(),
            eslam_stages,
            Schedule::EslamPipeline,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FrameHwTiming;
    use eslam_features::orb::ExtractionStats;
    use eslam_geometry::Se3;

    fn fake_report(index: usize, keyframe: bool) -> FrameReport {
        FrameReport {
            index,
            timestamp: index as f64 / 30.0,
            pose_c2w: Se3::identity(),
            is_keyframe: keyframe,
            tracking_ok: true,
            relocalized: false,
            raw_matches: 500,
            inliers: 400,
            map_size: 2304,
            extraction: ExtractionStats {
                fast_detections: 4000,
                candidates: 2500,
                kept: 1024,
                descriptors_computed: 2500,
                pixels_processed: 771_112,
            },
            hw_timing: FrameHwTiming {
                fe_ms: 9.1,
                fm_ms: 4.0,
            },
            frame_wait_ms: 2.5,
            track_ms: 40.0,
            backend_applied: false,
            loop_closed: false,
        }
    }

    #[test]
    fn nominal_sequence_reproduces_table3_shape() {
        // 9 normal + 1 key frame at the paper's nominal workload.
        let reports: Vec<FrameReport> = (0..10).map(|i| fake_report(i, i == 0)).collect();
        let [arm, i7, eslam] = sequence_timing(&reports);
        // Mean normal-frame times approximate Table 3.
        assert!(
            (eslam.mean_normal_ms - 17.9).abs() < 0.2,
            "{}",
            eslam.mean_normal_ms
        );
        assert!(
            (eslam.mean_keyframe_ms - 31.8).abs() < 0.3,
            "{}",
            eslam.mean_keyframe_ms
        );
        assert!(
            (arm.mean_normal_ms - 555.7).abs() < 6.0,
            "{}",
            arm.mean_normal_ms
        );
        assert!(
            (i7.mean_normal_ms - 53.6).abs() < 0.8,
            "{}",
            i7.mean_normal_ms
        );
        // Ordering: eSLAM fastest, ARM slowest; i7 most energy.
        assert!(eslam.total_ms < i7.total_ms);
        assert!(i7.total_ms < arm.total_ms);
        assert!(eslam.energy_mj < arm.energy_mj);
        assert!(arm.energy_mj < i7.energy_mj);
    }

    #[test]
    fn all_keyframes_slow_everything_down() {
        let normal: Vec<FrameReport> = (0..5).map(|i| fake_report(i, false)).collect();
        let keyed: Vec<FrameReport> = (0..5).map(|i| fake_report(i, true)).collect();
        let [_, _, e_normal] = sequence_timing(&normal);
        let [_, _, e_keyed] = sequence_timing(&keyed);
        assert!(e_keyed.total_ms > e_normal.total_ms);
        assert_eq!(e_normal.mean_keyframe_ms, 0.0);
    }

    #[test]
    fn empty_sequence_is_safe() {
        let [arm, _, eslam] = sequence_timing(&[]);
        assert_eq!(arm.total_ms, 0.0);
        assert_eq!(eslam.energy_mj, 0.0);
        assert_eq!(arm.frame_wait_ms, 0.0);
        let wall = SequenceWallTiming::from_reports(&[]);
        assert_eq!(wall.total_ms(), 0.0);
        assert_eq!(wall.wait_fraction(), 0.0);
    }

    #[test]
    fn frame_wait_is_accounted_separately_from_modelled_compute() {
        let reports: Vec<FrameReport> = (0..4).map(|i| fake_report(i, false)).collect();
        let [arm, i7, eslam] = sequence_timing(&reports);
        // The measured dataset wait is a property of the run, not the
        // platform: identical across all three, and not folded into the
        // modelled totals.
        assert_eq!(arm.frame_wait_ms, 10.0);
        assert_eq!(i7.frame_wait_ms, 10.0);
        assert_eq!(eslam.frame_wait_ms, 10.0);
        assert!(eslam.total_ms < arm.total_ms);
    }

    #[test]
    fn wall_timing_splits_wait_from_track() {
        let reports: Vec<FrameReport> = (0..4).map(|i| fake_report(i, i == 0)).collect();
        let wall = SequenceWallTiming::from_reports(&reports);
        assert_eq!(wall.frame_wait_ms, 10.0);
        assert_eq!(wall.track_ms, 160.0);
        assert_eq!(wall.total_ms(), 170.0);
        assert!((wall.mean_wait_ms - 2.5).abs() < 1e-12);
        assert!((wall.mean_track_ms - 40.0).abs() < 1e-12);
        assert!((wall.wait_fraction() - 10.0 / 170.0).abs() < 1e-12);
    }
}
