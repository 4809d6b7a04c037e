//! Timing and functional model of the ORB Extractor (Fig. 4).
//!
//! The extractor is a streaming design: pixels flow through FAST/Harris,
//! NMS, the smoother and the descriptor units at one pixel per cycle,
//! fed by the 3-line ping-pong Image Cache. The timing model charges:
//!
//! * 1 cycle per pyramid pixel (the paper's Image Resizing module
//!   generates the next layer *while* the current one is processed, so
//!   resizing adds no serial time);
//! * a per-row overhead (AXI burst setup and cache-line turnaround);
//! * a cache pre-fill of 16 columns per level (Fig. 5 initialization);
//! * per-candidate stalls in the orientation/BRIEF units (II = 4);
//! * heap drain and AXI write-back of the kept features.
//!
//! For the **original (non-rescheduled) workflow** ablation (§3.1), the
//! descriptor phase cannot overlap detection, and the smoothened frame no
//! longer fits on-chip — every kept keypoint pays an SDRAM patch fetch.
//!
//! Functional results delegate to [`eslam_features::orb::OrbExtractor`],
//! making the simulator's features bit-identical to the software
//! reference by construction (verified end-to-end in `tests/`).

use crate::axi::AxiConfig;
use crate::clock::{Cycles, FPGA_CLOCK_HZ};
use eslam_features::orb::{DescriptorKind, OrbConfig, OrbExtractor, OrbFeatures, Workflow};
use eslam_features::stream;
use eslam_image::pyramid::PyramidConfig;
use eslam_image::GrayImage;

/// Bytes stored per extracted feature (256-bit descriptor + coordinates,
/// level, score).
pub const FEATURE_RECORD_BYTES: u64 = 40;

/// Per-level image dimensions of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelDims {
    /// Level width in pixels.
    pub width: u32,
    /// Level height in pixels.
    pub height: u32,
}

/// A workload description: what the extractor has to chew through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractionWorkload {
    /// Pyramid level dimensions (base first).
    pub levels: Vec<LevelDims>,
    /// NMS-surviving candidate keypoints (the paper's M).
    pub candidates: u64,
    /// Features kept by the Heap (the paper's N ≤ 1024).
    pub kept: u64,
}

impl ExtractionWorkload {
    /// The nominal paper workload: VGA input, 4-level ×1.2 pyramid,
    /// ~2500 candidates filtered to 1024 features (see DESIGN.md).
    pub fn vga_nominal() -> Self {
        ExtractionWorkload::from_pyramid(640, 480, &PyramidConfig::default(), 2500, 1024)
    }

    /// Builds a workload from base dimensions and a pyramid config.
    pub fn from_pyramid(
        width: u32,
        height: u32,
        config: &PyramidConfig,
        candidates: u64,
        kept: u64,
    ) -> Self {
        let levels = (0..config.levels)
            .map(|l| {
                let s = config.scale_of(l);
                LevelDims {
                    width: ((width as f64) / s).round().max(1.0) as u32,
                    height: ((height as f64) / s).round().max(1.0) as u32,
                }
            })
            .collect();
        ExtractionWorkload {
            levels,
            candidates,
            kept,
        }
    }

    /// Total pixels across all levels.
    pub fn total_pixels(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.width as u64 * l.height as u64)
            .sum()
    }

    /// Total rows across all levels.
    pub fn total_rows(&self) -> u64 {
        self.levels.iter().map(|l| l.height as u64).sum()
    }
}

/// Calibrated timing parameters of the extractor datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractorModel {
    /// AXI configuration for SDRAM traffic.
    pub axi: AxiConfig,
    /// Non-overlapped cycles per image row (burst address setup, cache
    /// line turnaround).
    pub row_overhead: u32,
    /// Columns pre-filled before processing starts (Fig. 5: 16).
    pub prefill_columns: u32,
    /// Extra cycles each NMS-surviving candidate occupies the
    /// orientation/BRIEF units beyond the pixel stream (II = 4).
    pub candidate_ii: u32,
    /// Heap drain cycles per kept feature.
    pub heap_drain_ii: u32,
    /// Pipeline flush cycles per level.
    pub level_flush: u32,
    /// SDRAM patch-fetch cycles per keypoint in the *original* workflow
    /// (31 rows of a 31-pixel patch: 31 bursts of 4 beats + setup).
    pub patch_fetch_cycles: u32,
}

impl Default for ExtractorModel {
    fn default() -> Self {
        ExtractorModel {
            axi: AxiConfig::default(),
            row_overhead: 64,
            prefill_columns: 16,
            candidate_ii: 4,
            heap_drain_ii: 2,
            level_flush: 50,
            patch_fetch_cycles: 372,
        }
    }
}

/// Cycle breakdown of one extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractionTiming {
    /// Streaming pixel cycles (1 px/cycle).
    pub pixel_cycles: Cycles,
    /// Per-row overhead cycles.
    pub row_overhead_cycles: Cycles,
    /// Cache pre-fill cycles.
    pub prefill_cycles: Cycles,
    /// Candidate-induced stall cycles.
    pub candidate_cycles: Cycles,
    /// Descriptor-phase cycles (original workflow only).
    pub descriptor_phase_cycles: Cycles,
    /// Heap drain cycles.
    pub drain_cycles: Cycles,
    /// AXI write-back cycles for the feature records.
    pub writeback_cycles: Cycles,
    /// Pipeline flush cycles.
    pub flush_cycles: Cycles,
    /// Grand total.
    pub total: Cycles,
}

impl ExtractionTiming {
    /// Total latency in milliseconds at the FPGA clock.
    pub fn total_ms(&self) -> f64 {
        self.total.to_millis(FPGA_CLOCK_HZ)
    }
}

/// On-chip memory requirement of a workflow, in bits (the §3.1 memory
/// argument for rescheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Streaming-cache bits (Image + Score + Smoothened caches).
    pub streaming_bits: u64,
    /// Additional frame-buffer bits the workflow needs on-chip (0 for the
    /// rescheduled workflow; the original workflow must either buffer the
    /// smoothened frame or spill it to SDRAM).
    pub buffer_bits: u64,
}

impl ExtractorModel {
    /// Computes the extraction latency for a workload under the given
    /// workflow schedule.
    // Timing fields are filled stage by stage, mirroring the datapath.
    #[allow(clippy::field_reassign_with_default)]
    pub fn extraction_timing(
        &self,
        workload: &ExtractionWorkload,
        workflow: Workflow,
    ) -> ExtractionTiming {
        let mut t = ExtractionTiming::default();
        t.pixel_cycles = Cycles(workload.total_pixels());
        t.row_overhead_cycles = Cycles(workload.total_rows() * self.row_overhead as u64);
        t.prefill_cycles = Cycles(
            workload
                .levels
                .iter()
                .map(|l| self.prefill_columns as u64 * l.height as u64)
                .sum(),
        );
        t.flush_cycles = Cycles(workload.levels.len() as u64 * self.level_flush as u64);
        t.drain_cycles = Cycles(workload.kept * self.heap_drain_ii as u64);
        t.writeback_cycles = self
            .axi
            .transfer_cycles(workload.kept * FEATURE_RECORD_BYTES);

        match workflow {
            Workflow::Rescheduled => {
                // Descriptors computed inline; candidates stall the
                // keypoint sub-pipeline only.
                t.candidate_cycles = Cycles(workload.candidates * self.candidate_ii as u64);
                t.descriptor_phase_cycles = Cycles::ZERO;
            }
            Workflow::Original => {
                // Detection still streams (orientation idle), then a
                // serial descriptor phase over the kept features, each
                // paying an SDRAM patch fetch because the smoothened
                // frame exceeds on-chip capacity.
                t.candidate_cycles = Cycles::ZERO;
                t.descriptor_phase_cycles = Cycles(
                    workload.kept * (self.patch_fetch_cycles as u64 + self.candidate_ii as u64),
                );
            }
        }

        t.total = t.pixel_cycles
            + t.row_overhead_cycles
            + t.prefill_cycles
            + t.candidate_cycles
            + t.descriptor_phase_cycles
            + t.drain_cycles
            + t.writeback_cycles
            + t.flush_cycles;
        t
    }

    /// On-chip memory footprint of a workflow for a base image width
    /// (heights from the workload's level 0).
    pub fn memory_footprint(
        &self,
        workload: &ExtractionWorkload,
        workflow: Workflow,
    ) -> MemoryFootprint {
        let base = workload.levels[0];
        let sizing = crate::cache::CacheSizing {
            image_height: base.height,
            ..Default::default()
        };
        let streaming = sizing.total_bits();
        let buffer = match workflow {
            Workflow::Rescheduled => 0,
            // The original workflow must keep the smoothened pyramid
            // addressable for the post-filter descriptor phase.
            Workflow::Original => workload.total_pixels() * 8,
        };
        MemoryFootprint {
            streaming_bits: streaming,
            buffer_bits: buffer,
        }
    }
}

/// One pipeline stage of the row-band schedule: how many rows of halo it
/// needs around its output row, and the line-buffer rows (and bit width)
/// it holds on-chip to carry that halo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandStage {
    /// Stage name, matching the software orchestrator's stage list.
    pub name: &'static str,
    /// Rows of halo below the stage's output row (its latency
    /// contribution in raw rows; the NMS entry is its one-scan delay).
    pub halo_rows: u32,
    /// Line-buffer rows the stage holds (physical rows, including the
    /// smoothed ring's mirror copy).
    pub buffer_rows: u32,
    /// Bits per buffered pixel (8-bit pixels, 16-bit horizontal blur
    /// sums, a pair of 16-bit Sobel gradients).
    pub bits_per_pixel: u32,
}

/// The extractor's row-band schedule: the hardware-side accounting of
/// the line buffers that carry halo rows between the fused stages. This
/// mirrors the software streaming orchestrator
/// ([`eslam_features::stream`]) **stage for stage** — the consistency
/// test below pins each constant to its software counterpart, so the
/// model's line-buffer sizing can never drift from the implemented
/// dataflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandSchedule {
    /// The fused stages in dataflow order: horizontal/vertical blur,
    /// FAST segment test, Harris score, NMS, and the
    /// orientation/descriptor patch.
    pub stages: [BandStage; 5],
}

impl Default for BandSchedule {
    fn default() -> Self {
        BandSchedule {
            stages: [
                // 7-tap blur: ±3 columns/rows; HROW ring holds the
                // 16-bit horizontal sums for the vertical combine.
                BandStage {
                    name: "blur",
                    halo_rows: stream::STREAM_BLUR_HALO,
                    buffer_rows: stream::HROW_RING_ROWS,
                    bits_per_pixel: 16,
                },
                // FAST-9/16: ±3 raw rows (the radius-3 Bresenham
                // circle), served by the 7-row slice of the image cache.
                BandStage {
                    name: "fast",
                    halo_rows: stream::STREAM_FAST_HALO,
                    buffer_rows: 2 * stream::STREAM_FAST_HALO + 1,
                    bits_per_pixel: 8,
                },
                // Harris: ±4 raw rows (the 7×7 block's ±3 gradient rows
                // plus the Sobel tap); the gradient ring holds one
                // (Ix, Iy) pair of 16-bit gradients per pixel. The
                // software's row of column sums batches the block adds
                // per detection row; a pixel-per-cycle datapath sums the
                // 7 ring rows in its adder tree, so it is not charged.
                BandStage {
                    name: "harris",
                    halo_rows: stream::STREAM_HARRIS_HALO,
                    buffer_rows: stream::GRAD_RING_ROWS,
                    bits_per_pixel: 32,
                },
                // 3×3 NMS trails the FAST scan by one row: three dense
                // score line buffers of f64 responses, the same rows
                // the software streams through.
                BandStage {
                    name: "nms",
                    halo_rows: stream::STREAM_NMS_DELAY,
                    buffer_rows: 3,
                    bits_per_pixel: 64,
                },
                // Orientation + descriptor patch: ±15 smoothed rows off
                // the mirrored smoothed ring (32 logical → 64 physical
                // rows).
                BandStage {
                    name: "patch",
                    halo_rows: stream::STREAM_PATCH_HALO,
                    buffer_rows: 2 * stream::SMOOTH_RING_ROWS,
                    bits_per_pixel: 8,
                },
            ],
        }
    }
}

impl BandSchedule {
    /// Raw-row latency between a candidate's row and the last raw row
    /// its emission touches: the maximum of the FAST/Harris → NMS chain
    /// (FAST and Harris read the stream side by side, so the wider halo
    /// counts) and the blur → patch chain (the two paths from the raw
    /// stream to a finished feature).
    pub fn latency_rows(&self) -> u32 {
        let halo = |name: &str| {
            self.stages
                .iter()
                .find(|s| s.name == name)
                .expect("stage present")
                .halo_rows
        };
        (halo("fast").max(halo("harris")) + halo("nms")).max(halo("blur") + halo("patch"))
    }

    /// Total line-buffer bits for a level of the given width — linear in
    /// width and independent of image height, the property that lets the
    /// schedule stream arbitrarily tall frames through fixed caches.
    pub fn line_buffer_bits(&self, width: u32) -> u64 {
        self.stages
            .iter()
            .map(|s| s.buffer_rows as u64 * width as u64 * s.bits_per_pixel as u64)
            .sum()
    }

    /// Models running this schedule as `requested` concurrent band units
    /// over one `width`×`height` level (the PR 10 band-parallel mode).
    ///
    /// The row partition and the clamp to usable interior rows delegate
    /// to the software implementation
    /// ([`eslam_features::stream::band_partition`]), so the model cannot
    /// disagree with the code about who owns which rows. Each band unit
    /// pays the full [`Self::latency_rows`] halo re-scan above its first
    /// owned row (the first band starts at the image border and pays
    /// none) and holds its own copy of the line buffers.
    pub fn parallelize(&self, width: u32, height: u32, requested: usize) -> ParallelBandSchedule {
        let halo = self.latency_rows();
        let band_rows: Vec<(u32, u32)> = stream::band_partition(height, requested)
            .into_iter()
            .map(|r| (r.start as u32, r.end as u32))
            .collect();
        let critical_path_rows = band_rows
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| (hi - lo) + if i == 0 { 0 } else { halo })
            .max()
            .unwrap_or(0);
        ParallelBandSchedule {
            bands: band_rows.len() as u32,
            band_rows,
            halo_rows: halo,
            total_line_buffer_bits: self.line_buffer_bits(width),
            critical_path_rows,
        }
    }
}

/// The multi-band parallel variant of [`BandSchedule`]: `bands`
/// concurrent band units over one pyramid level, each re-scanning a
/// halo of `halo_rows` above its owned rows and holding its own
/// line-buffer copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelBandSchedule {
    /// Concurrent band units after clamping to usable interior rows.
    pub bands: u32,
    /// Owned finalize rows `[start, end)` per band, in raster order.
    pub band_rows: Vec<(u32, u32)>,
    /// Halo rows each non-first band re-scans above its owned range
    /// (pinned to the software `STREAM_LATENCY_ROWS`).
    pub halo_rows: u32,
    /// Per-band line-buffer bits: each unit duplicates the full
    /// single-stream ring set ([`BandSchedule::line_buffer_bits`]).
    pub total_line_buffer_bits: u64,
    /// Rows processed by the slowest band unit, halo included — the
    /// level's latency in row-times when all units run concurrently.
    pub critical_path_rows: u32,
}

impl ParallelBandSchedule {
    /// Aggregate on-chip line-buffer bits across all band units — the
    /// area cost of the parallel schedule.
    pub fn aggregate_line_buffer_bits(&self) -> u64 {
        self.bands as u64 * self.total_line_buffer_bits
    }

    /// Projected speedup over the single-band stream: total owned rows
    /// divided by the critical-path rows. Halo re-scans are pure
    /// overhead, so the projection saturates below the band count as
    /// bands shrink toward the 18-row halo.
    pub fn projected_speedup(&self) -> f64 {
        if self.critical_path_rows == 0 {
            return 1.0;
        }
        let owned: u64 = self.band_rows.iter().map(|(lo, hi)| (hi - lo) as u64).sum();
        owned as f64 / self.critical_path_rows as f64
    }
}

/// Result of a functional + timed extraction run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedExtraction {
    /// The extracted features (bit-identical to the software reference).
    pub features: OrbFeatures,
    /// The modelled hardware latency.
    pub timing: ExtractionTiming,
}

/// Runs the hardware extractor on an image: functional results from the
/// bit-exact reference datapath, timing from the cycle model using the
/// *actual* candidate/kept counts of this image.
pub fn simulate_extraction(image: &GrayImage, model: &ExtractorModel) -> SimulatedExtraction {
    let config = OrbConfig {
        descriptor: DescriptorKind::RsBrief,
        workflow: Workflow::Rescheduled,
        ..Default::default()
    };
    let extractor = OrbExtractor::new(config);
    let features = extractor.extract(image);
    let workload = ExtractionWorkload::from_pyramid(
        image.width(),
        image.height(),
        &config.pyramid,
        features.stats.candidates as u64,
        features.stats.kept as u64,
    );
    let timing = model.extraction_timing(&workload, Workflow::Rescheduled);
    SimulatedExtraction { features, timing }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vga_nominal_matches_table2_fe_latency() {
        // Table 2: feature extraction on eSLAM takes 9.1 ms.
        let model = ExtractorModel::default();
        let timing =
            model.extraction_timing(&ExtractionWorkload::vga_nominal(), Workflow::Rescheduled);
        let ms = timing.total_ms();
        assert!(
            (ms - 9.1).abs() < 0.1,
            "FE latency {ms:.3} ms should be ≈ 9.1 ms"
        );
    }

    #[test]
    fn workload_pixel_counts() {
        let w = ExtractionWorkload::vga_nominal();
        assert_eq!(w.levels.len(), 4);
        assert_eq!(
            w.levels[0],
            LevelDims {
                width: 640,
                height: 480
            }
        );
        assert_eq!(
            w.levels[1],
            LevelDims {
                width: 533,
                height: 400
            }
        );
        // 640×480 + 533×400 + 444×333 + 370×278 = 771,112.
        assert_eq!(w.total_pixels(), 771_112);
        assert_eq!(w.total_rows(), 1491);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let model = ExtractorModel::default();
        for workflow in [Workflow::Rescheduled, Workflow::Original] {
            let t = model.extraction_timing(&ExtractionWorkload::vga_nominal(), workflow);
            let sum = t.pixel_cycles
                + t.row_overhead_cycles
                + t.prefill_cycles
                + t.candidate_cycles
                + t.descriptor_phase_cycles
                + t.drain_cycles
                + t.writeback_cycles
                + t.flush_cycles;
            assert_eq!(sum, t.total);
        }
    }

    #[test]
    fn rescheduling_reduces_latency() {
        // §3.1: "the latency has been optimized significantly due to the
        // eliminated idle states".
        let model = ExtractorModel::default();
        let w = ExtractionWorkload::vga_nominal();
        let rescheduled = model.extraction_timing(&w, Workflow::Rescheduled);
        let original = model.extraction_timing(&w, Workflow::Original);
        assert!(original.total > rescheduled.total);
        let saving = 1.0 - rescheduled.total.0 as f64 / original.total.0 as f64;
        assert!(
            (0.15..0.45).contains(&saving),
            "latency saving {saving:.2} out of expected band"
        );
    }

    #[test]
    fn rescheduling_eliminates_frame_buffer() {
        // §3.1: "the required on-chip cache is also reduced dramatically".
        let model = ExtractorModel::default();
        let w = ExtractionWorkload::vga_nominal();
        let resched = model.memory_footprint(&w, Workflow::Rescheduled);
        let orig = model.memory_footprint(&w, Workflow::Original);
        assert_eq!(resched.buffer_bits, 0);
        assert!(orig.buffer_bits > 10 * resched.streaming_bits);
    }

    #[test]
    fn more_candidates_cost_more_cycles() {
        let model = ExtractorModel::default();
        let mut light = ExtractionWorkload::vga_nominal();
        light.candidates = 500;
        let mut heavy = ExtractionWorkload::vga_nominal();
        heavy.candidates = 5000;
        let tl = model.extraction_timing(&light, Workflow::Rescheduled);
        let th = model.extraction_timing(&heavy, Workflow::Rescheduled);
        assert!(th.total > tl.total);
        assert_eq!(th.total.0 - tl.total.0, 4500 * 4);
    }

    #[test]
    fn two_level_pyramid_pixel_ratio_matches_48_percent() {
        // §4.4 cross-check: 4 levels process 48% more pixels than 2.
        let four = ExtractionWorkload::from_pyramid(640, 480, &PyramidConfig::default(), 0, 0);
        let two = ExtractionWorkload::from_pyramid(
            640,
            480,
            &PyramidConfig {
                levels: 2,
                scale_factor: 1.2,
            },
            0,
            0,
        );
        let ratio = four.total_pixels() as f64 / two.total_pixels() as f64;
        assert!((ratio - 1.48).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn band_schedule_mirrors_the_software_stream() {
        // Stage-for-stage consistency with the software orchestrator:
        // same stage names, same halo rows, same total latency.
        let schedule = BandSchedule::default();
        let (stages, latency) = stream::latency_schedule();
        assert_eq!(schedule.stages.len(), stages.len());
        for (hw, (name, halo)) in schedule.stages.iter().zip(stages) {
            assert_eq!(hw.name, name);
            assert_eq!(hw.halo_rows, halo, "stage {name}");
        }
        assert_eq!(schedule.latency_rows(), latency);
        assert_eq!(schedule.latency_rows(), stream::STREAM_LATENCY_ROWS);
        // The ring buffers cover their widest consumer windows.
        const { assert!(stream::HROW_RING_ROWS > 2 * stream::STREAM_BLUR_HALO) };
        const { assert!(stream::GRAD_RING_ROWS > 2 * (stream::STREAM_HARRIS_HALO - 1)) };
        const { assert!(stream::SMOOTH_RING_ROWS > 2 * stream::STREAM_PATCH_HALO) };
    }

    #[test]
    fn band_line_buffers_scale_with_width_not_height() {
        let schedule = BandSchedule::default();
        let vga = schedule.line_buffer_bits(640);
        assert_eq!(vga, 2 * schedule.line_buffer_bits(320));
        // Mirrored smoothed ring (64 rows × 8 b) + h-row ring
        // (8 rows × 16 b) + FAST window (7 rows × 8 b) + gradient ring
        // (8 rows × 2 × 16 b) + NMS scores (3 rows × 64 b)
        // = 1144 bits/column.
        assert_eq!(vga, 640 * 1144);
        // Over 3× below the full-frame alternative (a VGA smoothed frame
        // alone is 640 × 480 × 8 bits = 3840 bits/column).
        assert!(vga < 640 * 480 * 8 / 3);
    }

    #[test]
    fn parallel_schedule_zip_asserts_the_software_partition() {
        // The parallel model's row ownership IS the software partition —
        // zip-assert band for band, and pin the halo to the software
        // latency constant.
        let schedule = BandSchedule::default();
        for (h, requested) in [(480u32, 4usize), (480, 1), (100, 7), (10, 1000)] {
            let p = schedule.parallelize(640, h, requested);
            let sw = stream::band_partition(h, requested);
            assert_eq!(p.bands as usize, sw.len());
            assert_eq!(p.bands as usize, stream::effective_bands(requested, h));
            for (hw, sw) in p.band_rows.iter().zip(&sw) {
                assert_eq!(*hw, (sw.start as u32, sw.end as u32));
            }
            assert_eq!(p.halo_rows, stream::STREAM_LATENCY_ROWS);
            assert_eq!(p.total_line_buffer_bits, schedule.line_buffer_bits(640));
            assert_eq!(
                p.aggregate_line_buffer_bits(),
                p.bands as u64 * schedule.line_buffer_bits(640)
            );
        }
    }

    #[test]
    fn parallel_schedule_critical_path_and_speedup() {
        let schedule = BandSchedule::default();
        // VGA, 4 bands: 474 interior rows split 119/119/118/118; every
        // band past the first re-scans the 18-row halo, so the critical
        // path is 119 + 18 = 137 row-times → ≈3.46× projected.
        let p = schedule.parallelize(640, 480, 4);
        assert_eq!(p.critical_path_rows, 137);
        let speedup = p.projected_speedup();
        assert!((speedup - 474.0 / 137.0).abs() < 1e-12, "{speedup}");
        assert!(speedup > 3.4 && speedup < 4.0);

        // One band degenerates to the PR 7 single stream: no halo paid,
        // speedup exactly 1.
        let single = schedule.parallelize(640, 480, 1);
        assert_eq!(single.bands, 1);
        assert_eq!(single.critical_path_rows, 474);
        assert_eq!(single.projected_speedup(), 1.0);

        // More bands never lengthen the critical path on a tall level…
        let mut last = u32::MAX;
        for bands in 1..=8 {
            let p = schedule.parallelize(640, 480, bands);
            assert!(p.critical_path_rows <= last, "bands={bands}");
            last = p.critical_path_rows;
        }
        // …but the halo overhead caps the projection below the band
        // count (18 rows re-scanned per extra unit is not free).
        let eight = schedule.parallelize(640, 480, 8);
        assert!(eight.projected_speedup() < 8.0 * 0.85);
    }

    #[test]
    fn parallel_schedule_degenerates_gracefully() {
        let schedule = BandSchedule::default();
        // 4 interior rows: requested 1000 clamps to 4 one-row bands.
        let tiny = schedule.parallelize(64, 10, 1000);
        assert_eq!(tiny.bands, 4);
        assert!(tiny.band_rows.iter().all(|(lo, hi)| hi - lo == 1));
        assert_eq!(tiny.critical_path_rows, 1 + tiny.halo_rows);
        // Sub-scannable level: no band units, unit speedup, zero area.
        let empty = schedule.parallelize(64, 6, 4);
        assert_eq!(empty.bands, 0);
        assert_eq!(empty.critical_path_rows, 0);
        assert_eq!(empty.projected_speedup(), 1.0);
        assert_eq!(empty.aggregate_line_buffer_bits(), 0);
    }

    #[test]
    fn simulate_extraction_consistent_with_software() {
        let img = GrayImage::from_fn(160, 120, |x, y| {
            let base = if (x / 10 + y / 10) % 2 == 0 { 60 } else { 190 };
            base + ((x * 7 + y * 13) % 17) as u8
        });
        let sim = simulate_extraction(&img, &ExtractorModel::default());
        // Functional equality with the reference extractor.
        let reference = OrbExtractor::new(OrbConfig::default()).extract(&img);
        assert_eq!(sim.features, reference);
        // Timing reflects the smaller image (< VGA latency).
        assert!(sim.timing.total_ms() < 9.1);
        assert!(sim.timing.total.0 > 0);
    }
}
