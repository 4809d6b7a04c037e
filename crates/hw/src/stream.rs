//! Fine-grained streaming simulation of the extractor front-end
//! (extension of the coarse model in [`crate::extractor`]).
//!
//! Models the column-stripe dataflow the Image Cache FSM implies (Fig. 5):
//! the datapath processes a sliding window of two resident 8-column
//! blocks while the AXI interface refills the third. The simulation
//! tracks block-level load/process overlap and reports stall cycles
//! explicitly.
//!
//! The coarse [`crate::extractor::ExtractorModel`] is *calibrated* to the
//! paper's measured 9.1 ms (its per-row overhead lumps SDRAM row
//! activation, turnaround, and control); the stream simulation is the
//! idealized lower bound. Tests assert the expected ordering and that
//! the two agree within a model-error band.

use crate::axi::AxiConfig;
use crate::cache::{ImageCacheFsm, COLUMNS_PER_LINE};
use crate::clock::Cycles;

/// Parameters of the streaming simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamModel {
    /// AXI configuration for block refills.
    pub axi: AxiConfig,
    /// Pipeline turnaround cycles at each stripe boundary (window
    /// realignment in the line buffers).
    pub stripe_turnaround: u32,
    /// Pipeline depth to flush at the end of a level.
    pub pipeline_flush: u32,
}

impl Default for StreamModel {
    fn default() -> Self {
        StreamModel {
            axi: AxiConfig::default(),
            stripe_turnaround: 8,
            pipeline_flush: 50,
        }
    }
}

/// Cycle accounting of one simulated level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamTiming {
    /// Cycles pre-filling the first two cache lines.
    pub prefill: Cycles,
    /// Active processing cycles (pixels + stripe turnaround).
    pub processing: Cycles,
    /// Cycles stalled waiting for AXI block refills.
    pub stall: Cycles,
    /// Pipeline flush at level end.
    pub flush: Cycles,
    /// Total latency of the level.
    pub total: Cycles,
    /// Number of stripes processed.
    pub stripes: u32,
}

impl StreamModel {
    /// Simulates one pyramid level of `width`×`height` pixels through the
    /// 3-line ping-pong cache, returning the cycle breakdown.
    ///
    /// Block-level discrete-event model: processing a stripe (one
    /// 8-column block against its resident right neighbour) takes
    /// `8 × height + turnaround` cycles; in parallel the AXI refills the
    /// next block in `transfer_cycles(8 × height)`. A stripe can start
    /// only when its blocks are resident, so slow memory surfaces as
    /// stall cycles.
    pub fn simulate_level(&self, width: u32, height: u32) -> StreamTiming {
        let blocks = width.div_ceil(COLUMNS_PER_LINE);
        let block_bytes = COLUMNS_PER_LINE as u64 * height as u64;
        let load = self.axi.transfer_cycles(block_bytes).0;
        let process_per_stripe =
            COLUMNS_PER_LINE as u64 * height as u64 + self.stripe_turnaround as u64;

        let mut t = StreamTiming::default();
        if blocks == 0 || height == 0 {
            return t;
        }
        // Fig. 5 initialization: lines A and B pre-filled sequentially.
        t.prefill = Cycles(2 * load);

        // Drive the FSM exactly as the hardware would; each step loads one
        // block while the previous stripe processes.
        let mut fsm = ImageCacheFsm::new();
        fsm.initialize();

        let mut now = t.prefill.0;
        let mut load_ready_at = now; // block for the upcoming stripe ready at...
        let stripes = blocks.saturating_sub(1); // sliding pairs (0,1), (1,2), ...
        for s in 0..stripes {
            // The stripe over blocks (s, s+1) needs block s+1 resident.
            if load_ready_at > now {
                t.stall += Cycles(load_ready_at - now);
                now = load_ready_at;
            }
            // Kick off the refill of block s+2 (if any) in parallel.
            if s + 2 < blocks {
                let _state = fsm.step();
                load_ready_at = now + load;
            }
            now += process_per_stripe;
            t.processing += Cycles(process_per_stripe);
        }
        t.flush = Cycles(self.pipeline_flush as u64);
        now += self.pipeline_flush as u64;
        t.stripes = stripes;
        t.total = Cycles(now);
        t
    }

    /// Simulates a whole pyramid (levels sized by nearest-neighbour ÷1.2
    /// like the Image Resizing module) and returns the per-level
    /// breakdowns.
    pub fn simulate_pyramid(&self, width: u32, height: u32, levels: usize) -> Vec<StreamTiming> {
        (0..levels)
            .map(|l| {
                let s = 1.2f64.powi(l as i32);
                let w = ((width as f64) / s).round().max(1.0) as u32;
                let h = ((height as f64) / s).round().max(1.0) as u32;
                self.simulate_level(w, h)
            })
            .collect()
    }

    /// Total cycles over a pyramid.
    pub fn pyramid_total(&self, width: u32, height: u32, levels: usize) -> Cycles {
        self.simulate_pyramid(width, height, levels)
            .into_iter()
            .map(|t| t.total)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::{ExtractionWorkload, ExtractorModel, Workflow};

    #[test]
    fn vga_level_has_no_stalls_with_default_axi() {
        // Loading an 8×480 block (720 cycles) hides fully under its
        // 3848-cycle stripe.
        let t = StreamModel::default().simulate_level(640, 480);
        assert_eq!(t.stall, Cycles::ZERO);
        assert_eq!(t.stripes, 79);
        assert!(t.total.0 > 0);
    }

    #[test]
    fn slow_axi_creates_stalls() {
        // Crank burst setup so a block load outlasts a stripe.
        let slow = StreamModel {
            axi: AxiConfig {
                bus_bytes: 1,
                burst_beats: 4,
                burst_setup: 64,
            },
            ..Default::default()
        };
        let t = slow.simulate_level(640, 480);
        assert!(t.stall.0 > 0, "expected stalls with slow memory");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let t = StreamModel::default().simulate_level(640, 480);
        assert_eq!(t.total, t.prefill + t.processing + t.stall + t.flush);
    }

    #[test]
    fn stream_sim_bounds_coarse_model_from_below() {
        // The calibrated coarse model includes real-system overheads the
        // idealized stream sim omits, so stream ≤ coarse, and they agree
        // within a 25% model-error band (no candidate stalls included in
        // either side here).
        let stream = StreamModel::default().pyramid_total(640, 480, 4);
        let mut workload = ExtractionWorkload::vga_nominal();
        workload.candidates = 0;
        workload.kept = 0;
        let coarse = ExtractorModel::default()
            .extraction_timing(&workload, Workflow::Rescheduled)
            .total;
        assert!(stream <= coarse, "stream {stream} vs coarse {coarse}");
        let ratio = stream.0 as f64 / coarse.0 as f64;
        assert!(ratio > 0.75, "models diverged: ratio {ratio}");
    }

    #[test]
    fn degenerate_sizes_are_safe() {
        let model = StreamModel::default();
        let t = model.simulate_level(0, 480);
        assert_eq!(t.total, Cycles::ZERO);
        let t = model.simulate_level(640, 0);
        assert_eq!(t.total, Cycles::ZERO);
        let t = model.simulate_level(7, 5); // single block → no stripes
        assert_eq!(t.stripes, 0);
    }

    #[test]
    fn pyramid_levels_shrink_in_time() {
        let sims = StreamModel::default().simulate_pyramid(640, 480, 4);
        assert_eq!(sims.len(), 4);
        for pair in sims.windows(2) {
            assert!(pair[1].total < pair[0].total);
        }
    }

    #[test]
    fn processing_scales_with_stripe_count() {
        let model = StreamModel::default();
        let narrow = model.simulate_level(320, 480);
        let wide = model.simulate_level(640, 480);
        assert!(wide.stripes > narrow.stripes);
        assert!(wide.processing > narrow.processing);
    }
}
