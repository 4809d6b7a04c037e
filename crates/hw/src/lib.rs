//! Cycle-approximate simulator of the eSLAM FPGA accelerator.
//!
//! The paper's artifact is a Zynq XCZ7045 bitstream; this crate is its
//! transaction-level Rust model (see the substitution table in
//! DESIGN.md). Every block of Fig. 3/4/6 exists as a module with an
//! explicit timing contract, a resource estimate, and a functional model
//! that is **bit-exact** against the `eslam-features` software reference:
//!
//! * [`clock`] — the 100 MHz fabric / 767 MHz ARM clock domains;
//! * [`axi`] — burst-level AXI/SDRAM transfer timing;
//! * [`cache`] — the 3-line ping-pong Image Cache FSM of Fig. 5;
//! * [`units`] — per-unit latency/II/resource contracts (FAST, smoother,
//!   NMS, orientation, BRIEF, rotator, heap, matcher blocks);
//! * [`extractor`] — the ORB Extractor latency model, including the
//!   workflow-rescheduling ablation of §3.1 ([`extractor::Workflow`]);
//! * [`matcher`] — the BRIEF Matcher latency model (§3.2);
//! * [`resource`] — Table 1 (FPGA utilization);
//! * [`power`] — the Table 3 power/energy model;
//! * [`cpu`] — calibrated ARM Cortex-A9 / Intel i7 baselines (Table 2);
//! * [`system`] — the Fig. 7 heterogeneous pipeline and the full
//!   Table 2 / Table 3 reproduction.
//!
//! # Examples
//!
//! Regenerate the headline Table 3 numbers:
//!
//! ```
//! use eslam_hw::system::platform_reports;
//!
//! let [arm, i7, eslam] = platform_reports();
//! assert!((eslam.frames.normal_fps - 55.87).abs() < 0.5);
//! assert!(eslam.energy_normal_mj < arm.energy_normal_mj / 20.0);
//! assert!(i7.power_w > 40.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod axi;
pub mod cache;
pub mod clock;
pub mod cpu;
pub mod extractor;
pub mod matcher;
pub mod power;
pub mod resource;
pub mod stream;
pub mod system;
pub mod units;

pub use clock::{Cycles, ARM_CLOCK_HZ, FPGA_CLOCK_HZ};
pub use extractor::{simulate_extraction, ExtractorModel};
pub use matcher::{simulate_matching, MatcherModel};
pub use resource::Resources;
pub use system::{platform_reports, PlatformReport, StageTimesMs};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn axi_cycles_monotone_in_bytes(a in 0u64..100_000, b in 0u64..100_000) {
            let cfg = axi::AxiConfig::default();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(cfg.transfer_cycles(lo) <= cfg.transfer_cycles(hi));
        }

        #[test]
        fn extraction_latency_monotone_in_candidates(c1 in 0u64..10_000, c2 in 0u64..10_000) {
            let model = extractor::ExtractorModel::default();
            let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
            let mut wl = extractor::ExtractionWorkload::vga_nominal();
            wl.candidates = lo;
            let t_lo = model.extraction_timing(&wl, extractor::Workflow::Rescheduled);
            wl.candidates = hi;
            let t_hi = model.extraction_timing(&wl, extractor::Workflow::Rescheduled);
            prop_assert!(t_lo.total <= t_hi.total);
        }

        #[test]
        fn matcher_latency_scales_with_map(n in 1u64..2048, m1 in 1u64..4096, m2 in 1u64..4096) {
            let model = matcher::MatcherModel::default();
            let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
            prop_assert!(model.matching_timing(n, lo).total <= model.matching_timing(n, hi).total);
        }

        #[test]
        fn fsm_schedule_always_sends_consecutive_blocks(width in 24u32..2000) {
            for state in cache::ImageCacheFsm::schedule(width) {
                let blocks = state.sending_blocks();
                prop_assert_eq!(blocks.len(), 2);
                prop_assert_eq!(blocks[1], blocks[0] + 1);
            }
        }

        #[test]
        fn pipeline_never_slower_than_sequential(
            fe in 0.1..50.0f64, fm in 0.1..50.0f64, pe in 0.1..50.0f64,
            po in 0.1..50.0f64, mu in 0.1..50.0f64,
        ) {
            let stages = system::StageTimesMs { fe, fm, pe, po, mu };
            let seq = system::frame_timing(&stages, system::Schedule::Sequential);
            let pipe = system::frame_timing(&stages, system::Schedule::EslamPipeline);
            prop_assert!(pipe.normal_ms <= seq.normal_ms + 1e-9);
            prop_assert!(pipe.keyframe_ms <= seq.keyframe_ms + 1e-9);
        }
    }
}
