//! Accelerator simulation tour: runs the cycle-approximate eSLAM
//! hardware model end to end — extraction timing breakdown, matcher
//! latency, FPGA resources (Table 1), platform comparison (Tables 2/3)
//! and the Fig. 7 pipeline timeline.
//!
//! ```text
//! cargo run --release -p eslam --example accelerator_sim
//! ```

use eslam_dataset::sequence::SequenceSpec;
use eslam_hw::extractor::{ExtractionWorkload, ExtractorModel, Workflow};
use eslam_hw::matcher::{MatcherModel, NOMINAL_MAP_POINTS};
use eslam_hw::resource::{eslam_total, DEFAULT_MATCHER_PARALLELISM, XCZ7045};
use eslam_hw::simulate_extraction;
use eslam_hw::stream::StreamModel;
use eslam_hw::system::{eslam_stage_times, pipeline_timeline, platform_reports};

fn main() {
    println!("== ORB Extractor timing (nominal VGA workload) ==");
    let model = ExtractorModel::default();
    let workload = ExtractionWorkload::vga_nominal();
    let t = model.extraction_timing(&workload, Workflow::Rescheduled);
    println!("  pixels        : {:>9} cycles", t.pixel_cycles.0);
    println!("  row overhead  : {:>9} cycles", t.row_overhead_cycles.0);
    println!("  cache prefill : {:>9} cycles", t.prefill_cycles.0);
    println!("  candidates    : {:>9} cycles", t.candidate_cycles.0);
    println!("  heap drain    : {:>9} cycles", t.drain_cycles.0);
    println!("  axi writeback : {:>9} cycles", t.writeback_cycles.0);
    println!("  pipeline flush: {:>9} cycles", t.flush_cycles.0);
    println!(
        "  TOTAL         : {:>9} cycles = {:.2} ms @100MHz",
        t.total.0,
        t.total_ms()
    );

    println!("\n== BRIEF Matcher timing (1024 × {NOMINAL_MAP_POINTS}) ==");
    let m = MatcherModel::default().matching_timing(1024, NOMINAL_MAP_POINTS);
    println!("  query load    : {:>9} cycles", m.query_load_cycles.0);
    println!("  compute       : {:>9} cycles", m.compute_cycles.0);
    println!("  writeback     : {:>9} cycles", m.writeback_cycles.0);
    println!(
        "  TOTAL         : {:>9} cycles = {:.2} ms @100MHz",
        m.total.0,
        m.total_ms()
    );

    println!("\n== FPGA resources (Table 1) ==");
    let total = eslam_total(DEFAULT_MATCHER_PARALLELISM);
    let util = XCZ7045.utilization(total);
    println!(
        "  LUT {} ({:.1}%) · FF {} ({:.1}%) · DSP {} ({:.1}%) · BRAM {} ({:.1}%)",
        total.lut,
        util.percent[0],
        total.ff,
        util.percent[1],
        total.dsp,
        util.percent[2],
        total.bram,
        util.percent[3],
    );

    println!("\n== Platform comparison (Tables 2/3) ==");
    for report in platform_reports() {
        println!(
            "  {:<10} N-frame {:>7.1} ms ({:>6.2} fps, {:>7.1} mJ) · K-frame {:>7.1} ms ({:>6.2} fps, {:>7.1} mJ) @ {:.3} W",
            report.name,
            report.frames.normal_ms,
            report.frames.normal_fps,
            report.energy_normal_mj,
            report.frames.keyframe_ms,
            report.frames.keyframe_fps,
            report.energy_keyframe_mj,
            report.power_w,
        );
    }

    println!("\n== Fig. 7 pipeline timeline (key frame) ==");
    let stages = eslam_stage_times();
    for entry in pipeline_timeline(&stages, true) {
        println!(
            "  {:<4} {:<2} {:>6.1} → {:>6.1} ms",
            entry.lane, entry.stage, entry.start_ms, entry.end_ms
        );
    }

    println!("\n== Block-level streaming simulation (stripe/refill overlap) ==");
    let stream = StreamModel::default();
    for (level, t) in stream.simulate_pyramid(640, 480, 4).iter().enumerate() {
        println!(
            "  level {level}: {:>7} cycles ({} stripes, prefill {}, stalls {})",
            t.total.0, t.stripes, t.prefill.0, t.stall.0
        );
    }
    let stream_total = stream.pyramid_total(640, 480, 4);
    println!(
        "  idealized pyramid total: {} cycles = {:.2} ms (coarse calibrated model: 9.10 ms)",
        stream_total.0,
        stream_total.to_millis(eslam_hw::FPGA_CLOCK_HZ)
    );

    println!("\n== Simulated extraction on a rendered frame ==");
    let frame = SequenceSpec::paper_sequences(1, 0.5)[2].build().frame(0);
    let sim = simulate_extraction(&frame.gray, &ExtractorModel::default());
    println!(
        "  {}x{} frame: {} candidates -> {} kept · modelled FE {:.2} ms",
        frame.gray.width(),
        frame.gray.height(),
        sim.features.stats.candidates,
        sim.features.stats.kept,
        sim.timing.total_ms()
    );
}
