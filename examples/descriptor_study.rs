//! Descriptor study: compares RS-BRIEF against the original BRIEF
//! steering strategies (§2.2) on rotation-robustness and steering cost,
//! and dumps the Fig. 2 pattern visualization.
//!
//! ```text
//! cargo run --release -p eslam --example descriptor_study
//! ```

use eslam_dataset::sequence::SequenceSpec;
use eslam_features::brief::{OriginalBrief, RsBrief};
use eslam_features::orientation::angle_to_label;
use eslam_features::pattern::{BriefPattern, PATCH_RADIUS};
use eslam_image::draw::{draw_circle, draw_line};
use eslam_image::filter::gaussian_blur_7x7_fixed;
use eslam_image::RgbImage;
use std::error::Error;
use std::path::PathBuf;

/// Renders a pattern as a Fig. 2-style plot: a line per test pair.
fn render_pattern(pattern: &BriefPattern, path: &std::path::Path) -> Result<(), Box<dyn Error>> {
    let size = 512;
    let mut img = RgbImage::filled(size, size, [255, 255, 255]);
    let scale = (size as f64 / 2.0 - 10.0) / PATCH_RADIUS;
    let centre = size as i64 / 2;
    let to_px = |v: f64| (v * scale) as i64 + centre;
    draw_circle(
        &mut img,
        centre,
        centre,
        (PATCH_RADIUS * scale) as i64,
        [0, 0, 0],
    );
    for pair in pattern.pairs() {
        draw_line(
            &mut img,
            to_px(pair.s.x),
            to_px(pair.s.y),
            to_px(pair.d.x),
            to_px(pair.d.y),
            [60, 60, 200],
        );
    }
    img.save_ppm(path)?;
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let out_dir = PathBuf::from("target/eslam-out");
    std::fs::create_dir_all(&out_dir)?;

    // Fig. 2: the two patterns.
    let rs = RsBrief::new(42);
    let orig = OriginalBrief::new(42);
    render_pattern(rs.pattern(), &out_dir.join("fig2_rs_brief.ppm"))?;
    render_pattern(orig.pattern(), &out_dir.join("fig2_brief.ppm"))?;
    println!(
        "wrote fig2_rs_brief.ppm and fig2_brief.ppm to {}",
        out_dir.display()
    );

    // Steering-cost comparison (the §2.2 argument):
    println!("\n== Steering cost per feature ==");
    println!(
        "  direct rotation (Eq. 2): 512 locations x (4 mul + 2 add) = {} ops",
        512 * 6
    );
    println!(
        "  30-angle LUT [8]       : 0 ops, but {} stored locations",
        orig.lut().storage_locations()
    );
    println!("  RS-BRIEF rotator       : one 256-bit rotate by 8xN bits (0 extra storage)");

    // Rotation robustness: descriptors of the same physical patch under
    // in-plane rotation, steered by the discretized orientation label.
    println!("\n== Rotation robustness on a rendered frame ==");
    let frame = SequenceSpec::paper_sequences(1, 0.5)[3].build().frame(0);
    let smoothed = gaussian_blur_7x7_fixed(&frame.gray);
    let (cx, cy) = (frame.gray.width() / 2, frame.gray.height() / 2);
    let base = rs.compute(&smoothed, cx, cy, 0);
    println!("  label | Hamming(RS steered, base)");
    for label in [0u8, 4, 8, 16, 24, 31] {
        // Steering the *same* patch by a label models a feature whose
        // orientation estimate moved by label steps: distance to the base
        // descriptor measures how much steering changes the code.
        let steered = rs.compute(&smoothed, cx, cy, label);
        println!("  {:>5} | {:>3}", label, base.hamming(&steered));
    }

    // Label discretization error (§2.2's accuracy argument).
    println!("\n== Orientation discretization ==");
    for degrees in [0.0f64, 5.0, 11.25, 20.0, 45.0, 170.0, 350.0] {
        let label = angle_to_label(degrees.to_radians());
        println!(
            "  {:>6.2} deg -> label {:>2} (represents {:>6.2} deg)",
            degrees,
            label,
            label as f64 * 11.25
        );
    }
    Ok(())
}
