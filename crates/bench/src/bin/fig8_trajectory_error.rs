//! Regenerates **Figure 8**: average trajectory error of the RS-BRIEF
//! SLAM implementation vs original ORB, across the five (synthetic
//! stand-in) TUM sequences.
//!
//! Full VGA frames are expensive; pass `--fast` to run at quarter scale,
//! or `--frames N` / `--scale S` to customize. `ESLAM_*` toggles set in
//! the environment win over the figure's config (see
//! `eslam_core::overrides`).

use eslam_bench::{print_table, Row};
use eslam_core::{Overrides, Slam, SlamConfig};
use eslam_dataset::sequence::SequenceSpec;
use eslam_dataset::{absolute_trajectory_error, Trajectory};
use eslam_features::orb::DescriptorKind;

fn run(
    spec: &SequenceSpec,
    descriptor: DescriptorKind,
    image_scale: f64,
    overrides: &Overrides,
) -> Option<f64> {
    let seq = spec.build();
    let mut config = SlamConfig::scaled_for_tests(1.0 / image_scale);
    config.camera = spec.camera;
    config.orb.descriptor = descriptor;
    overrides.apply(&mut config);
    let mut slam = Slam::builder().config(config).build();
    for frame in seq.frames() {
        slam.process(frame.timestamp, &frame.gray, &frame.depth);
    }
    // Ground truth rebased to the first frame (the SLAM world origin).
    let first = seq.trajectory.poses()[0].pose;
    let mut truth = Trajectory::new();
    for tp in seq.trajectory.poses() {
        truth.push(tp.timestamp, first.inverse().compose(&tp.pose));
    }
    absolute_trajectory_error(slam.trajectory(), &truth).map(|a| a.stats.rmse * 100.0)
}

fn main() {
    let overrides = Overrides::from_env();
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let frames = arg_value(&args, "--frames").unwrap_or(if fast { 12.0 } else { 30.0 }) as usize;
    let scale = arg_value(&args, "--scale").unwrap_or(if fast { 0.25 } else { 0.5 });

    println!("Fig. 8: average trajectory error — {frames} frames/seq at {scale}x resolution");
    // Paper per-sequence errors are read off Fig. 8's bar chart (cm):
    let paper_rs = [1.2, 2.1, 5.0, 9.5, 3.7];
    let paper_orig = [0.9, 1.7, 5.5, 8.9, 3.9];

    let specs = SequenceSpec::paper_sequences(frames, scale);
    let mut rows = Vec::new();
    let mut rs_sum = 0.0;
    let mut orig_sum = 0.0;
    let mut n = 0.0;
    for (i, spec) in specs.iter().enumerate() {
        let rs = run(spec, DescriptorKind::RsBrief, scale, &overrides);
        let orig = run(spec, DescriptorKind::OriginalLut, scale, &overrides);
        match (rs, orig) {
            (Some(rs), Some(orig)) => {
                rs_sum += rs;
                orig_sum += orig;
                n += 1.0;
                rows.push(Row::text(
                    format!("{} (RS-BRIEF)", spec.name),
                    format!("{:.1} cm*", paper_rs[i]),
                    format!("{rs:.2} cm"),
                ));
                rows.push(Row::text(
                    format!("{} (original)", spec.name),
                    format!("{:.1} cm*", paper_orig[i]),
                    format!("{orig:.2} cm"),
                ));
            }
            _ => rows.push(Row::text(spec.name.clone(), "-", "ATE unavailable")),
        }
    }
    rows.push(Row::text(
        "average (RS-BRIEF)",
        "4.30 cm",
        format!("{:.2} cm", rs_sum / n),
    ));
    rows.push(Row::text(
        "average (original ORB)",
        "4.16 cm",
        format!("{:.2} cm", orig_sum / n),
    ));
    print_table("Fig. 8: average trajectory error (ATE rmse)", &rows);
    println!(
        "* per-sequence paper values read off the bar chart; sequences are synthetic stand-ins,"
    );
    println!("  so only the *comparability* of RS-BRIEF vs original ORB is expected to reproduce.");

    let ratio = (rs_sum / n) / (orig_sum / n).max(1e-9);
    println!(
        "\nRS-BRIEF / original error ratio: {ratio:.2} (paper: 4.30/4.16 = 1.03 — comparable)"
    );
}

fn arg_value(args: &[String], key: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}
