//! Regenerates **Figure 9**: estimated vs ground-truth trajectory on the
//! fr1/desk stand-in, as a PPM overlay plot and a CSV of both tracks.
//! `ESLAM_*` toggles set in the environment win over the figure's config
//! (see `eslam_core::overrides`).

use eslam_bench::out_dir;
use eslam_core::{Overrides, Slam, SlamConfig};
use eslam_dataset::sequence::SequenceSpec;
use eslam_dataset::{absolute_trajectory_error, Trajectory};
use eslam_features::orb::DescriptorKind;
use eslam_image::draw::plot_polyline;
use eslam_image::RgbImage;
use std::io::Write;

fn track(
    descriptor: DescriptorKind,
    frames: usize,
    scale: f64,
    overrides: &Overrides,
) -> (Trajectory, Trajectory) {
    let spec = &SequenceSpec::paper_sequences(frames, scale)[2]; // fr1/desk
    let seq = spec.build();
    let mut config = SlamConfig::scaled_for_tests(1.0 / scale);
    config.orb.descriptor = descriptor;
    overrides.apply(&mut config);
    let mut slam = Slam::builder().config(config).build();
    for frame in seq.frames() {
        slam.process(frame.timestamp, &frame.gray, &frame.depth);
    }
    let first = seq.trajectory.poses()[0].pose;
    let mut truth = Trajectory::new();
    for tp in seq.trajectory.poses() {
        truth.push(tp.timestamp, first.inverse().compose(&tp.pose));
    }
    (slam.trajectory().clone(), truth)
}

fn main() {
    let overrides = Overrides::from_env();
    let fast = std::env::args().any(|a| a == "--fast");
    let (frames, scale) = if fast { (15, 0.25) } else { (40, 0.5) };
    println!("Fig. 9: fr1/desk trajectories ({frames} frames at {scale}x resolution)");

    let (est_rs, truth) = track(DescriptorKind::RsBrief, frames, scale, &overrides);
    let (est_orig, _) = track(DescriptorKind::OriginalLut, frames, scale, &overrides);

    let dir = out_dir();
    // CSV with all three tracks.
    let mut csv = std::fs::File::create(dir.join("fig9_trajectory.csv")).expect("csv");
    writeln!(csv, "t,gt_x,gt_y,gt_z,rs_x,rs_y,rs_z,orig_x,orig_y,orig_z").unwrap();
    for ((g, r), o) in truth
        .poses()
        .iter()
        .zip(est_rs.poses())
        .zip(est_orig.poses())
    {
        let (gt, rt, ot) = (g.pose.translation, r.pose.translation, o.pose.translation);
        writeln!(
            csv,
            "{:.4},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5}",
            g.timestamp, gt.x, gt.y, gt.z, rt.x, rt.y, rt.z, ot.x, ot.y, ot.z
        )
        .unwrap();
    }

    // Overlay plot in the x/z plane (the paper plots a 2-D slice).
    let mut canvas = RgbImage::filled(900, 700, [255, 255, 255]);
    let xy = |t: &Trajectory| -> Vec<(f64, f64)> {
        t.poses()
            .iter()
            .map(|p| (p.pose.translation.x, p.pose.translation.z))
            .collect()
    };
    plot_polyline(&mut canvas, &xy(&truth), [0, 0, 0], 40); // black: ground truth
    plot_polyline(&mut canvas, &xy(&est_rs), [220, 40, 40], 40); // red: RS-BRIEF
    plot_polyline(&mut canvas, &xy(&est_orig), [40, 90, 220], 40); // blue: original ORB
    canvas
        .save_ppm(dir.join("fig9_trajectory.ppm"))
        .expect("ppm");

    let ate_rs = absolute_trajectory_error(&est_rs, &truth).expect("ate");
    let ate_orig = absolute_trajectory_error(&est_orig, &truth).expect("ate");
    println!(
        "wrote fig9_trajectory.ppm / fig9_trajectory.csv to {}",
        dir.display()
    );
    println!(
        "ATE rmse: RS-BRIEF {:.2} cm · original ORB {:.2} cm (paper shows both hugging ground truth)",
        ate_rs.stats.rmse * 100.0,
        ate_orig.stats.rmse * 100.0
    );
}
