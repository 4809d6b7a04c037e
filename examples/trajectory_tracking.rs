//! Trajectory tracking demo: runs eSLAM on the fr1/desk stand-in, writes
//! the estimated and ground-truth trajectories in TUM format, and renders
//! a Fig. 9-style overlay plot as a PPM image.
//!
//! ```text
//! cargo run --release -p eslam --example trajectory_tracking
//! ```
//!
//! Outputs land in `target/eslam-out/`.

use eslam_core::{run_sequence, SlamConfig, Stage};
use eslam_dataset::sequence::SequenceSpec;
use eslam_image::draw::plot_polyline;
use eslam_image::RgbImage;
use std::error::Error;
use std::fs::File;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn Error>> {
    let out_dir = PathBuf::from("target/eslam-out");
    std::fs::create_dir_all(&out_dir)?;

    let image_scale = 0.5;
    let spec = &SequenceSpec::paper_sequences(40, image_scale)[2]; // fr1/desk
    let sequence = spec.build();

    // One call runs the whole `FrameSource`: frames stream through a
    // recycled buffer pair (async-prefetched when the host has the
    // cores for it — pin with `SlamConfig::prefetch`), ground truth is
    // rebased to the first camera frame, and the wall-clock wait/track
    // split comes back measured.
    let result = run_sequence(&sequence, SlamConfig::scaled_for_tests(1.0 / image_scale));
    let truth = &result.ground_truth;

    // TUM-format dumps.
    result
        .trajectory(Stage::Closed)
        .write_tum(File::create(out_dir.join("estimate.tum"))?)?;
    truth.write_tum(File::create(out_dir.join("groundtruth.tum"))?)?;

    // Fig. 9-style x/z overlay plot.
    let mut canvas = RgbImage::filled(800, 600, [255, 255, 255]);
    let gt_points: Vec<(f64, f64)> = truth
        .poses()
        .iter()
        .map(|p| (p.pose.translation.x, p.pose.translation.z))
        .collect();
    let est_points: Vec<(f64, f64)> = result
        .trajectory(Stage::Closed)
        .poses()
        .iter()
        .map(|p| (p.pose.translation.x, p.pose.translation.z))
        .collect();
    // Plot both with the same scaling by plotting the union extents
    // first (ground truth covers the same range as the estimate here).
    plot_polyline(&mut canvas, &gt_points, [0, 0, 0], 40); // black: truth
    plot_polyline(&mut canvas, &est_points, [220, 30, 30], 40); // red: estimate
    canvas.save_ppm(out_dir.join("fig9_trajectory.ppm"))?;

    let ate = result.ate.ok_or("trajectory too short for ATE")?;
    println!(
        "wrote {}/estimate.tum, groundtruth.tum, fig9_trajectory.ppm",
        out_dir.display()
    );
    println!(
        "ATE rmse {:.2} cm over {} poses ({} keyframes)",
        ate.stats.rmse * 100.0,
        ate.stats.count,
        result.stats.keyframes
    );
    // Drift split: raw (as tracked) → local BA (windowed refinement) →
    // loop closure (pose-graph correction). The BA-only reference
    // trajectory withholds loop corrections, so the two backend stages
    // report their shares separately.
    if let (Some(raw), Some(ba), Some(stats)) = (
        result.ate_rmse_cm(Stage::Raw),
        result.ate_rmse_cm(Stage::Ba),
        result.backend,
    ) {
        println!(
            "local BA: drift {raw:.2} cm as tracked -> {ba:.2} cm refined \
             ({} solves, {} LM iterations, {:.2} ms total solve time, \
             {} keyframe poses + {} landmarks refined)",
            stats.runs,
            stats.iterations,
            stats.solve_ms,
            stats.refined_keyframes,
            stats.refined_landmarks,
        );
        if stats.loops_closed > 0 {
            println!(
                "loop closure: drift {ba:.2} cm pre-closure -> {:.2} cm corrected \
                 ({} closures of {} candidates, {} pose-graph iterations, \
                 last verification {} matches / {} inliers, {:.2} ms total)",
                ate.stats.rmse * 100.0,
                stats.loops_closed,
                stats.loop_candidates,
                stats.pose_graph_iterations,
                stats.last_loop_matches,
                stats.last_loop_inliers,
                stats.loop_solve_ms,
            );
        } else {
            println!(
                "loop closure: no loop detected ({} candidates verified and rejected) \
                 -> corrected drift equals the BA split at {:.2} cm",
                stats.loops_rejected,
                ate.stats.rmse * 100.0,
            );
        }
    }
    println!(
        "frames {} · prefetched: {} · waited {:.1} ms for pixels vs {:.1} ms tracking",
        result.stats.frames, result.prefetched, result.wall.frame_wait_ms, result.wall.track_ms
    );
    Ok(())
}
