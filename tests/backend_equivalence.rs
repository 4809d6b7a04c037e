//! The keyframe-backend oracle (mirroring `prefetch_equivalence.rs`
//! for the mapping layer): the asynchronous local-mapping mode must be
//! **bit-identical** to the synchronous reference mode — per-frame
//! poses, keyframe decisions, map sizes, refined trajectories and
//! backend bookkeeping — across paper sequences, worker-pool shapes and
//! dataset-prefetch settings; and the windowed local BA must
//! demonstrably reduce trajectory error against the no-backend
//! baseline.
//!
//! The equivalence holds because the backend dispatches each solve on
//! an owned snapshot and applies the result only at the next frame
//! boundary — never "whenever the worker finished" — so thread timing
//! cannot leak into the state evolution.

use eslam_core::{run_sequence, BackendMode, PrefetchMode, Slam, SlamConfig, Stage};
use eslam_dataset::sequence::{SequenceSpec, SyntheticSequence};

const IMAGE_SCALE: f64 = 0.25;

fn config() -> SlamConfig {
    SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE)
}

/// Paper sequences sized so the backend actually engages (several
/// keyframes → several local-BA solves), while staying debug-fast.
fn backend_heavy_sequences() -> Vec<SyntheticSequence> {
    let all = SequenceSpec::paper_sequences(12, IMAGE_SCALE);
    let frames = [12, 10, 10, 8, 10]; // xyz, fr2/xyz, desk, room, rpy
    all.iter()
        .zip(frames)
        .map(|(spec, n)| {
            let mut spec = spec.clone();
            spec.params.frames = n;
            spec.build()
        })
        .collect()
}

#[test]
fn async_backend_bit_identical_to_sync_reference() {
    // The oracle: a manual Slam loop in Sync mode versus run_sequence
    // in Async mode, for every paper sequence. Everything the system
    // produces must agree exactly.
    for seq in backend_heavy_sequences() {
        let mut sync_cfg = config();
        sync_cfg.backend.mode = BackendMode::Sync;
        let mut manual = Slam::builder().config(sync_cfg).build();
        let sync_reports: Vec<_> = seq
            .frames()
            .map(|f| manual.process(f.timestamp, &f.gray, &f.depth))
            .collect();
        manual.finish();

        let mut async_cfg = config();
        async_cfg.backend.mode = BackendMode::Async;
        let result = run_sequence(&seq, async_cfg);

        assert_eq!(result.reports.len(), sync_reports.len(), "{}", seq.name);
        for (a, s) in result.reports.iter().zip(&sync_reports) {
            let ctx = format!("{} frame {}", seq.name, s.index);
            assert_eq!(a.pose_c2w, s.pose_c2w, "{ctx}: pose");
            assert_eq!(a.is_keyframe, s.is_keyframe, "{ctx}: keyframe flag");
            assert_eq!(a.tracking_ok, s.tracking_ok, "{ctx}: tracking flag");
            assert_eq!(a.inliers, s.inliers, "{ctx}: inliers");
            assert_eq!(a.map_size, s.map_size, "{ctx}: map size");
            assert_eq!(a.backend_applied, s.backend_applied, "{ctx}: apply point");
            assert_eq!(a.extraction, s.extraction, "{ctx}: extraction counters");
        }
        // Refined and raw trajectories are identical pose streams.
        assert_eq!(
            result.estimate.poses(),
            manual.trajectory().poses(),
            "{}: refined trajectory",
            seq.name
        );
        assert_eq!(
            result.raw_estimate.poses(),
            manual.raw_trajectory().poses(),
            "{}: raw trajectory",
            seq.name
        );
        assert_eq!(
            result.keyframes.poses(),
            manual.keyframe_trajectory().poses(),
            "{}: keyframe trajectory",
            seq.name
        );
        // Backend bookkeeping agrees on everything but wall-clock.
        let (a, s) = (
            result.backend.expect("async backend stats"),
            *manual.backend_stats().expect("sync backend stats"),
        );
        assert_eq!(a.runs, s.runs, "{}: solves dispatched", seq.name);
        assert_eq!(a.applied, s.applied, "{}: solves applied", seq.name);
        assert_eq!(a.iterations, s.iterations, "{}: LM iterations", seq.name);
        assert_eq!(a.refined_keyframes, s.refined_keyframes, "{}", seq.name);
        assert_eq!(a.refined_landmarks, s.refined_landmarks, "{}", seq.name);
        assert_eq!(a.last_initial_cost, s.last_initial_cost, "{}", seq.name);
        assert_eq!(a.last_final_cost, s.last_final_cost, "{}", seq.name);
        // The backend actually did work on every sequence (otherwise
        // this test proves nothing).
        assert!(a.runs >= 1, "{}: no local BA dispatched", seq.name);
        assert!(a.applied >= 1, "{}: no refinement applied", seq.name);
    }
}

#[test]
fn backend_equivalence_holds_across_pool_shapes_and_prefetch() {
    // The BA-heaviest sequence (room promotes every frame) under every
    // combination of Slam worker-pool width and dataset-prefetch mode:
    // one reference, bit-identical everywhere. Note the BA solves
    // themselves run on the process-global pool (whose width tracks
    // the host), so the `worker_threads` axis here varies the
    // extraction/matcher pool the solves must *not* interact with;
    // narrow-pool submit/join coverage for BA jobs (1/2/4-thread
    // pools, help-drain at join) lives in the eslam-backend unit test
    // `async_runner_matches_sync_runner_bitwise`, which constructs the
    // pools explicitly.
    let seq = SequenceSpec::paper_sequences(8, IMAGE_SCALE)[3].build();
    let mut reference: Option<eslam_core::RunResult> = None;
    for worker_threads in [Some(1), None] {
        for prefetch in [PrefetchMode::Off, PrefetchMode::On] {
            let mut cfg = config();
            cfg.backend.mode = BackendMode::Async;
            cfg.worker_threads = worker_threads;
            cfg.prefetch = prefetch;
            let result = run_sequence(&seq, cfg);
            match &reference {
                None => reference = Some(result),
                Some(r) => {
                    let ctx = format!("threads {worker_threads:?} prefetch {prefetch:?}");
                    assert_eq!(
                        result.estimate.poses(),
                        r.estimate.poses(),
                        "{ctx}: estimate"
                    );
                    assert_eq!(
                        result.keyframes.poses(),
                        r.keyframes.poses(),
                        "{ctx}: keyframes"
                    );
                    let (a, b) = (result.backend.unwrap(), r.backend.unwrap());
                    assert_eq!(a.runs, b.runs, "{ctx}: runs");
                    assert_eq!(a.iterations, b.iterations, "{ctx}: iterations");
                    assert_eq!(a.last_final_cost, b.last_final_cost, "{ctx}: cost");
                }
            }
        }
    }
    let runs = reference.unwrap().backend.unwrap().runs;
    assert!(
        runs >= 5,
        "room should solve nearly every frame, got {runs}"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Determinism of one fixed configuration (the async default): the
    // whole pipeline, backend included, must be a pure function of its
    // input.
    let seq = SequenceSpec::paper_sequences(8, IMAGE_SCALE)[2].build();
    let run = || run_sequence(&seq, config());
    let (a, b) = (run(), run());
    assert_eq!(a.estimate.poses(), b.estimate.poses());
    assert_eq!(a.raw_estimate.poses(), b.raw_estimate.poses());
    assert_eq!(a.keyframes.poses(), b.keyframes.poses());
    let (sa, sb) = (a.backend.unwrap(), b.backend.unwrap());
    assert_eq!(sa.runs, sb.runs);
    assert_eq!(sa.iterations, sb.iterations);
    assert_eq!(sa.last_initial_cost, sb.last_initial_cost);
    assert_eq!(sa.last_final_cost, sb.last_final_cost);
}

#[test]
fn local_ba_reduces_trajectory_error_on_paper_sequences() {
    // The acceptance oracle: windowed local BA improves ATE on at
    // least 3 of the 5 paper sequences versus the no-backend baseline
    // (24 frames, quarter scale — margins measured on the current
    // deterministic pipeline, recorded below).
    // Measured ATE rmse (cm) off → on at this exact configuration, each
    // sequence tracked through the camera it was rendered with:
    //   fr1/xyz   2.640 → 2.151  (−0.489)
    //   fr2/xyz   2.158 → 2.027  (−0.131)
    //   fr1/desk  0.665 → 0.670  (+0.005, margin noise at sub-mm)
    //   fr1/room  7.823 → 7.533  (−0.290)
    //   fr2/rpy   2.552 → 2.686  (+0.134, rotation-only: no parallax
    //                              for BA to exploit, margin noise)
    let mut improved = 0;
    let mut total_off = 0.0;
    let mut total_on = 0.0;
    let mut table = String::new();
    for spec in &SequenceSpec::paper_sequences(24, IMAGE_SCALE) {
        let seq = spec.build();
        let run = |mode: BackendMode| {
            let mut cfg = config();
            cfg.camera = spec.camera;
            cfg.backend.mode = mode;
            run_sequence(&seq, cfg)
        };
        let off = run(BackendMode::Off)
            .ate_rmse_cm(Stage::Closed)
            .expect("ate");
        let on_run = run(BackendMode::Sync);
        let on = on_run.ate_rmse_cm(Stage::Closed).expect("ate");
        assert!(
            on_run.backend.map_or(0, |b| b.applied) >= 1 || spec.name.contains("rpy"),
            "{}: backend never engaged",
            spec.name
        );
        if on < off {
            improved += 1;
        }
        total_off += off;
        total_on += on;
        table.push_str(&format!("  {:10} {off:7.3} -> {on:7.3} cm\n", spec.name));
    }
    eprintln!("ATE off -> with local BA:\n{table}");
    assert!(
        improved >= 3,
        "local BA should improve ATE on >=3/5 sequences, improved {improved}/5:\n{table}"
    );
    assert!(
        total_on < total_off,
        "local BA should improve total ATE: {total_off:.3} -> {total_on:.3} cm\n{table}"
    );
}
