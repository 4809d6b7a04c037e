//! Integration tests of the §3.1 workflow rescheduling on real rendered
//! frames: the extractor's descriptor overhead, and the accelerator
//! model's latency and memory under both schedules, as the paper argues.

use eslam_dataset::sequence::SequenceSpec;
use eslam_features::orb::{OrbConfig, OrbExtractor};
use eslam_hw::extractor::{ExtractionWorkload, ExtractorModel, Workflow};

fn rendered_gray() -> eslam_image::GrayImage {
    SequenceSpec::paper_sequences(1, 0.5)[2]
        .build()
        .frame(0)
        .gray
}

#[test]
fn rescheduled_workflow_computes_extra_descriptors() {
    // The M − N overhead of §3.1, measured on real content, under the
    // per-level keep bound: the extractor describes min(M_level, N) per
    // level — all M when N ≥ M, levels × N when every level has more
    // than N, as every level of this frame does at the paper's N —
    // which still exceeds the N it keeps.
    let gray = rendered_gray();
    let extract = |max_features| {
        OrbExtractor::new(OrbConfig {
            max_features,
            ..Default::default()
        })
        .extract(&gray)
    };
    let n = OrbConfig::default().max_features;
    let paper = extract(n);
    let m = paper.stats.candidates;
    let all = extract(m);
    assert_eq!(all.stats.kept, m);
    assert_eq!(all.stats.descriptors_computed, m);
    // Every candidate is kept at N = M, so its keypoints count each
    // level's M.
    let levels = OrbConfig::default().pyramid.levels;
    for level in 0..levels {
        let m_level = all.keypoints.iter().filter(|k| k.level == level).count();
        assert!(m_level > n, "level {level} has {m_level} candidates");
    }
    assert_eq!(paper.stats.descriptors_computed, levels * n);
    assert!(paper.stats.kept < paper.stats.descriptors_computed);
}

#[test]
fn rescheduled_timing_beats_original_on_measured_workload() {
    let gray = rendered_gray();
    let features = OrbExtractor::new(OrbConfig::default()).extract(&gray);
    let workload = ExtractionWorkload::from_pyramid(
        gray.width(),
        gray.height(),
        &OrbConfig::default().pyramid,
        features.stats.candidates as u64,
        features.stats.kept as u64,
    );
    let model = ExtractorModel::default();
    let rescheduled = model.extraction_timing(&workload, Workflow::Rescheduled);
    let original = model.extraction_timing(&workload, Workflow::Original);
    assert!(
        rescheduled.total < original.total,
        "rescheduled {} vs original {}",
        rescheduled.total,
        original.total
    );
}

#[test]
fn rescheduled_memory_footprint_is_streaming_only() {
    let gray = rendered_gray();
    let workload = ExtractionWorkload::from_pyramid(
        gray.width(),
        gray.height(),
        &OrbConfig::default().pyramid,
        2000,
        1024,
    );
    let model = ExtractorModel::default();
    let r = model.memory_footprint(&workload, Workflow::Rescheduled);
    let o = model.memory_footprint(&workload, Workflow::Original);
    assert_eq!(r.buffer_bits, 0);
    assert!(o.buffer_bits > 0);
    assert_eq!(r.streaming_bits, o.streaming_bits);
}
