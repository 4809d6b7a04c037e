//! Sample statistics: nearest-rank percentiles with the tail-size rule,
//! throughput from latencies, and the per-frame self-time subtraction.

/// Samples a reported percentile must leave beyond it: a p95 read off
/// fewer than this many slower samples is one unlucky frame, not a tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `samples` (`0 < p ≤ 100`): the smallest
/// sample with at least `p` % of all samples at or below it. `None` for
/// an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = rank(samples.len(), p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |r| n - r)
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond
/// percentile `p`, so that the percentile may be reported.
pub fn tail_ok(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// The median (nearest-rank p50), or `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Frames per second of a closed loop: frames handled divided by the
/// time spent handling them (the sum of the per-call latencies, in ms).
/// Time between calls — frame production — is not in the denominator.
pub fn fps(latencies_ms: &[f64]) -> Option<f64> {
    let busy_ms: f64 = latencies_ms.iter().sum();
    (busy_ms > 0.0).then(|| latencies_ms.len() as f64 / (busy_ms / 1e3))
}

/// Folds one replay's per-frame latencies into `fastest`, keeping each
/// frame's shortest time; an empty `fastest` takes the replay whole.
/// Every replay does the same work (bit-identical outputs are checked),
/// so what separates them is interference from outside the program.
pub fn keep_fastest(fastest: &mut Vec<f64>, replay_ms: &[f64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(replay_ms);
        return;
    }
    assert_eq!(fastest.len(), replay_ms.len(), "replays of unequal length");
    for (best, &ms) in fastest.iter_mut().zip(replay_ms) {
        *best = best.min(ms);
    }
}

/// Self time of a call: its own duration minus the durations of the
/// layer calls attributed to it for the same frame.
pub fn self_time(total_ms: f64, layers_ms: &[f64]) -> f64 {
    total_ms - layers_ms.iter().sum::<f64>()
}

/// Root mean square of `values`, or `None` when empty.
pub fn rms(values: &[f64]) -> Option<f64> {
    (!values.is_empty())
        .then(|| (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt())
}

/// Arithmetic mean of `values`, or `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 95.0), Some(95.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        // Even counts take the lower middle sample.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_rule_counts_samples_beyond_the_percentile() {
        // 200 samples: p95 is the 190th, ten lie beyond it.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(tail_ok(200, 95.0));
        // 199 samples: p95 is the 190th (ceil 189.05), nine beyond.
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert!(!tail_ok(199, 95.0));
        // The median of 20 samples is the 10th; 19 leave only nine.
        assert!(tail_ok(20, 50.0));
        assert!(!tail_ok(19, 50.0));
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn fps_divides_frames_by_busy_time() {
        // Four frames of 25 ms each: 0.1 s busy, 40 frames/s.
        let fps = fps(&[25.0, 25.0, 25.0, 25.0]).unwrap();
        assert!((fps - 40.0).abs() < 1e-9, "{fps}");
        // Unequal latencies: 3 frames in 60 ms.
        let fps = super::fps(&[10.0, 20.0, 30.0]).unwrap();
        assert!((fps - 50.0).abs() < 1e-9, "{fps}");
        assert_eq!(super::fps(&[]), None);
    }

    #[test]
    fn fastest_replay_per_frame() {
        let mut fastest = Vec::new();
        keep_fastest(&mut fastest, &[5.0, 9.0, 7.0]);
        assert_eq!(fastest, [5.0, 9.0, 7.0]);
        keep_fastest(&mut fastest, &[6.0, 4.0, 7.5]);
        assert_eq!(fastest, [5.0, 4.0, 7.0]);
        keep_fastest(&mut fastest, &[1.0, 8.0, 2.0]);
        assert_eq!(fastest, [1.0, 4.0, 2.0]);
    }

    #[test]
    fn self_time_subtracts_the_layer_calls() {
        assert_eq!(self_time(10.0, &[4.0, 1.5, 0.5]), 4.0);
        assert_eq!(self_time(3.0, &[]), 3.0);
        // Re-executed layers can outlast the call they shadow.
        assert_eq!(self_time(2.0, &[2.5]), -0.5);
    }

    #[test]
    fn rms_and_mean() {
        assert_eq!(rms(&[3.0, 4.0]), Some((12.5f64).sqrt()));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(rms(&[]), None);
        assert_eq!(mean(&[]), None);
    }
}
