//! Generic RANSAC (Random Sample Consensus) estimator.
//!
//! The paper uses RANSAC to eliminate mismatches before PnP pose estimation
//! (§2.1). This module provides a reusable, deterministic (seeded) RANSAC
//! loop with adaptive termination; the PnP wrapper in [`crate::pnp`] builds
//! on it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters controlling a RANSAC run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RansacParams {
    /// Maximum number of sampling iterations.
    pub max_iterations: usize,
    /// Inlier threshold on the per-datum error (same unit the error
    /// function returns, e.g. pixels of reprojection error).
    pub threshold: f64,
    /// Minimum number of inliers for a model to be accepted at all.
    pub min_inliers: usize,
    /// Desired probability that at least one sample was outlier-free;
    /// drives adaptive early termination. Typical value `0.99`.
    pub confidence: f64,
    /// RNG seed, making runs reproducible.
    pub seed: u64,
}

impl Default for RansacParams {
    fn default() -> Self {
        RansacParams {
            max_iterations: 200,
            threshold: 5.99,
            min_inliers: 10,
            confidence: 0.99,
            seed: 0x5eed,
        }
    }
}

/// Result of a successful RANSAC run.
#[derive(Debug, Clone, PartialEq)]
pub struct RansacResult<M> {
    /// The best model found.
    pub model: M,
    /// Indices of the data points consistent with [`RansacResult::model`].
    pub inliers: Vec<usize>,
    /// Number of sampling iterations actually executed.
    pub iterations: usize,
}

/// Runs RANSAC over `n` data items.
///
/// * `sample_size` — size of the minimal sample handed to `fit`.
/// * `fit(indices)` — returns **all** model hypotheses consistent with the
///   minimal sample (e.g. P3P yields up to four).
/// * `count(model)` — the number of data items whose error under `model`
///   is below `params.threshold`: what
///   `(0..n).filter(|&i| error(model, i) < params.threshold).count()`
///   gives, which is how a caller without a faster count writes it. Every
///   hypothesis is scored by this count alone.
/// * `error(model, index)` — the fitting error of datum `index` under
///   `model`. Only an adopted hypothesis (the first with the most
///   inliers so far) collects its inliers through it.
///
/// Sampling is uniform without replacement within one minimal sample. The
/// iteration budget shrinks adaptively as better consensus sets are found.
///
/// Returns `None` when `n < sample_size` or no hypothesis ever reaches
/// `params.min_inliers`.
///
/// # Examples
///
/// ```
/// use eslam_geometry::ransac::{ransac, RansacParams};
/// // Fit a 1-D constant model to data with outliers.
/// let data = [1.0f64, 1.02, 0.98, 1.01, 50.0, -30.0, 1.0];
/// let params = RansacParams { threshold: 0.1, min_inliers: 3, ..Default::default() };
/// let error = |m: &f64, i: usize| (data[i] - m).abs();
/// let result = ransac(
///     data.len(),
///     1,
///     &params,
///     |idx| vec![data[idx[0]]],
///     |m| (0..data.len()).filter(|&i| error(m, i) < params.threshold).count(),
///     error,
/// ).expect("consensus found");
/// assert!(result.inliers.len() >= 5);
/// ```
pub fn ransac<M, FitF, CountF, ErrF>(
    n: usize,
    sample_size: usize,
    params: &RansacParams,
    fit: FitF,
    count: CountF,
    error: ErrF,
) -> Option<RansacResult<M>>
where
    M: Clone,
    FitF: Fn(&[usize]) -> Vec<M>,
    CountF: Fn(&M) -> usize,
    ErrF: Fn(&M, usize) -> f64,
{
    if n < sample_size || sample_size == 0 {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut best: Option<(M, Vec<usize>)> = None;
    let mut best_count = 0;
    let mut required_iterations = params.max_iterations;
    let mut sample = vec![0usize; sample_size];
    let mut iterations = 0;

    while iterations < required_iterations.min(params.max_iterations) {
        iterations += 1;
        draw_distinct(&mut rng, n, &mut sample);
        for model in fit(&sample) {
            // Count first: only a hypothesis that is adopted has its
            // inliers collected, by a pass over the same errors.
            let inlier_count = count(&model);
            if inlier_count > best_count && inlier_count >= params.min_inliers {
                // Adaptive termination: with inlier ratio w, a minimal
                // sample is all-inlier with probability w^s.
                let w = inlier_count as f64 / n as f64;
                let p_good_sample = w.powi(sample_size as i32);
                if p_good_sample > 1.0 - 1e-12 {
                    required_iterations = iterations;
                } else if p_good_sample > 0.0 {
                    let needed = (1.0 - params.confidence).ln() / (1.0 - p_good_sample).ln();
                    required_iterations = needed.ceil().max(1.0) as usize;
                }
                let inliers: Vec<usize> = (0..n)
                    .filter(|&i| error(&model, i) < params.threshold)
                    .collect();
                debug_assert_eq!(inliers.len(), inlier_count, "count and error disagree");
                best_count = inlier_count;
                best = Some((model.clone(), inliers));
            }
        }
    }

    best.map(|(model, inliers)| RansacResult {
        model,
        inliers,
        iterations,
    })
}

/// Draws `sample.len()` distinct indices in `[0, n)`.
fn draw_distinct(rng: &mut SmallRng, n: usize, sample: &mut [usize]) {
    let k = sample.len();
    debug_assert!(k <= n);
    for i in 0..k {
        loop {
            let candidate = rng.gen_range(0..n);
            if !sample[..i].contains(&candidate) {
                sample[i] = candidate;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The count [`ransac`] expects: the data whose `error` is below
    /// `threshold`.
    fn counting<'a, M>(
        n: usize,
        threshold: f64,
        error: &'a impl Fn(&M, usize) -> f64,
    ) -> impl Fn(&M) -> usize + 'a {
        move |m| (0..n).filter(|&i| error(m, i) < threshold).count()
    }

    /// Line model y = a x + b fitted from two points.
    fn line_fit(data: &[(f64, f64)]) -> impl Fn(&[usize]) -> Vec<(f64, f64)> + '_ {
        move |idx: &[usize]| {
            let (x0, y0) = data[idx[0]];
            let (x1, y1) = data[idx[1]];
            if (x1 - x0).abs() < 1e-12 {
                return vec![];
            }
            let a = (y1 - y0) / (x1 - x0);
            let b = y0 - a * x0;
            vec![(a, b)]
        }
    }

    #[test]
    fn recovers_line_with_outliers() {
        // y = 2x + 1 with 30% gross outliers.
        let mut data: Vec<(f64, f64)> = (0..70)
            .map(|i| (i as f64 * 0.1, 2.0 * (i as f64 * 0.1) + 1.0))
            .collect();
        for i in 0..30 {
            data.push((i as f64 * 0.2, 100.0 + i as f64 * 13.7));
        }
        let params = RansacParams {
            threshold: 0.05,
            min_inliers: 20,
            max_iterations: 500,
            ..Default::default()
        };
        let error = |&(a, b): &(f64, f64), i: usize| (data[i].1 - (a * data[i].0 + b)).abs();
        let count = counting(data.len(), params.threshold, &error);
        let res =
            ransac(data.len(), 2, &params, line_fit(&data), count, error).expect("line found");
        assert_eq!(res.inliers.len(), 70);
        let (a, b) = res.model;
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let x = i as f64 * 0.25;
                let noise = if i % 5 == 0 { 30.0 } else { 0.0 };
                (x, -x + 3.0 + noise)
            })
            .collect();
        let params = RansacParams {
            threshold: 0.1,
            min_inliers: 10,
            ..Default::default()
        };
        let error = |&(a, b): &(f64, f64), i: usize| (data[i].1 - (a * data[i].0 + b)).abs();
        let run = || {
            let count = counting(data.len(), params.threshold, &error);
            ransac(data.len(), 2, &params, line_fit(&data), count, error).unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.inliers, r2.inliers);
        assert_eq!(r1.model, r2.model);
        assert_eq!(r1.iterations, r2.iterations);
    }

    #[test]
    fn too_few_points_fails() {
        let params = RansacParams::default();
        let res: Option<RansacResult<f64>> =
            ransac(1, 2, &params, |_| vec![0.0f64], |_| 1, |_, _| 0.0);
        assert!(res.is_none());
    }

    #[test]
    fn rejects_when_no_consensus() {
        // Pure noise: no model should gather min_inliers at tight threshold.
        let data: Vec<f64> = (0..20).map(|i| (i as f64 * 97.3) % 17.0).collect();
        let params = RansacParams {
            threshold: 1e-9,
            min_inliers: 10,
            max_iterations: 50,
            ..Default::default()
        };
        let error = |m: &f64, i: usize| (data[i] - m).abs();
        let res = ransac(
            data.len(),
            1,
            &params,
            |idx| vec![data[idx[0]]],
            counting(data.len(), params.threshold, &error),
            error,
        );
        assert!(res.is_none());
    }

    #[test]
    fn adaptive_termination_stops_early() {
        // All-inlier data should terminate long before max_iterations.
        let data = vec![5.0f64; 100];
        let params = RansacParams {
            threshold: 0.1,
            min_inliers: 50,
            max_iterations: 10_000,
            ..Default::default()
        };
        let error = |m: &f64, i: usize| (data[i] - m).abs();
        let res = ransac(
            data.len(),
            1,
            &params,
            |idx| vec![data[idx[0]]],
            counting(data.len(), params.threshold, &error),
            error,
        )
        .unwrap();
        assert!(res.iterations < 100, "took {} iterations", res.iterations);
        assert_eq!(res.inliers.len(), 100);
    }

    /// The loop before count-first scoring: every hypothesis collects its
    /// inliers, and the best is the first with the most.
    fn ransac_collecting_every_hypothesis<M: Clone>(
        n: usize,
        sample_size: usize,
        params: &RansacParams,
        fit: impl Fn(&[usize]) -> Vec<M>,
        error: impl Fn(&M, usize) -> f64,
    ) -> Option<RansacResult<M>> {
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let mut best: Option<(M, Vec<usize>)> = None;
        let mut required_iterations = params.max_iterations;
        let mut sample = vec![0usize; sample_size];
        let mut iterations = 0;
        while iterations < required_iterations.min(params.max_iterations) {
            iterations += 1;
            draw_distinct(&mut rng, n, &mut sample);
            for model in fit(&sample) {
                let inliers: Vec<usize> = (0..n)
                    .filter(|&i| error(&model, i) < params.threshold)
                    .collect();
                let best_len = best.as_ref().map_or(0, |(_, inl)| inl.len());
                if inliers.len() > best_len && inliers.len() >= params.min_inliers {
                    let w = inliers.len() as f64 / n as f64;
                    let p_good_sample = w.powi(sample_size as i32);
                    if p_good_sample > 1.0 - 1e-12 {
                        required_iterations = iterations;
                    } else if p_good_sample > 0.0 {
                        let needed = (1.0 - params.confidence).ln() / (1.0 - p_good_sample).ln();
                        required_iterations = needed.ceil().max(1.0) as usize;
                    }
                    best = Some((model.clone(), inliers));
                }
            }
        }
        best.map(|(model, inliers)| RansacResult {
            model,
            inliers,
            iterations,
        })
    }

    proptest! {
        #[test]
        fn counting_first_adopts_the_same_models(
            data in prop::collection::vec(0u8..6, 4..40),
            min_inliers in 1usize..6,
            seed in any::<u64>(),
        ) {
            // Small integer data, two hypotheses per sample: inlier counts
            // tie often, and the first hypothesis with the most must win.
            let data: Vec<f64> = data.into_iter().map(f64::from).collect();
            let params = RansacParams {
                max_iterations: 40,
                threshold: 0.5,
                min_inliers,
                confidence: 0.99,
                seed,
            };
            let fit = |idx: &[usize]| vec![data[idx[0]], data[idx[1]]];
            let error = |m: &f64, i: usize| (data[i] - m).abs();
            let count = counting(data.len(), params.threshold, &error);
            prop_assert_eq!(
                ransac(data.len(), 2, &params, fit, count, error),
                ransac_collecting_every_hypothesis(data.len(), 2, &params, fit, error)
            );
        }
    }

    #[test]
    fn draw_distinct_produces_unique_indices() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut sample = [0usize; 5];
        for _ in 0..100 {
            draw_distinct(&mut rng, 8, &mut sample);
            let mut seen = sample.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 5);
            assert!(sample.iter().all(|&i| i < 8));
        }
    }
}
