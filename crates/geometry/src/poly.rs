//! Real-root finding for low-degree polynomials.
//!
//! The P3P minimal solver in [`crate::pnp`] reduces to Grunert's quartic,
//! so cubics and quartics are solved in closed form: the cubic by
//! Cardano's formula, or its trigonometric form when all three roots are
//! real, and the quartic by Ferrari's method through the largest real root
//! of its resolvent cubic. Degrees 1 and 2 have their own formulas, and
//! every degree ≥ 5 goes through the Durand–Kerner simultaneous
//! iteration, which is also the reference the closed-form roots are
//! tested against. From degree 3 up, one shared tail turns the complex
//! roots into real ones: it keeps the near-real roots, polishes each with
//! Newton on the real axis, accepts those whose residual is small, and
//! sorts and deduplicates them.

/// Complex number with just the operations the root finders need.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }
    fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
    fn div(self, o: Complex) -> Complex {
        let d = o.re * o.re + o.im * o.im;
        Complex::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
    fn abs(self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }
}

/// Evaluates a polynomial with coefficients in **descending** degree order
/// at a complex point (Horner's scheme).
fn poly_eval_complex(coeffs: &[f64], x: Complex) -> Complex {
    let mut acc = Complex::new(0.0, 0.0);
    for &c in coeffs {
        acc = acc.mul(x).add(Complex::new(c, 0.0));
    }
    acc
}

/// Evaluates a real polynomial (descending coefficients) at a real point.
pub fn poly_eval(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().fold(0.0, |acc, &c| acc * x + c)
}

/// Evaluates the derivative of a real polynomial (descending coefficients).
pub fn poly_eval_derivative(coeffs: &[f64], x: f64) -> f64 {
    let n = coeffs.len();
    if n < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    for (i, &c) in coeffs[..n - 1].iter().enumerate() {
        let power = (n - 1 - i) as f64;
        acc = acc * x + c * power;
    }
    acc
}

/// Finds the real roots of a polynomial with real coefficients given in
/// **descending** degree order (`coeffs[0] x^(n-1) + … + coeffs[n-1]`).
///
/// Leading near-zero coefficients are stripped. Cubics and quartics are
/// solved in closed form (Cardano, Ferrari), higher degrees by
/// Durand–Kerner. Roots whose imaginary part is below a scaled tolerance
/// are reported (deduplicated, sorted ascending) after a few Newton polish
/// steps on the real axis.
///
/// Degree 0 (or an all-zero polynomial) yields an empty vector, and so
/// does any non-finite coefficient. Every root returned is finite.
///
/// # Examples
///
/// ```
/// use eslam_geometry::poly::real_roots;
/// // (x-1)(x-2)(x-3) = x³ - 6x² + 11x - 6
/// let roots = real_roots(&[1.0, -6.0, 11.0, -6.0]);
/// assert_eq!(roots.len(), 3);
/// assert!((roots[0] - 1.0).abs() < 1e-9);
/// assert!((roots[2] - 3.0).abs() < 1e-9);
/// ```
pub fn real_roots(coeffs: &[f64]) -> Vec<f64> {
    find_real_roots(coeffs, true)
}

/// [`real_roots`] with Durand–Kerner at every degree ≥ 3: the reference
/// the closed-form cubic and quartic roots are tested against.
#[cfg(test)]
pub(crate) fn real_roots_reference(coeffs: &[f64]) -> Vec<f64> {
    find_real_roots(coeffs, false)
}

/// [`real_roots`], taking cubics and quartics in closed form when
/// `closed_form` is set and by Durand–Kerner otherwise.
fn find_real_roots(coeffs: &[f64], closed_form: bool) -> Vec<f64> {
    if coeffs.iter().any(|c| !c.is_finite()) {
        return vec![];
    }
    // Strip leading zeros.
    let mut start = 0;
    while start < coeffs.len() && coeffs[start].abs() < 1e-300 {
        start += 1;
    }
    let coeffs = &coeffs[start..];
    let degree = coeffs.len().saturating_sub(1);
    if degree == 0 {
        return vec![];
    }
    if degree == 1 {
        let x = -coeffs[1] / coeffs[0];
        return if x.is_finite() { vec![x] } else { vec![] };
    }
    if degree == 2 {
        let (a, b, c) = (coeffs[0], coeffs[1], coeffs[2]);
        let disc = b * b - 4.0 * a * c;
        // An overflowed discriminant is NaN (inf − inf).
        if disc.is_nan() || disc < 0.0 {
            return vec![];
        }
        let sq = disc.sqrt();
        // Numerically stable quadratic formula.
        let q = -0.5 * (b + b.signum() * sq);
        let mut roots = if q.abs() < 1e-300 {
            vec![0.0, 0.0]
        } else {
            vec![q / a, c / q]
        };
        roots.retain(|x| x.is_finite());
        roots.sort_by(|x, y| x.partial_cmp(y).unwrap());
        roots.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        return roots;
    }

    // Normalize to monic.
    let lead = coeffs[0];
    let monic: Vec<f64> = coeffs.iter().map(|c| c / lead).collect();
    match (degree, closed_form) {
        (3, true) => polish_real(&monic, &cubic_roots(monic[1], monic[2], monic[3])),
        (4, true) => polish_real(
            &monic,
            &quartic_roots(monic[1], monic[2], monic[3], monic[4]),
        ),
        _ => polish_real(&monic, &durand_kerner(&monic)),
    }
}

/// The two roots of the monic quadratic `x² + b x + c`.
fn quadratic_roots(b: f64, c: f64) -> [Complex; 2] {
    let disc = b * b - 4.0 * c;
    if disc >= 0.0 {
        // The larger-magnitude root without cancellation, the other from
        // the product of the roots.
        let t = -0.5 * (b + disc.sqrt().copysign(b));
        if t == 0.0 {
            [Complex::real(0.0); 2]
        } else {
            [Complex::real(t), Complex::real(c / t)]
        }
    } else {
        let im = 0.5 * (-disc).sqrt();
        [Complex::new(-0.5 * b, im), Complex::new(-0.5 * b, -im)]
    }
}

/// The three roots of the monic cubic `x³ + a x² + b x + c`. The first is
/// real, and it is the largest real root.
fn cubic_roots(a: f64, b: f64, c: f64) -> [Complex; 3] {
    // Depress with x = t − a/3: t³ + p t + q = 0.
    let shift = -a / 3.0;
    let p = b - a * a / 3.0;
    let q = c + a * (2.0 * a * a - 9.0 * b) / 27.0;
    let (half_q, third_p) = (0.5 * q, p / 3.0);
    let disc = half_q * half_q + third_p * third_p * third_p;
    if disc > 0.0 {
        // One real root (Cardano). The cube root is taken of the sum that
        // cannot cancel, and its partner follows from u v = −p/3.
        let u = -(half_q.abs() + disc.sqrt()).cbrt().copysign(q);
        let v = if u == 0.0 { 0.0 } else { -third_p / u };
        let re = -0.5 * (u + v) + shift;
        let im = 0.5 * 3f64.sqrt() * (u - v);
        [
            Complex::real(u + v + shift),
            Complex::new(re, im),
            Complex::new(re, -im),
        ]
    } else if third_p == 0.0 {
        // disc ≤ 0 with p = 0 forces q = 0: a triple root.
        [Complex::real(shift); 3]
    } else {
        // Three real roots (disc ≤ 0 forces p < 0): t = ρ cos θ with
        // cos 3θ = q / (ρ p / 3). θ ∈ [0, π/3] puts the largest root first.
        let rho = 2.0 * (-third_p).sqrt();
        let theta = (q / (third_p * rho)).clamp(-1.0, 1.0).acos() / 3.0;
        let step = 2.0 * std::f64::consts::FRAC_PI_3;
        [0.0, 1.0, 2.0].map(|k| Complex::real(rho * (theta - k * step).cos() + shift))
    }
}

/// The four roots of the monic quartic `x⁴ + a x³ + b x² + c x + d`, by
/// Ferrari's method.
fn quartic_roots(a: f64, b: f64, c: f64, d: f64) -> [Complex; 4] {
    // Depress with x = y − a/4: y⁴ + p y² + q y + r = 0.
    let shift = -0.25 * a;
    let a2 = a * a;
    let p = b - 0.375 * a2;
    let q = c - 0.5 * a * b + 0.125 * a2 * a;
    let r = d - 0.25 * a * c + 0.0625 * a2 * b - 3.0 / 256.0 * a2 * a2;
    // (y² + m)² = (2m − p) y² − q y + (m² − r) has a perfect square on the
    // right when 8m³ − 4p m² − 8r m + 4p r − q² = 0. Its value at m = p/2
    // is −q² ≤ 0, so the largest real root has 2m − p ≥ 0.
    let m = cubic_roots(-0.5 * p, -r, 0.5 * p * r - 0.125 * q * q)[0].re;
    let s2 = 2.0 * m - p;
    let s = s2.max(0.0).sqrt();
    // The right side is (s y − h)² with h = q / 2s, and h² = m² − r. The
    // division is the better conditioned of the two unless s is small next
    // to h (q ≈ 0, the biquadratic case), where the square root is taken.
    let h2 = m * m - r;
    let h = if h2.abs() < m.abs().max(p.abs()) * s2 {
        0.5 * q / s
    } else {
        h2.max(0.0).sqrt().copysign(q)
    };
    // y² + m = ±(s y − h) splits into two quadratics.
    let [y0, y1] = quadratic_roots(-s, m + h);
    let [y2, y3] = quadratic_roots(s, m - h);
    [y0, y1, y2, y3].map(|y| Complex::new(y.re + shift, y.im))
}

/// The complex roots of a monic polynomial of degree ≥ 3 by Durand–Kerner
/// simultaneous iteration, started on a circle.
fn durand_kerner(monic: &[f64]) -> Vec<Complex> {
    let degree = monic.len() - 1;
    let mut roots: Vec<Complex> = (0..degree)
        .map(|k| {
            let angle = 2.0 * std::f64::consts::PI * k as f64 / degree as f64 + 0.4;
            // Radius heuristic: 1 + max |coeff|.
            let r = 1.0 + monic.iter().skip(1).fold(0.0f64, |m, c| m.max(c.abs()));
            Complex::new(
                r.powf(1.0 / degree as f64) * angle.cos(),
                r.powf(1.0 / degree as f64) * angle.sin(),
            )
        })
        .collect();

    for _ in 0..200 {
        let mut max_delta = 0.0f64;
        for i in 0..degree {
            let mut denom = Complex::new(1.0, 0.0);
            for j in 0..degree {
                if i != j {
                    denom = denom.mul(roots[i].sub(roots[j]));
                }
            }
            if denom.abs() < 1e-300 {
                continue;
            }
            let delta = poly_eval_complex(monic, roots[i]).div(denom);
            roots[i] = roots[i].sub(delta);
            max_delta = max_delta.max(delta.abs());
        }
        if max_delta < 1e-14 {
            break;
        }
    }
    roots
}

/// The real roots among the complex `roots` of `monic`: near-real ones are
/// polished with Newton on the real axis and kept when their residual is
/// small, then sorted and deduplicated.
fn polish_real(monic: &[f64], roots: &[Complex]) -> Vec<f64> {
    let degree = monic.len() - 1;
    let scale = 1.0 + roots.iter().fold(0.0f64, |m, r| m.max(r.abs()));
    let mut real: Vec<f64> = Vec::new();
    for r in roots {
        if r.im.abs() < 1e-6 * scale {
            let mut x = r.re;
            let mut f = poly_eval(monic, x);
            for _ in 0..16 {
                let df = poly_eval_derivative(monic, x);
                if df.abs() < 1e-300 {
                    break;
                }
                let step = f / df;
                // At a double root both f and df are rounding noise, and
                // their ratio can throw an exact start far off: keep only
                // steps that do not increase |f|.
                let next = x - step;
                let f_next = poly_eval(monic, next);
                if f_next.abs() > f.abs() {
                    break;
                }
                (x, f) = (next, f_next);
                if step.abs() < 1e-15 * (1.0 + x.abs()) {
                    break;
                }
            }
            // Accept only if residual is genuinely small.
            if f.abs() < 1e-6 * scale.powi(degree as i32 - 1).max(1.0) {
                real.push(x);
            }
        }
    }
    real.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Double roots come out at ~√ε accuracy from every root finder and from
    // Newton, so the merge tolerance must be loose enough to fold them.
    real.dedup_by(|a, b| (*a - *b).abs() < 1e-6 * scale);
    real
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both the closed form and the Durand–Kerner reference find exactly
    /// `expected`.
    fn assert_roots(coeffs: &[f64], expected: &[f64], tol: f64) {
        for roots in [real_roots(coeffs), real_roots_reference(coeffs)] {
            assert_eq!(
                roots.len(),
                expected.len(),
                "wanted {expected:?}, got {roots:?}"
            );
            for (r, e) in roots.iter().zip(expected) {
                assert!((r - e).abs() < tol, "root {r} vs expected {e}");
            }
        }
    }

    #[test]
    fn linear() {
        assert_roots(&[2.0, -4.0], &[2.0], 1e-12);
    }

    #[test]
    fn quadratic_two_roots() {
        // (x-3)(x+5) = x² + 2x - 15
        assert_roots(&[1.0, 2.0, -15.0], &[-5.0, 3.0], 1e-12);
    }

    #[test]
    fn quadratic_no_real_roots() {
        assert_roots(&[1.0, 0.0, 1.0], &[], 0.0);
    }

    #[test]
    fn cubic() {
        // (x-1)(x-2)(x-3)
        assert_roots(&[1.0, -6.0, 11.0, -6.0], &[1.0, 2.0, 3.0], 1e-9);
    }

    #[test]
    fn cubic_single_real_root() {
        // (x-2)(x²+1) = x³ - 2x² + x - 2
        assert_roots(&[1.0, -2.0, 1.0, -2.0], &[2.0], 1e-9);
    }

    #[test]
    fn quartic_four_roots() {
        // (x+2)(x+1)(x-1)(x-2) = x⁴ -5x² + 4
        assert_roots(&[1.0, 0.0, -5.0, 0.0, 4.0], &[-2.0, -1.0, 1.0, 2.0], 1e-9);
    }

    #[test]
    fn quartic_two_real_roots() {
        // (x²+1)(x-0.5)(x+3) = x⁴ + 2.5x³ - 0.5x² + 2.5x - 1.5
        assert_roots(&[1.0, 2.5, -0.5, 2.5, -1.5], &[-3.0, 0.5], 1e-8);
    }

    #[test]
    fn quartic_no_real_roots() {
        // (x²+1)(x²+4)
        assert_roots(&[1.0, 0.0, 5.0, 0.0, 4.0], &[], 0.0);
    }

    #[test]
    fn biquadratic_with_one_real_pair() {
        // x⁴ − 16: q = 0, and 2m − p = 0 at the resolvent's largest root.
        assert_roots(&[1.0, 0.0, 0.0, 0.0, -16.0], &[-2.0, 2.0], 1e-12);
    }

    #[test]
    fn biquadratic_without_real_roots() {
        // x⁴ + 4 = (x² + 2x + 2)(x² − 2x + 2).
        assert_roots(&[1.0, 0.0, 0.0, 0.0, 4.0], &[], 0.0);
    }

    #[test]
    fn ferrari_roots_are_exact_near_the_biquadratic_case() {
        // Roots nearly symmetric about their mean: q ≈ 0 while 2m − p is
        // well away from 0. There h = q / 2s keeps full precision, where
        // √(m² − r) would cancel (2.5e-8 off at δ = 1e-7) before any
        // Newton polish.
        for delta in [1e-2, 1e-4, 1e-6, 1e-7, 1e-8] {
            let truth = [-3.0, -1.0, 1.0, 3.0 + delta];
            let c = expand(&truth, &[], 1.0);
            let roots = quartic_roots(c[1], c[2], c[3], c[4]);
            for t in truth {
                let off = roots
                    .iter()
                    .map(|r| Complex::new(r.re - t, r.im).abs())
                    .fold(f64::INFINITY, f64::min);
                assert!(off < 1e-13, "δ {delta:e}: root {t} off by {off:e}");
            }
        }
    }

    #[test]
    fn repeated_roots_deduplicated() {
        // (x-1)²(x+1) = x³ - x² - x + 1
        let roots = real_roots(&[1.0, -1.0, -1.0, 1.0]);
        assert!(roots.len() == 2, "got {roots:?}");
        assert!((roots[0] + 1.0).abs() < 1e-6);
        assert!((roots[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn leading_zeros_stripped() {
        assert_roots(&[0.0, 0.0, 1.0, -1.0], &[1.0], 1e-12);
    }

    #[test]
    fn scaled_coefficients() {
        // 3(x-4)(x-7) with a non-monic lead.
        assert_roots(&[3.0, -33.0, 84.0], &[4.0, 7.0], 1e-10);
    }

    #[test]
    fn derivative_eval() {
        // p = x³ - 2x, p' = 3x² - 2.
        let c = [1.0, 0.0, -2.0, 0.0];
        assert!((poly_eval_derivative(&c, 2.0) - 10.0).abs() < 1e-12);
        assert!((poly_eval(&c, 2.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_coefficients_yield_no_roots() {
        for degree in 1..=4 {
            // (x-1)(x-2)…(x-degree): every degree has real roots to lose.
            let truth: Vec<f64> = (1..=degree).map(f64::from).collect();
            let clean = expand(&truth, &[], 1.0);
            assert_eq!(real_roots(&clean).len(), truth.len());
            for pos in 0..clean.len() {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut coeffs = clean.clone();
                    coeffs[pos] = bad;
                    let roots = real_roots(&coeffs);
                    assert!(roots.is_empty(), "{coeffs:?} gave {roots:?}");
                }
            }
        }
    }

    #[test]
    fn overflowing_coefficients_give_only_finite_roots() {
        // The discriminant of each quadratic overflows to NaN or inf.
        for coeffs in [
            [1e300, 1e300, 1e300],
            [1e300, 3e300, 1e300],
            [1e-300, 1e300, 1.0],
        ] {
            let roots = real_roots(&coeffs);
            assert!(roots.iter().all(|x| x.is_finite()), "{roots:?}");
        }
    }

    /// Descending coefficients of `lead · Π (x − r) · Π ((x − re)² + im²)`
    /// over the real roots `real` and the complex pairs `pairs`.
    fn expand(real: &[f64], pairs: &[(f64, f64)], lead: f64) -> Vec<f64> {
        let mut coeffs = vec![lead];
        let mut times = |factor: &[f64]| {
            let mut out = vec![0.0; coeffs.len() + factor.len() - 1];
            for (i, &a) in coeffs.iter().enumerate() {
                for (j, &b) in factor.iter().enumerate() {
                    out[i + j] += a * b;
                }
            }
            coeffs = out;
        };
        for &r in real {
            times(&[1.0, -r]);
        }
        for &(re, im) in pairs {
            times(&[1.0, -2.0 * re, re * re + im * im]);
        }
        coeffs
    }

    /// The closed-form roots and the Durand–Kerner reference both find
    /// exactly the (sorted) `truth`, each root within `tol · max(1, |root|)`.
    fn assert_matches_truth_and_reference(
        coeffs: &[f64],
        truth: &[f64],
        tol: f64,
    ) -> Result<(), String> {
        let got = real_roots(coeffs);
        let reference = real_roots_reference(coeffs);
        if got.len() != truth.len() || reference.len() != truth.len() {
            return Err(format!(
                "truth {truth:?}, closed form {got:?}, reference {reference:?}"
            ));
        }
        for ((&g, &r), &t) in got.iter().zip(&reference).zip(truth) {
            let bound = tol * t.abs().max(1.0);
            if (g - t).abs() > bound || (g - r).abs() > bound {
                return Err(format!(
                    "root {t}: closed form {g} (off {:e}), reference {r} (off {:e})",
                    g - t,
                    r - t
                ));
            }
        }
        Ok(())
    }

    /// Every true root lies within `tol` of a found root and every found
    /// root within `tol` of a true one, for the closed form and the
    /// reference alike.
    fn assert_covers_truth(coeffs: &[f64], truth: &[f64], tol: f64) -> Result<(), String> {
        for (name, found) in [
            ("closed form", real_roots(coeffs)),
            ("reference", real_roots_reference(coeffs)),
        ] {
            let near = |x: f64, set: &[f64]| set.iter().any(|&y| (x - y).abs() <= tol);
            if !truth.iter().all(|&t| near(t, &found)) || !found.iter().all(|&f| near(f, truth)) {
                return Err(format!("{name} found {found:?} for truth {truth:?}"));
            }
        }
        Ok(())
    }

    /// Four sorted values: `start` followed by the running sums of `gaps`.
    fn spaced(start: f64, gaps: [f64; 3]) -> Vec<f64> {
        let mut out = vec![start];
        for g in gaps {
            out.push(out[out.len() - 1] + g);
        }
        out
    }

    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    fn gaps() -> impl Strategy<Value = [f64; 3]> {
        (0.3..5.0f64, 0.3..5.0f64, 0.3..5.0f64).prop_map(|(a, b, c)| [a, b, c])
    }

    /// A leading coefficient of either sign between 1e-2 and 1e2, like the
    /// unnormalized quartic P3P hands over.
    fn lead() -> impl Strategy<Value = f64> {
        (-2.0..2.0f64, any::<bool>()).prop_map(|(e, neg)| {
            let l = 10f64.powf(e);
            if neg {
                -l
            } else {
                l
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn quartic_four_separated_real_roots(
            start in -10.0..5.0f64, gaps in gaps(), lead in lead(),
        ) {
            let truth = spaced(start, gaps);
            let coeffs = expand(&truth, &[], lead);
            if let Err(e) = assert_matches_truth_and_reference(&coeffs, &truth, 1e-9) {
                return Err(TestCaseError::fail(e));
            }
        }

        #[test]
        fn quartic_two_real_roots_and_a_complex_pair(
            start in -10.0..5.0f64, gap in 0.3..5.0f64,
            re in -8.0..8.0f64, im in 0.2..5.0f64, lead in lead(),
        ) {
            let truth = vec![start, start + gap];
            let coeffs = expand(&truth, &[(re, im)], lead);
            if let Err(e) = assert_matches_truth_and_reference(&coeffs, &truth, 1e-9) {
                return Err(TestCaseError::fail(e));
            }
        }

        #[test]
        fn quartic_without_real_roots(
            re0 in -8.0..8.0f64, im0 in 0.2..5.0f64,
            re1 in -8.0..8.0f64, im1 in 0.2..5.0f64, lead in lead(),
        ) {
            let coeffs = expand(&[], &[(re0, im0), (re1, im1)], lead);
            if let Err(e) = assert_matches_truth_and_reference(&coeffs, &[], 1e-9) {
                return Err(TestCaseError::fail(e));
            }
        }

        #[test]
        fn quartic_double_and_near_double_roots(
            at in -5.0..5.0f64, exact in any::<bool>(), log_gap in -7.0..-3.0f64,
            other in 0.5..4.0f64, pair_or_real in any::<bool>(), lead in lead(),
        ) {
            let gap = if exact { 0.0 } else { 10f64.powf(log_gap) };
            let (truth, pairs) = if pair_or_real {
                (vec![at, at + gap], vec![(at - 1.0, other)])
            } else {
                (vec![at - 2.0 * other, at, at + gap, at + other], vec![])
            };
            let coeffs = expand(&truth, &pairs, lead);
            // A (near-)double root is only determined to ~√ε, and the
            // shared dedup folds the pair when its gap is below 1e-6·scale,
            // where scale = 1 + the largest root magnitude is at most 14.
            if let Err(e) = assert_covers_truth(&coeffs, &truth, 1e-6 * 20.0) {
                return Err(TestCaseError::fail(e));
            }
        }

        #[test]
        fn quartic_roots_across_six_decades(
            offsets in (0.0..1.3f64, 0.0..1.3f64, 0.0..1.3f64, 0.0..1.3f64),
            signs in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            lead in lead(),
        ) {
            // Magnitudes 10^[-3, 3] at least a factor 1.78 apart.
            let (o, s) = (
                [offsets.0, offsets.1, offsets.2, offsets.3],
                [signs.0, signs.1, signs.2, signs.3],
            );
            let truth = sorted(
                (0..4)
                    .map(|i| {
                        let mag = 10f64.powf(-3.0 + 1.55 * i as f64 + o[i]);
                        if s[i] { -mag } else { mag }
                    })
                    .collect(),
            );
            let coeffs = expand(&truth, &[], lead);
            if let Err(e) = assert_matches_truth_and_reference(&coeffs, &truth, 1e-9) {
                return Err(TestCaseError::fail(e));
            }
        }

        #[test]
        fn biquadratic_quartics(
            center in -3.0..3.0f64, u in 0.3..5.0f64, w in 0.3..5.0f64,
            kind in 0u8..3, lead in lead(),
        ) {
            // Roots symmetric about `center`, so the depressed quartic has
            // q ≈ 0: four real roots, one real pair and one complex pair
            // (2m − p = 0), or two complex pairs (2m − p = 0 again).
            prop_assume!((u - w).abs() > 0.3);
            let (truth, pairs) = match kind {
                0 => (sorted(vec![center - u, center + u, center - w, center + w]), vec![]),
                1 => (vec![center - u, center + u], vec![(center, w)]),
                _ => (vec![], vec![(center, u), (center, w)]),
            };
            let coeffs = expand(&truth, &pairs, lead);
            if let Err(e) = assert_matches_truth_and_reference(&coeffs, &truth, 1e-9) {
                return Err(TestCaseError::fail(e));
            }
        }

        #[test]
        fn cubics_as_p3p_hands_them_over(
            start in -10.0..5.0f64, gaps in gaps(),
            re in -8.0..8.0f64, im in 0.2..5.0f64,
            three_real in any::<bool>(), lead in lead(),
        ) {
            // Grunert's quartic drops to a cubic when its leading
            // coefficient is trimmed: three real roots, or one and a pair.
            let (truth, pairs) = if three_real {
                (spaced(start, gaps)[..3].to_vec(), vec![])
            } else {
                (vec![start], vec![(re, im)])
            };
            let coeffs = expand(&truth, &pairs, lead);
            if let Err(e) = assert_matches_truth_and_reference(&coeffs, &truth, 1e-9) {
                return Err(TestCaseError::fail(e));
            }
        }
    }
}
