//! Gaussian smoothing.
//!
//! The paper's Image Smoother applies a Gaussian blur on 7×7 pixel patches
//! of the original image (§3.1); the smoothened image feeds descriptor and
//! orientation computation, exactly as in the original ORB where BRIEF
//! tests are made on a blurred image.
//!
//! Two variants are provided:
//! * [`gaussian_blur_7x7_fixed`] — the integer-arithmetic kernel the
//!   hardware datapath uses (power-of-two denominator, bit-exact with the
//!   `eslam-hw` smoother unit);
//! * [`gaussian_blur`] — a floating-point separable blur for software
//!   baselines.
//!
//! The fixed-point blur is built from two row producers,
//! [`blur_hrow_7x7_into`] and [`blur_vrow_7x7_into`], which the
//! streaming extractor also drives row by row off its line buffers. Each
//! row loop is one source compiled twice: a baseline instance, and one
//! with AVX2 enabled (16 `u16` lanes for the horizontal pass, 8 `u32`
//! lanes for the vertical one) that runs wherever the CPU has AVX2. All
//! arithmetic is exact integer arithmetic, so both instances equal the
//! per-pixel [`gaussian_blur_7x7_fixed_reference`] bit for bit; the
//! tests call both instances directly.

use crate::image::GrayImage;

/// The 7-tap integer kernel used by the hardware smoother. Approximates a
/// σ = 2 Gaussian; weights sum to 64 so normalization is a 6-bit shift per
/// axis (12 bits for the separable 2-D pass).
pub const KERNEL_7_FIXED: [u32; 7] = [2, 6, 12, 24, 12, 6, 2];

/// Denominator of [`KERNEL_7_FIXED`] (sum of the weights).
pub const KERNEL_7_FIXED_SUM: u32 = 64;

/// Applies the fixed-point separable 7×7 Gaussian blur, replicating the
/// border. This is the reference model of the hardware Image Smoother: the
/// `eslam-hw` smoother unit must produce bit-identical output.
///
/// Production code path: allocates fresh output/scratch buffers and
/// delegates to [`gaussian_blur_7x7_fixed_into`]. Pipelines that smooth
/// every frame should hold the buffers and call the `_into` variant
/// directly.
pub fn gaussian_blur_7x7_fixed(src: &GrayImage) -> GrayImage {
    let mut out = GrayImage::new(src.width(), src.height());
    let mut scratch = Vec::new();
    gaussian_blur_7x7_fixed_into(src, &mut out, &mut scratch);
    out
}

/// Scalar reference of the fixed-point blur (per-pixel clamped
/// addressing). Kept as the bit-exact oracle for the row-sliced
/// [`gaussian_blur_7x7_fixed_into`]; prefer the production variants.
pub fn gaussian_blur_7x7_fixed_reference(src: &GrayImage) -> GrayImage {
    let w = src.width();
    let h = src.height();

    // Horizontal pass into 16-bit intermediates (max 255 * 64 = 16320).
    let mut horizontal: Vec<u16> = vec![0; w as usize * h as usize];
    for y in 0..h {
        for x in 0..w {
            let mut acc: u32 = 0;
            for (k, &weight) in KERNEL_7_FIXED.iter().enumerate() {
                let sx = x as i64 + k as i64 - 3;
                acc += weight * src.get_clamped(sx, y as i64) as u32;
            }
            horizontal[(y * w + x) as usize] = acc as u16;
        }
    }

    // Vertical pass with a single rounding shift at the end.
    GrayImage::from_fn(w, h, |x, y| {
        let mut acc: u64 = 0;
        for (k, &weight) in KERNEL_7_FIXED.iter().enumerate() {
            let sy = (y as i64 + k as i64 - 3).clamp(0, h as i64 - 1) as u32;
            acc += weight as u64 * horizontal[(sy * w + x) as usize] as u64;
        }
        // Round-to-nearest on the 4096 denominator.
        ((acc + (KERNEL_7_FIXED_SUM as u64 * KERNEL_7_FIXED_SUM as u64 / 2))
            / (KERNEL_7_FIXED_SUM as u64 * KERNEL_7_FIXED_SUM as u64))
            .min(255) as u8
    })
}

/// Horizontal 7-tap pass over one image row: `out[x]` is the weighted
/// sum `Σ KERNEL_7_FIXED[k] · row[clamp(x + k − 3)]` (border pixels
/// replicate; max 255 × 64 = 16320, exact in `u16`).
///
/// This is the row-band producer of the streaming extraction front-end:
/// the full-frame [`gaussian_blur_7x7_fixed_into`] and the per-band
/// line-buffer path both build on it, so the two are bit-identical at
/// every border by construction. Runs the AVX2 instance of the row loop
/// where the CPU has AVX2, and the baseline instance elsewhere.
///
/// # Panics
/// Panics if `out.len() != row.len()` or the row is empty.
pub fn blur_hrow_7x7_into(row: &[u8], out: &mut [u16]) {
    assert_eq!(out.len(), row.len(), "output row length mismatch");
    assert!(!row.is_empty(), "empty row");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on this CPU.
        unsafe { hrow_avx2(row, out) };
        return;
    }
    hrow_baseline(row, out);
}

/// [`blur_hrow_7x7_into`]'s row loop compiled for the target's baseline
/// features: the only instance on hosts without AVX2.
fn hrow_baseline(row: &[u8], out: &mut [u16]) {
    hrow(row, out);
}

/// [`blur_hrow_7x7_into`]'s row loop compiled with AVX2 enabled (16
/// `u16` lanes): the same source as [`hrow_baseline`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn hrow_avx2(row: &[u8], out: &mut [u16]) {
    hrow(row, out);
}

/// The horizontal pass over a non-empty row, `out.len() == row.len()`.
#[inline(always)]
fn hrow(row: &[u8], out: &mut [u16]) {
    let w = row.len();
    let clamped_tap = |x: usize| -> u16 {
        let mut acc: u32 = 0;
        for (k, &weight) in KERNEL_7_FIXED.iter().enumerate() {
            let sx = (x as i64 + k as i64 - 3).clamp(0, w as i64 - 1) as usize;
            acc += weight * row[sx] as u32;
        }
        acc as u16
    };
    // Border columns, whose taps clamp: all of a row narrower than the
    // kernel, else the first 3 and the last 3.
    if w < 7 {
        for (x, o) in out.iter_mut().enumerate() {
            *o = clamped_tap(x);
        }
        return;
    }
    for x in [0, 1, 2, w - 3, w - 2, w - 1] {
        out[x] = clamped_tap(x);
    }
    // Interior columns: equal-length shifted slices let the loop
    // vectorize. Every partial sum stays below 255 × 64, so `u16`
    // arithmetic is exact.
    let n = w - 6;
    let taps: [&[u8]; 7] = std::array::from_fn(|k| &row[k..k + n]);
    let weight = KERNEL_7_FIXED.map(|k| k as u16);
    for (i, o) in out[3..w - 3].iter_mut().enumerate() {
        let tap = |k: usize| weight[k] * u16::from(taps[k][i]);
        *o = tap(0) + tap(1) + tap(2) + tap(3) + tap(4) + tap(5) + tap(6);
    }
}

/// Vertical 7-tap combine of one output row from the seven horizontal
/// rows the kernel touches (callers pass the same row slice several
/// times to replicate the border, exactly like the full-frame pass
/// clamps `y + k − 3`). The single rounding shift of the separable
/// fixed-point blur happens here.
///
/// Companion band producer to [`blur_hrow_7x7_into`]; together they are
/// the single source of truth for the 7×7 blur arithmetic. Runs the AVX2
/// instance of the row loop where the CPU has AVX2, and the baseline
/// instance elsewhere.
///
/// # Panics
/// Panics if any input row's length differs from `out.len()`.
pub fn blur_vrow_7x7_into(hrows: &[&[u16]; 7], out: &mut [u8]) {
    for r in hrows {
        assert_eq!(r.len(), out.len(), "horizontal row length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on this CPU.
        unsafe { vrow_avx2(hrows, out) };
        return;
    }
    vrow_baseline(hrows, out);
}

/// [`blur_vrow_7x7_into`]'s row loop compiled for the target's baseline
/// features: the only instance on hosts without AVX2.
fn vrow_baseline(hrows: &[&[u16]; 7], out: &mut [u8]) {
    vrow(hrows, out);
}

/// [`blur_vrow_7x7_into`]'s row loop compiled with AVX2 enabled (8 `u32`
/// lanes): the same source as [`vrow_baseline`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn vrow_avx2(hrows: &[&[u16]; 7], out: &mut [u8]) {
    vrow(hrows, out);
}

/// The vertical pass; every row of `hrows` is `out.len()` long.
#[inline(always)]
fn vrow(hrows: &[&[u16]; 7], out: &mut [u8]) {
    const ROUND: u32 = (KERNEL_7_FIXED_SUM * KERNEL_7_FIXED_SUM) / 2;
    const DENOM: u32 = KERNEL_7_FIXED_SUM * KERNEL_7_FIXED_SUM;
    let n = out.len();
    let rows = hrows.map(|r| &r[..n]);
    for (x, o) in out.iter_mut().enumerate() {
        let tap = |k: usize| KERNEL_7_FIXED[k] * u32::from(rows[k][x]);
        // Max 16320 * 64 = 1 044 480 < u32::MAX: exact in u32.
        let acc = tap(0) + tap(1) + tap(2) + tap(3) + tap(4) + tap(5) + tap(6);
        *o = ((acc + ROUND) / DENOM).min(255) as u8;
    }
}

/// Fixed-point 7×7 blur into caller-owned buffers: `dst` receives the
/// smoothed image, `scratch` holds the 16-bit horizontal intermediates.
/// Both are reshaped/resized as needed and reused across calls, so
/// steady-state frame smoothing performs **zero heap allocations**.
///
/// Interior pixels use row-sliced direct addressing; only the 3-pixel
/// borders take the clamped path. Output is bit-identical to
/// [`gaussian_blur_7x7_fixed_reference`] (the sums are exact integer
/// arithmetic, so only addressing differs). Both passes delegate to the
/// per-row band producers ([`blur_hrow_7x7_into`] /
/// [`blur_vrow_7x7_into`]), which the streaming extraction front-end
/// drives row by row through its line-buffer rings.
pub fn gaussian_blur_7x7_fixed_into(src: &GrayImage, dst: &mut GrayImage, scratch: &mut Vec<u16>) {
    let w = src.width() as usize;
    let h = src.height() as usize;
    dst.reshape(src.width(), src.height());
    scratch.resize(w * h, 0);
    if w == 0 || h == 0 {
        return;
    }
    let data = src.as_raw();

    // Horizontal pass.
    for y in 0..h {
        blur_hrow_7x7_into(&data[y * w..(y + 1) * w], &mut scratch[y * w..(y + 1) * w]);
    }

    // Vertical pass: for each output row, combine the 7 (clamped)
    // horizontal rows column-wise.
    let out = dst.as_raw_mut();
    for y in 0..h {
        let rows: [&[u16]; 7] = std::array::from_fn(|k| {
            let sy = (y as i64 + k as i64 - 3).clamp(0, h as i64 - 1) as usize;
            &scratch[sy * w..(sy + 1) * w]
        });
        blur_vrow_7x7_into(&rows, &mut out[y * w..(y + 1) * w]);
    }
}

/// Floating-point separable Gaussian blur with the given σ and a kernel
/// radius of `⌈3σ⌉`, replicating the border.
///
/// # Panics
/// Panics if `sigma` is not strictly positive.
pub fn gaussian_blur(src: &GrayImage, sigma: f64) -> GrayImage {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as i64;
    let mut kernel = Vec::with_capacity((2 * radius + 1) as usize);
    let denom = 2.0 * sigma * sigma;
    for k in -radius..=radius {
        kernel.push((-((k * k) as f64) / denom).exp());
    }
    let sum: f64 = kernel.iter().sum();
    for v in kernel.iter_mut() {
        *v /= sum;
    }

    let w = src.width();
    let h = src.height();
    let mut horizontal = vec![0.0f64; w as usize * h as usize];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (i, &kv) in kernel.iter().enumerate() {
                let sx = x as i64 + i as i64 - radius;
                acc += kv * src.get_clamped(sx, y as i64) as f64;
            }
            horizontal[(y * w + x) as usize] = acc;
        }
    }
    GrayImage::from_fn(w, h, |x, y| {
        let mut acc = 0.0;
        for (i, &kv) in kernel.iter().enumerate() {
            let sy = (y as i64 + i as i64 - radius).clamp(0, h as i64 - 1) as u32;
            acc += kv * horizontal[(sy * w + x) as usize];
        }
        acc.round().clamp(0.0, 255.0) as u8
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_sums_to_declared_denominator() {
        assert_eq!(KERNEL_7_FIXED.iter().sum::<u32>(), KERNEL_7_FIXED_SUM);
    }

    #[test]
    fn constant_image_unchanged_fixed() {
        let img = GrayImage::from_fn(20, 20, |_, _| 131);
        let out = gaussian_blur_7x7_fixed(&img);
        assert!(out.as_raw().iter().all(|&v| v == 131));
    }

    #[test]
    fn constant_image_unchanged_float() {
        let img = GrayImage::from_fn(20, 20, |_, _| 77);
        let out = gaussian_blur(&img, 2.0);
        assert!(out.as_raw().iter().all(|&v| v == 77));
    }

    #[test]
    fn impulse_spreads_symmetrically() {
        let mut img = GrayImage::new(15, 15);
        img.set(7, 7, 255);
        let out = gaussian_blur_7x7_fixed(&img);
        // Centre keeps the highest value.
        let centre = out.get(7, 7);
        assert!(centre > 0);
        for (x, y, v) in out.pixels() {
            assert!(v <= centre, "({x},{y})");
        }
        // Horizontal/vertical symmetry.
        for d in 1..=3u32 {
            assert_eq!(out.get(7 - d, 7), out.get(7 + d, 7));
            assert_eq!(out.get(7, 7 - d), out.get(7, 7 + d));
            assert_eq!(out.get(7 - d, 7), out.get(7, 7 - d));
        }
    }

    #[test]
    fn impulse_energy_outside_radius_is_zero() {
        let mut img = GrayImage::new(21, 21);
        img.set(10, 10, 255);
        let out = gaussian_blur_7x7_fixed(&img);
        for (x, y, v) in out.pixels() {
            let dx = (x as i64 - 10).abs();
            let dy = (y as i64 - 10).abs();
            if dx > 3 || dy > 3 {
                assert_eq!(v, 0, "leakage at ({x},{y})");
            }
        }
    }

    #[test]
    fn blur_reduces_gradient_magnitude() {
        // A step edge: blurring must soften the transition.
        let img = GrayImage::from_fn(32, 8, |x, _| if x < 16 { 0 } else { 255 });
        let out = gaussian_blur_7x7_fixed(&img);
        let sharp_step = img.get(16, 4) as i32 - img.get(15, 4) as i32;
        let soft_step = out.get(16, 4) as i32 - out.get(15, 4) as i32;
        assert!(soft_step.abs() < sharp_step.abs());
        // Values in the transition band are intermediate.
        assert!(out.get(15, 4) > 0 && out.get(16, 4) < 255);
    }

    #[test]
    fn fixed_and_float_blur_agree_approximately() {
        let img = GrayImage::from_fn(40, 30, |x, y| ((x * 13 + y * 29) % 251) as u8);
        let fixed = gaussian_blur_7x7_fixed(&img);
        let float = gaussian_blur(&img, 1.5);
        // Different kernels, same qualitative smoothing: mean abs diff is
        // small on the interior.
        let mut total = 0i64;
        let mut count = 0i64;
        for y in 4..26 {
            for x in 4..36 {
                total += (fixed.get(x, y) as i64 - float.get(x, y) as i64).abs();
                count += 1;
            }
        }
        let mad = total as f64 / count as f64;
        assert!(mad < 12.0, "mean abs diff {mad}");
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn non_positive_sigma_panics() {
        let img = GrayImage::new(4, 4);
        gaussian_blur(&img, 0.0);
    }

    #[test]
    fn fast_blur_matches_reference_on_textures() {
        for seed in 0..5u64 {
            for (w, h) in [(1u32, 1u32), (2, 9), (6, 6), (7, 7), (40, 31), (65, 9)] {
                let img = GrayImage::from_fn(w, h, |x, y| {
                    ((x as u64 * 31 + y as u64 * 17 + seed * 101) % 256) as u8
                });
                assert_eq!(
                    gaussian_blur_7x7_fixed(&img),
                    gaussian_blur_7x7_fixed_reference(&img),
                    "seed {seed} size {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn blur_into_reuses_buffers_without_reallocating() {
        let a = GrayImage::from_fn(30, 20, |x, y| (x * y) as u8);
        let b = GrayImage::from_fn(28, 18, |x, y| (x + y) as u8);
        let mut out = GrayImage::new(30, 20);
        let mut scratch = Vec::new();
        gaussian_blur_7x7_fixed_into(&a, &mut out, &mut scratch);
        let cap = scratch.capacity();
        let ptr = out.as_raw().as_ptr();
        // Smaller image must reuse both allocations.
        gaussian_blur_7x7_fixed_into(&b, &mut out, &mut scratch);
        assert_eq!(out, gaussian_blur_7x7_fixed_reference(&b));
        assert_eq!(scratch.capacity(), cap);
        assert_eq!(out.as_raw().as_ptr(), ptr);
    }

    #[test]
    fn border_rule_exhaustive_small_sizes_match_reference() {
        // Satellite audit: the optimized blur vs the scalar reference at
        // every size where the 7-tap halo interacts with a border —
        // every width and height from 1 to 16 covers all partial-window
        // layouts (w < 3, 3 ≤ w < 7, w ≥ 7; same for h), pinning the
        // edge-replication rule the band pass must reproduce bit-exactly.
        for h in 1..=16u32 {
            for w in 1..=16u32 {
                let img = GrayImage::from_fn(w, h, |x, y| {
                    ((x as u64 * 151 + y as u64 * 83 + (x * y) as u64) % 256) as u8
                });
                assert_eq!(
                    gaussian_blur_7x7_fixed(&img),
                    gaussian_blur_7x7_fixed_reference(&img),
                    "size {w}x{h}"
                );
            }
        }
    }

    /// A horizontal and a vertical row loop, one compiled instance each.
    type RowLoops = (
        &'static str,
        fn(&[u8], &mut [u16]),
        fn(&[&[u16]; 7], &mut [u8]),
    );

    /// The compiled instances of the two row loops: the baseline ones,
    /// called directly (an AVX2 host never dispatches to them), and the
    /// AVX2 ones wherever this CPU has it.
    fn row_loop_instances() -> Vec<RowLoops> {
        let mut all: Vec<RowLoops> = vec![("baseline", hrow_baseline, vrow_baseline)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            all.push((
                "avx2",
                // SAFETY: listed only where AVX2 was detected.
                |row, out| unsafe { hrow_avx2(row, out) },
                |rows, out| unsafe { vrow_avx2(rows, out) },
            ));
        }
        all
    }

    #[test]
    fn band_producers_match_full_frame_blur() {
        // The streaming front-end drives blur_hrow/blur_vrow through a
        // line-buffer ring; assembling a frame from each compiled
        // instance of the two row loops, with explicitly clamped row
        // indices, must equal the reference bit-exactly. Every width
        // from 1 to 200 (rows narrower than the kernel clamp every tap;
        // wider ones clamp 3 columns at each end), heights that clamp
        // the vertical window at one or both ends, and pixels over the
        // full range: a ramp, and blocks of 255 and 0 that push the sums
        // to their 16320 and 1 044 480 peaks.
        for w in 1..=200u32 {
            for h in [1u32, 3, 4, 9, 31] {
                let img = GrayImage::from_fn(w, h, |x, y| match (x / 9 + y) % 4 {
                    0 => 255,
                    1 => 0,
                    _ => ((x as u64 * 31 + y as u64 * 17 + 5) % 256) as u8,
                });
                let oracle = gaussian_blur_7x7_fixed_reference(&img);
                let (wz, hz) = (w as usize, h as usize);
                for (name, hrow, vrow) in row_loop_instances() {
                    let mut hrows = vec![0u16; wz * hz];
                    for (src, dst) in img.as_raw().chunks(wz).zip(hrows.chunks_mut(wz)) {
                        hrow(src, dst);
                    }
                    let mut assembled = GrayImage::new(w, h);
                    for (y, dst) in assembled.as_raw_mut().chunks_mut(wz).enumerate() {
                        let rows: [&[u16]; 7] = std::array::from_fn(|k| {
                            let sy = (y + k).saturating_sub(3).min(hz - 1);
                            &hrows[sy * wz..(sy + 1) * wz]
                        });
                        vrow(&rows, dst);
                    }
                    assert_eq!(assembled, oracle, "{name} {w}x{h}");
                }
            }
        }
    }

    #[test]
    fn border_replication_no_darkening() {
        // With replication, a constant image stays constant at corners too
        // (checked above); also a bright border pixel must not be dimmed
        // by out-of-bounds zeros.
        let img = GrayImage::from_fn(10, 10, |_, _| 255);
        let out = gaussian_blur_7x7_fixed(&img);
        assert_eq!(out.get(0, 0), 255);
        assert_eq!(out.get(9, 9), 255);
    }
}
