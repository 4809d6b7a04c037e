//! Image pyramid generation.
//!
//! The paper's Image Resizing module (§3) generates the scale pyramid
//! "layer by layer" with **nearest-neighbour downsampling**: while the ORB
//! Extractor processes one layer, the resizer produces the next from it.
//! eSLAM uses a 4-layer pyramid (§4.4 notes that two extra layers over \[4\]
//! cost 48% more pixels, which pins the scale factor at the ORB-standard
//! 1.2).

use crate::image::GrayImage;

/// Standard ORB inter-layer scale factor.
pub const DEFAULT_SCALE_FACTOR: f64 = 1.2;
/// Number of pyramid layers used by eSLAM (§2.1: "a 4-layer pyramid").
pub const DEFAULT_LEVELS: usize = 4;

/// Configuration of the pyramid builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PyramidConfig {
    /// Number of layers, including the base image. Must be ≥ 1.
    pub levels: usize,
    /// Scale between consecutive layers. Must be > 1.
    pub scale_factor: f64,
}

impl Default for PyramidConfig {
    fn default() -> Self {
        PyramidConfig {
            levels: DEFAULT_LEVELS,
            scale_factor: DEFAULT_SCALE_FACTOR,
        }
    }
}

impl PyramidConfig {
    /// The cumulative scale of layer `level` relative to the base image.
    pub fn scale_of(&self, level: usize) -> f64 {
        self.scale_factor.powi(level as i32)
    }

    /// The size of layer `level` for a `width`×`height` base image: each
    /// dimension divided by the layer's [`scale_of`](Self::scale_of) and
    /// rounded. A non-empty dimension keeps at least one pixel; an empty
    /// one stays empty on every level. The one level-size rule behind
    /// [`ImagePyramid::build_into`], [`Self::total_pixels`] and the
    /// accelerator model's workloads.
    pub fn level_size(&self, level: usize, width: u32, height: u32) -> (u32, u32) {
        let s = self.scale_of(level);
        let scaled = |d: u32| {
            if d == 0 {
                0
            } else {
                ((d as f64) / s).round().max(1.0) as u32
            }
        };
        (scaled(width), scaled(height))
    }

    /// Total number of pixels across all layers for a `width`×`height`
    /// base image; the quantity behind the paper's "48% more pixels"
    /// comparison (§4.4).
    pub fn total_pixels(&self, width: u32, height: u32) -> u64 {
        (0..self.levels)
            .map(|level| {
                let (w, h) = self.level_size(level, width, height);
                w as u64 * h as u64
            })
            .sum()
    }
}

/// A multi-scale image pyramid.
///
/// # Examples
///
/// ```
/// use eslam_image::{GrayImage, pyramid::{ImagePyramid, PyramidConfig}};
/// let base = GrayImage::from_fn(640, 480, |x, y| ((x + y) % 256) as u8);
/// let pyr = ImagePyramid::build(&base, &PyramidConfig::default());
/// assert_eq!(pyr.levels(), 4);
/// assert_eq!(pyr.level(0).width(), 640);
/// assert_eq!(pyr.level(1).width(), 533); // 640 / 1.2
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImagePyramid {
    layers: Vec<GrayImage>,
    config: PyramidConfig,
}

impl Default for ImagePyramid {
    /// An empty pyramid, ready to be filled by
    /// [`ImagePyramid::build_into`].
    fn default() -> Self {
        ImagePyramid {
            layers: Vec::new(),
            config: PyramidConfig::default(),
        }
    }
}

/// Caller-owned scratch for [`ImagePyramid::build_into`]: holds the
/// nearest-neighbour source-column map so steady-state pyramid builds
/// allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct PyramidScratch {
    xmap: Vec<u32>,
}

impl ImagePyramid {
    /// Builds a pyramid by repeated nearest-neighbour downsampling of the
    /// base image, mirroring the streaming Image Resizing hardware (each
    /// layer is produced from the *previous layer*, not from the base).
    ///
    /// # Panics
    /// Panics if `config.levels == 0` or `config.scale_factor <= 1.0`.
    pub fn build(base: &GrayImage, config: &PyramidConfig) -> Self {
        let mut pyramid = ImagePyramid {
            layers: Vec::new(),
            config: *config,
        };
        pyramid.build_into(base, config, &mut PyramidScratch::default());
        pyramid
    }

    /// Rebuilds this pyramid in place for a new base frame, reusing the
    /// existing layer buffers and `scratch`. After the first call with a
    /// given frame geometry, subsequent calls perform **zero heap
    /// allocations** — the steady-state path of the frame loop.
    ///
    /// Results are identical to [`ImagePyramid::build`].
    ///
    /// # Panics
    /// Panics if `config.levels == 0` or `config.scale_factor <= 1.0`.
    pub fn build_into(
        &mut self,
        base: &GrayImage,
        config: &PyramidConfig,
        scratch: &mut PyramidScratch,
    ) {
        assert!(config.levels >= 1, "pyramid needs at least one level");
        assert!(config.scale_factor > 1.0, "scale factor must exceed 1");
        self.config = *config;
        self.layers.truncate(config.levels);
        while self.layers.len() < config.levels {
            self.layers.push(GrayImage::new(0, 0));
        }
        self.layers[0].copy_from(base);
        for level in 1..config.levels {
            // Target size derives from the *base* to avoid compounding
            // rounding, but pixels are sampled from the previous layer as
            // the hardware does.
            let (w, h) = config.level_size(level, base.width(), base.height());
            let (prev, rest) = self.layers[level - 1..].split_first_mut().expect("levels");
            resize_nearest_into(prev, &mut rest[0], w, h, &mut scratch.xmap);
        }
    }

    /// Number of layers.
    pub fn levels(&self) -> usize {
        self.layers.len()
    }

    /// The configuration the pyramid was built with.
    pub fn config(&self) -> &PyramidConfig {
        &self.config
    }

    /// The image at `level` (0 = full resolution).
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    pub fn level(&self, level: usize) -> &GrayImage {
        &self.layers[level]
    }

    /// Cumulative scale of `level` relative to the base.
    pub fn scale_of(&self, level: usize) -> f64 {
        self.config.scale_of(level)
    }

    /// Iterates over `(level, image)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &GrayImage)> {
        self.layers.iter().enumerate()
    }

    /// Total pixel count across all layers.
    pub fn total_pixels(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.width() as u64 * l.height() as u64)
            .sum()
    }
}

/// Nearest-neighbour resize, the downsampling the paper's Image Resizing
/// module applies (§3).
pub fn resize_nearest(src: &GrayImage, width: u32, height: u32) -> GrayImage {
    let mut out = GrayImage::new(width, height);
    resize_nearest_into(src, &mut out, width, height, &mut Vec::new());
    out
}

/// Scalar reference resize (per-pixel coordinate math through
/// [`GrayImage::get`]); the oracle for [`resize_nearest_into`].
pub fn resize_nearest_reference(src: &GrayImage, width: u32, height: u32) -> GrayImage {
    let sx = src.width() as f64 / width as f64;
    let sy = src.height() as f64 / height as f64;
    GrayImage::from_fn(width, height, |x, y| {
        let src_x = ((x as f64 + 0.5) * sx - 0.5)
            .round()
            .clamp(0.0, src.width() as f64 - 1.0) as u32;
        let src_y = ((y as f64 + 0.5) * sy - 0.5)
            .round()
            .clamp(0.0, src.height() as f64 - 1.0) as u32;
        src.get(src_x, src_y)
    })
}

/// Fills `xmap` with the nearest-neighbour source column for each of the
/// `width` output columns (same centre-aligned rounding as
/// [`resize_nearest_reference`]). Computed once per resize and shared by
/// every row the band producer emits.
pub fn resize_nearest_xmap_into(src_width: u32, width: u32, xmap: &mut Vec<u32>) {
    let sx = src_width as f64 / width as f64;
    xmap.clear();
    xmap.extend((0..width).map(|x| {
        ((x as f64 + 0.5) * sx - 0.5)
            .round()
            .clamp(0.0, src_width as f64 - 1.0) as u32
    }));
}

/// The nearest-neighbour source row for output row `y` of a resize to
/// `height` rows — the row-coordinate half of the reference math.
pub fn resize_nearest_src_row(src_height: u32, height: u32, y: u32) -> u32 {
    let sy = src_height as f64 / height as f64;
    ((y as f64 + 0.5) * sy - 0.5)
        .round()
        .clamp(0.0, src_height as f64 - 1.0) as u32
}

/// Produces one output row of a nearest-neighbour resize: gathers from
/// the source row [`resize_nearest_src_row`] selects, through the column
/// map built by [`resize_nearest_xmap_into`].
///
/// This is the row-band producer the streaming front-end tiles levels
/// through; the full-frame [`resize_nearest_into`] loops over it, so the
/// two are bit-identical by construction.
///
/// # Panics
/// Panics if `out.len() != xmap.len()` or `y >= height`.
pub fn resize_nearest_row_into(src: &GrayImage, height: u32, y: u32, xmap: &[u32], out: &mut [u8]) {
    assert_eq!(out.len(), xmap.len(), "output row / column map mismatch");
    assert!(y < height, "row {y} out of range for height {height}");
    let sw = src.width() as usize;
    let src_y = resize_nearest_src_row(src.height(), height, y) as usize;
    let srow = &src.as_raw()[src_y * sw..src_y * sw + sw];
    for (o, &sx_idx) in out.iter_mut().zip(xmap.iter()) {
        *o = srow[sx_idx as usize];
    }
}

/// Nearest-neighbour resize into a caller-owned image, with the
/// source-column map kept in `xmap` scratch: the per-pixel coordinate
/// math of the reference runs once per row/column instead of once per
/// pixel, and row gathers use direct slices. Bit-identical to
/// [`resize_nearest_reference`]. Implemented as a loop over the
/// [`resize_nearest_row_into`] band producer.
pub fn resize_nearest_into(
    src: &GrayImage,
    dst: &mut GrayImage,
    width: u32,
    height: u32,
    xmap: &mut Vec<u32>,
) {
    dst.reshape(width, height);
    resize_nearest_xmap_into(src.width(), width, xmap);
    let out = dst.as_raw_mut();
    let w = width as usize;
    for y in 0..height {
        resize_nearest_row_into(src, height, y, xmap, &mut out[y as usize * w..][..w]);
    }
}

/// Bilinear resize, provided as the software-quality baseline for the
/// nearest-vs-bilinear ablation.
pub fn resize_bilinear(src: &GrayImage, width: u32, height: u32) -> GrayImage {
    let sx = src.width() as f64 / width as f64;
    let sy = src.height() as f64 / height as f64;
    GrayImage::from_fn(width, height, |x, y| {
        let fx = ((x as f64 + 0.5) * sx - 0.5).max(0.0);
        let fy = ((y as f64 + 0.5) * sy - 0.5).max(0.0);
        let x0 = fx.floor() as i64;
        let y0 = fy.floor() as i64;
        let dx = fx - x0 as f64;
        let dy = fy - y0 as f64;
        let p00 = src.get_clamped(x0, y0) as f64;
        let p10 = src.get_clamped(x0 + 1, y0) as f64;
        let p01 = src.get_clamped(x0, y0 + 1) as f64;
        let p11 = src.get_clamped(x0 + 1, y0 + 1) as f64;
        let top = p00 * (1.0 - dx) + p10 * dx;
        let bottom = p01 * (1.0 - dx) + p11 * dx;
        (top * (1.0 - dy) + bottom * dy).round().clamp(0.0, 255.0) as u8
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_level_pyramid_sizes() {
        let base = GrayImage::new(640, 480);
        let pyr = ImagePyramid::build(&base, &PyramidConfig::default());
        let sizes: Vec<_> = pyr.iter().map(|(_, l)| (l.width(), l.height())).collect();
        assert_eq!(sizes[0], (640, 480));
        assert_eq!(sizes[1], (533, 400));
        assert_eq!(sizes[2], (444, 333));
        assert_eq!(sizes[3], (370, 278));
    }

    #[test]
    fn pyramid_pixel_count_matches_paper_48_percent_claim() {
        // §4.4: 4 layers process ~48% more pixels than 2 layers.
        let four = PyramidConfig {
            levels: 4,
            scale_factor: 1.2,
        };
        let two = PyramidConfig {
            levels: 2,
            scale_factor: 1.2,
        };
        let p4 = four.total_pixels(640, 480) as f64;
        let p2 = two.total_pixels(640, 480) as f64;
        let ratio = p4 / p2;
        assert!(
            (ratio - 1.48).abs() < 0.02,
            "pixel ratio {ratio} should be ≈ 1.48"
        );
    }

    #[test]
    fn scale_of_level() {
        let cfg = PyramidConfig::default();
        assert!((cfg.scale_of(0) - 1.0).abs() < 1e-12);
        assert!((cfg.scale_of(2) - 1.44).abs() < 1e-12);
    }

    #[test]
    fn constant_image_stays_constant() {
        let base = GrayImage::from_fn(100, 80, |_, _| 77);
        let pyr = ImagePyramid::build(&base, &PyramidConfig::default());
        for (_, layer) in pyr.iter() {
            assert!(layer.as_raw().iter().all(|&v| v == 77));
        }
    }

    #[test]
    fn nearest_resize_identity() {
        let img = GrayImage::from_fn(10, 10, |x, y| (x * 10 + y) as u8);
        let same = resize_nearest(&img, 10, 10);
        assert_eq!(img, same);
    }

    #[test]
    fn nearest_resize_half() {
        let img = GrayImage::from_fn(4, 4, |x, y| (y * 4 + x) as u8 * 10);
        let half = resize_nearest(&img, 2, 2);
        assert_eq!(half.width(), 2);
        assert_eq!(half.height(), 2);
        // Each output pixel picks one source pixel (no averaging).
        for (_, _, v) in half.pixels() {
            assert!(img.as_raw().contains(&v));
        }
    }

    #[test]
    fn bilinear_resize_smooths() {
        let img = GrayImage::from_fn(4, 1, |x, _| if x < 2 { 0 } else { 200 });
        let out = resize_bilinear(&img, 2, 1);
        // The downsampled edge pixel blends black and white.
        assert!(out.get(0, 0) < 100);
        assert!(out.get(1, 0) > 100);
    }

    #[test]
    fn bilinear_identity_preserves_pixels() {
        let img = GrayImage::from_fn(7, 5, |x, y| ((x * 31 + y * 17) % 256) as u8);
        let same = resize_bilinear(&img, 7, 5);
        assert_eq!(img, same);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        let base = GrayImage::new(10, 10);
        ImagePyramid::build(
            &base,
            &PyramidConfig {
                levels: 0,
                scale_factor: 1.2,
            },
        );
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn bad_scale_panics() {
        let base = GrayImage::new(10, 10);
        ImagePyramid::build(
            &base,
            &PyramidConfig {
                levels: 2,
                scale_factor: 1.0,
            },
        );
    }

    #[test]
    fn total_pixels_consistent() {
        // The built layers follow `level_size`, and the two pixel totals
        // agree: VGA, and every base up to 4×4 at 1–8 levels, where a
        // 1×1 base keeps one pixel on every level.
        let cfg = PyramidConfig::default();
        let pyr = ImagePyramid::build(&GrayImage::new(640, 480), &cfg);
        assert_eq!(pyr.total_pixels(), cfg.total_pixels(640, 480));
        assert_eq!(cfg.total_pixels(640, 480), 771_112);
        for levels in 1..=8 {
            let cfg = PyramidConfig {
                levels,
                ..Default::default()
            };
            for (w, h) in (0..=4u32).flat_map(|w| (0..=4u32).map(move |h| (w, h))) {
                let pyr = ImagePyramid::build(&GrayImage::new(w, h), &cfg);
                for (level, layer) in pyr.iter() {
                    let size = (layer.width(), layer.height());
                    assert_eq!(size, cfg.level_size(level, w, h), "{w}x{h} level {level}");
                }
                assert_eq!(
                    pyr.total_pixels(),
                    cfg.total_pixels(w, h),
                    "{w}x{h} {levels}"
                );
            }
            assert_eq!(cfg.total_pixels(1, 1), levels as u64);
        }
    }

    #[test]
    fn empty_base_gives_empty_levels() {
        let cfg = PyramidConfig::default();
        for (w, h) in [(0u32, 0u32), (0, 40), (40, 0)] {
            let pyr = ImagePyramid::build(&GrayImage::new(w, h), &cfg);
            assert_eq!(pyr.levels(), cfg.levels);
            for (level, layer) in pyr.iter().skip(1) {
                assert_eq!(layer.width() == 0, w == 0, "{w}x{h} level {level}");
                assert_eq!(layer.height() == 0, h == 0, "{w}x{h} level {level}");
            }
            assert_eq!(pyr.total_pixels(), 0, "{w}x{h}");
            assert_eq!(cfg.total_pixels(w, h), 0, "{w}x{h}");
        }
    }

    #[test]
    fn resize_into_matches_reference() {
        for seed in 0..4u64 {
            let img = GrayImage::from_fn(37, 23, |x, y| {
                ((x as u64 * 31 + y as u64 * 17 + seed * 7) % 256) as u8
            });
            for (w, h) in [(37u32, 23u32), (31, 19), (18, 11), (5, 3), (1, 1), (74, 46)] {
                assert_eq!(
                    resize_nearest(&img, w, h),
                    resize_nearest_reference(&img, w, h),
                    "seed {seed} target {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn build_into_matches_build_and_reuses_buffers() {
        let cfg = PyramidConfig::default();
        let frame_a = GrayImage::from_fn(160, 120, |x, y| ((x * 13 + y * 7) % 256) as u8);
        let frame_b = GrayImage::from_fn(160, 120, |x, y| ((x * 5 + y * 29) % 256) as u8);

        let mut pyr = ImagePyramid::build(&frame_a, &cfg);
        assert_eq!(pyr, ImagePyramid::build(&frame_a, &cfg));

        let ptrs: Vec<*const u8> = pyr.layers.iter().map(|l| l.as_raw().as_ptr()).collect();
        let mut scratch = PyramidScratch::default();
        pyr.build_into(&frame_b, &cfg, &mut scratch);
        assert_eq!(pyr, ImagePyramid::build(&frame_b, &cfg));
        // Same geometry ⇒ every layer buffer was reused in place.
        let ptrs_after: Vec<*const u8> = pyr.layers.iter().map(|l| l.as_raw().as_ptr()).collect();
        assert_eq!(ptrs, ptrs_after);
    }

    #[test]
    fn build_into_handles_level_count_changes() {
        let frame = GrayImage::from_fn(100, 80, |x, y| ((x ^ y) % 256) as u8);
        let mut scratch = PyramidScratch::default();
        let mut pyr = ImagePyramid::build(
            &frame,
            &PyramidConfig {
                levels: 2,
                scale_factor: 1.2,
            },
        );
        pyr.build_into(
            &frame,
            &PyramidConfig {
                levels: 5,
                scale_factor: 1.3,
            },
            &mut scratch,
        );
        assert_eq!(
            pyr,
            ImagePyramid::build(
                &frame,
                &PyramidConfig {
                    levels: 5,
                    scale_factor: 1.3
                }
            )
        );
        pyr.build_into(
            &frame,
            &PyramidConfig {
                levels: 1,
                scale_factor: 1.2,
            },
            &mut scratch,
        );
        assert_eq!(pyr.levels(), 1);
    }
}
