//! The load generator's side: seeded inputs, rendered before any timed
//! region.
//!
//! Ray-casting a VGA frame costs about as much as processing it, so a
//! clip is rendered into memory in full (on every core, since nothing is
//! being timed yet) and only then replayed into the system.

use std::time::Instant;

use eslam_dataset::noise::NoiseModel;
use eslam_dataset::sequence::SequenceSpec;
use eslam_dataset::{Frame, Trajectory};

/// The `--seed` value that reproduces the sequence specifications'
/// own scene and noise seeds.
pub const DEFAULT_SEED: u64 = 0;

/// Threads that render a clip.
const RENDER_THREADS: usize = 2;

/// SplitMix64 finaliser: decorrelates neighbouring seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e9b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sensor-noise seed of noise index `index`; `stream` separates
/// clips drawn with the same index (mapping frames vs. queries). Index 0
/// on stream 0 is the specifications' own noise seed.
pub fn noise_seed(index: u64, stream: u64) -> u64 {
    let spec_seed = NoiseModel::default().seed;
    if index == 0 && stream == 0 {
        spec_seed
    } else {
        mix(index ^ mix(stream)) ^ spec_seed
    }
}

/// Rotates `pool` left by `seed` places; the default seed keeps the
/// pool's own order.
pub fn rotated<T: Copy>(pool: &[T], seed: u64) -> Vec<T> {
    let shift = (seed % pool.len() as u64) as usize;
    pool.iter()
        .cycle()
        .skip(shift)
        .take(pool.len())
        .copied()
        .collect()
}

/// Returns `spec` with scene seed `scene` and the noise seed of noise
/// index `noise` on stream `stream`.
pub fn reseeded(spec: &SequenceSpec, scene: u64, noise: u64, stream: u64) -> SequenceSpec {
    let mut spec = spec.clone();
    spec.seed = scene;
    spec.noise.seed = noise_seed(noise, stream);
    spec
}

/// Rendered frames of one sequence, held in memory for replay.
#[derive(Debug)]
pub struct Clip {
    pub frames: Vec<Frame>,
    /// Wall time of each `frame_into` call, ms.
    pub render_ms: Vec<f64>,
}

impl Clip {
    /// Renders frames `indices` of `spec` into memory.
    pub fn render(spec: &SequenceSpec, indices: &[usize]) -> Clip {
        let seq = spec.build();
        // Lane `l` renders every RENDER_THREADS-th frame from the l-th.
        let lane = |l: usize| -> Vec<(usize, Frame, f64)> {
            let picks = indices.iter().enumerate().skip(l).step_by(RENDER_THREADS);
            picks
                .map(|(k, &index)| {
                    let mut frame = Frame::buffer();
                    let start = Instant::now();
                    seq.frame_into(index, &mut frame);
                    (k, frame, start.elapsed().as_secs_f64() * 1e3)
                })
                .collect()
        };
        let mut rendered: Vec<(usize, Frame, f64)> = std::thread::scope(|scope| {
            let lane = &lane;
            let handles: Vec<_> = (0..RENDER_THREADS)
                .map(|l| scope.spawn(move || lane(l)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("render thread panicked"))
                .collect()
        });
        rendered.sort_by_key(|&(k, ..)| k);
        let (frames, render_ms) = rendered.into_iter().map(|(_, f, ms)| (f, ms)).unzip();
        Clip { frames, render_ms }
    }

    /// Ground truth of the clip re-based on `origin`, the camera-to-world
    /// pose of the frame that defines the estimate's world.
    pub fn truth_from(&self, origin: &eslam_geometry::Se3) -> Trajectory {
        let base = origin.inverse();
        let mut truth = Trajectory::new();
        for f in &self.frames {
            truth.push(f.timestamp, base.compose(&f.ground_truth));
        }
        truth
    }

    /// Ground truth re-based on the clip's first frame.
    pub fn truth(&self) -> Trajectory {
        self.truth_from(&self.frames[0].ground_truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_index_zero_keeps_the_spec_noise() {
        assert_eq!(noise_seed(0, 0), NoiseModel::default().seed);
        assert_ne!(noise_seed(0, 1), NoiseModel::default().seed);
        assert_ne!(noise_seed(1, 0), noise_seed(2, 0));
        assert_eq!(noise_seed(7, 3), noise_seed(7, 3));
    }

    #[test]
    fn rotation_covers_the_pool() {
        let pool = [606, 1, 2, 3];
        assert_eq!(rotated(&pool, DEFAULT_SEED), pool);
        assert_eq!(rotated(&pool, 1), [1, 2, 3, 606]);
        assert_eq!(rotated(&pool, 6), [2, 3, 606, 1]);
    }

    #[test]
    fn clips_render_in_index_order() {
        let spec = &SequenceSpec::loop_sequences(6, 0.125)[0];
        let clip = Clip::render(spec, &[0, 2, 4, 5]);
        let seq = spec.build();
        assert_eq!(clip.frames.len(), 4);
        assert_eq!(clip.frames[1], seq.frame(2));
        assert_eq!(clip.frames[3], seq.frame(5));
        assert!(clip.render_ms.iter().all(|&ms| ms > 0.0));
        // Re-based ground truth starts at the origin.
        let truth = clip.truth();
        assert!(truth.poses()[0].pose.translation.norm() < 1e-12);
        assert_eq!(truth.len(), 4);
    }
}
