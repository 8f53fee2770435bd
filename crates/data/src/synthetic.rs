//! Synthetic class-conditional image generators.
//!
//! Each class owns a smooth random **prototype** image (a coarse random
//! grid bilinearly upsampled to the target resolution). A sample is its
//! class prototype plus white noise. Difficulty is controlled by two
//! knobs: the noise level and the class count — more classes pack the
//! prototype space more densely, so CIFAR-100-like generation is genuinely
//! harder than MNIST-like, mirroring the paper's dataset ladder.

use crate::{Dataset, Result};
use helios_tensor::{Tensor, TensorRng};
use serde::{Deserialize, Serialize};

/// Configuration of a synthetic vision dataset.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use helios_data::SyntheticVision;
/// use helios_tensor::TensorRng;
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let spec = SyntheticVision::cifar10_like();
/// let (train, test) = spec.generate(200, 50, &mut TensorRng::seed_from(1))?;
/// assert_eq!(train.images().dims()[1..], [3, 16, 16]);
/// assert_eq!(test.len(), 50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticVision {
    /// Number of classes.
    pub num_classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image side length (square images).
    pub side: usize,
    /// Standard deviation of the per-pixel sample noise.
    pub noise_std: f32,
    /// Side length of the coarse grid the prototypes are upsampled from.
    /// Smaller grids give smoother, more overlapping prototypes.
    pub prototype_grid: usize,
}

impl SyntheticVision {
    /// MNIST-like: 10 classes, 1×16×16, mild noise.
    pub fn mnist_like() -> Self {
        SyntheticVision {
            num_classes: 10,
            channels: 1,
            side: 16,
            noise_std: 0.45,
            prototype_grid: 4,
        }
    }

    /// CIFAR-10-like: 10 classes, 3×16×16, heavier noise.
    pub fn cifar10_like() -> Self {
        SyntheticVision {
            num_classes: 10,
            channels: 3,
            side: 16,
            noise_std: 0.75,
            prototype_grid: 4,
        }
    }

    /// CIFAR-100-like: 100 classes, 3×16×16, heavy noise and densely
    /// packed prototypes.
    pub fn cifar100_like() -> Self {
        SyntheticVision {
            num_classes: 100,
            channels: 3,
            side: 16,
            noise_std: 0.75,
            prototype_grid: 4,
        }
    }

    /// Generates `(train, test)` datasets with balanced classes.
    ///
    /// Sample `i` gets label `i % num_classes`, so any contiguous slice is
    /// approximately balanced. Prototypes are drawn first from `rng`, so
    /// two calls with identically seeded generators produce identical
    /// datasets.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DataError::InvalidArgument`] for a zero-sized
    /// configuration.
    pub fn generate(
        &self,
        train_samples: usize,
        test_samples: usize,
        rng: &mut TensorRng,
    ) -> Result<(Dataset, Dataset)> {
        self.validate()?;
        let prototypes = self.make_prototypes(rng);
        let train = self.sample_dataset(train_samples, &prototypes, rng)?;
        let test = self.sample_dataset(test_samples, &prototypes, rng)?;
        Ok((train, test))
    }

    fn validate(&self) -> Result<()> {
        if self.num_classes == 0 || self.channels == 0 || self.side == 0 {
            return Err(crate::DataError::InvalidArgument {
                what: "classes, channels and side must be nonzero".into(),
            });
        }
        if self.prototype_grid == 0 || self.prototype_grid > self.side {
            return Err(crate::DataError::InvalidArgument {
                what: format!(
                    "prototype grid {} must be in 1..={}",
                    self.prototype_grid, self.side
                ),
            });
        }
        Ok(())
    }

    /// Per-class prototypes: coarse uniform grids upsampled bilinearly.
    fn make_prototypes(&self, rng: &mut TensorRng) -> Vec<Vec<f32>> {
        let g = self.prototype_grid;
        let side = self.side;
        let plane = side * side;
        (0..self.num_classes)
            .map(|_| {
                let mut proto = vec![0.0f32; self.channels * plane];
                for c in 0..self.channels {
                    // Coarse grid in [-1, 1].
                    let coarse: Vec<f32> = (0..g * g).map(|_| rng.uniform(-1.0, 1.0)).collect();
                    for y in 0..side {
                        for x in 0..side {
                            // Bilinear sample of the coarse grid.
                            let fy = y as f32 / (side - 1).max(1) as f32 * (g - 1) as f32;
                            let fx = x as f32 / (side - 1).max(1) as f32 * (g - 1) as f32;
                            let (y0, x0) = (fy.floor() as usize, fx.floor() as usize);
                            let (y1, x1) = ((y0 + 1).min(g - 1), (x0 + 1).min(g - 1));
                            let (dy, dx) = (fy - y0 as f32, fx - x0 as f32);
                            let v00 = coarse[y0 * g + x0];
                            let v01 = coarse[y0 * g + x1];
                            let v10 = coarse[y1 * g + x0];
                            let v11 = coarse[y1 * g + x1];
                            let v = v00 * (1.0 - dy) * (1.0 - dx)
                                + v01 * (1.0 - dy) * dx
                                + v10 * dy * (1.0 - dx)
                                + v11 * dy * dx;
                            proto[c * plane + y * side + x] = v;
                        }
                    }
                }
                proto
            })
            .collect()
    }

    fn sample_dataset(
        &self,
        n: usize,
        prototypes: &[Vec<f32>],
        rng: &mut TensorRng,
    ) -> Result<Dataset> {
        let sample_len = self.channels * self.side * self.side;
        let mut data = Vec::with_capacity(n * sample_len);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % self.num_classes;
            labels.push(class);
            let proto = &prototypes[class];
            for &p in proto {
                data.push(p + rng.standard_normal() * self.noise_std);
            }
        }
        let images = Tensor::from_vec(data, &[n, self.channels, self.side, self.side])?;
        Dataset::new(images, labels, self.num_classes)
    }
}

/// Golden-ratio multiplier used across the workspace for index mixing.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Domain-separation tag for per-shard sample streams ("SHRD").
const SHARD_STREAM: u64 = 0x5348_5244;
/// Domain-separation tag for the shared prototype stream ("PRTO").
const PROTO_STREAM: u64 = 0x5052_544f;
/// Domain-separation tag for the held-out test stream ("TEST").
const TEST_STREAM: u64 = 0x5445_5354;

/// On-demand generator of per-device data shards.
///
/// A fleet-scale population cannot pre-partition one giant dataset: at
/// 100k devices the training corpus would dwarf memory while almost all
/// of it belongs to devices that are never sampled. Instead, every shard
/// is synthesized lazily from a seed that is a pure function of
/// `(base_seed, shard_index)`, against one shared set of class
/// prototypes drawn once at construction — so all shards describe the
/// *same* underlying task, shard `i` is bit-for-bit reproducible in any
/// access order, and unsampled shards cost nothing.
///
/// # Example
///
/// ```
/// use helios_data::{ShardSynthesizer, SyntheticVision};
///
/// let synth = ShardSynthesizer::new(SyntheticVision::mnist_like(), 12, 42).unwrap();
/// let a = synth.shard(70_000).unwrap();
/// let b = synth.shard(70_000).unwrap();
/// assert_eq!(a.images().as_slice(), b.images().as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct ShardSynthesizer {
    spec: SyntheticVision,
    prototypes: Vec<Vec<f32>>,
    samples_per_shard: usize,
    base_seed: u64,
}

impl ShardSynthesizer {
    /// Creates a synthesizer: validates `spec` and draws the shared class
    /// prototypes from a dedicated stream of `base_seed`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DataError::InvalidArgument`] for a zero-sized
    /// spec or an empty shard size.
    pub fn new(spec: SyntheticVision, samples_per_shard: usize, base_seed: u64) -> Result<Self> {
        spec.validate()?;
        if samples_per_shard == 0 {
            return Err(crate::DataError::InvalidArgument {
                what: "samples_per_shard must be nonzero".into(),
            });
        }
        let mut proto_rng = TensorRng::seed_from(base_seed ^ PROTO_STREAM);
        let prototypes = spec.make_prototypes(&mut proto_rng);
        Ok(ShardSynthesizer {
            spec,
            prototypes,
            samples_per_shard,
            base_seed,
        })
    }

    /// Synthesizes the shard of device `index`.
    ///
    /// Pure in `(base_seed, index)`: the shard's noise stream is seeded
    /// from `base_seed ^ SHRD ^ GOLDEN·(index+1)` and never touches any
    /// other device's stream.
    ///
    /// # Errors
    ///
    /// Propagates tensor-construction failures from the sampler.
    pub fn shard(&self, index: usize) -> Result<Dataset> {
        let seed = self.base_seed ^ SHARD_STREAM ^ GOLDEN.wrapping_mul(index as u64 + 1);
        let mut rng = TensorRng::seed_from(seed);
        self.spec
            .sample_dataset(self.samples_per_shard, &self.prototypes, &mut rng)
    }

    /// Synthesizes a held-out test set of `n` samples against the same
    /// prototypes, from a stream disjoint from every shard.
    ///
    /// # Errors
    ///
    /// Propagates tensor-construction failures from the sampler.
    pub fn test_set(&self, n: usize) -> Result<Dataset> {
        let mut rng = TensorRng::seed_from(self.base_seed ^ TEST_STREAM);
        self.spec.sample_dataset(n, &self.prototypes, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_class_counts() {
        assert_eq!(SyntheticVision::mnist_like().num_classes, 10);
        assert_eq!(SyntheticVision::mnist_like().channels, 1);
        assert_eq!(SyntheticVision::cifar10_like().num_classes, 10);
        assert_eq!(SyntheticVision::cifar10_like().channels, 3);
        assert_eq!(SyntheticVision::cifar100_like().num_classes, 100);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticVision::mnist_like();
        let (a, _) = spec.generate(50, 10, &mut TensorRng::seed_from(3)).unwrap();
        let (b, _) = spec.generate(50, 10, &mut TensorRng::seed_from(3)).unwrap();
        assert_eq!(a.images().as_slice(), b.images().as_slice());
        assert_eq!(a.labels(), b.labels());
        let (c, _) = spec.generate(50, 10, &mut TensorRng::seed_from(4)).unwrap();
        assert_ne!(a.images().as_slice(), c.images().as_slice());
    }

    #[test]
    fn labels_are_balanced_round_robin() {
        let spec = SyntheticVision::mnist_like();
        let (train, _) = spec.generate(100, 0, &mut TensorRng::seed_from(0)).unwrap();
        assert!(train.class_counts().iter().all(|&c| c == 10));
    }

    #[test]
    fn same_class_samples_are_closer_than_cross_class() {
        // The defining property of the generator: intra-class distance is
        // smaller than inter-class distance on average.
        let spec = SyntheticVision::mnist_like();
        let (train, _) = spec.generate(200, 0, &mut TensorRng::seed_from(9)).unwrap();
        let sample_len: usize = train.sample_dims().iter().product();
        let img = train.images().as_slice();
        let dist = |i: usize, j: usize| -> f32 {
            (0..sample_len)
                .map(|k| {
                    let d = img[i * sample_len + k] - img[j * sample_len + k];
                    d * d
                })
                .sum::<f32>()
        };
        // Samples i and i+10 share a class; i and i+1 do not.
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut count = 0;
        for i in 0..100 {
            intra += dist(i, i + 10);
            inter += dist(i, i + 1);
            count += 1;
        }
        assert!(
            (intra / count as f32) < (inter / count as f32),
            "intra-class distance must beat inter-class"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut spec = SyntheticVision::mnist_like();
        spec.num_classes = 0;
        assert!(spec.generate(10, 0, &mut TensorRng::seed_from(0)).is_err());
        let mut spec = SyntheticVision::mnist_like();
        spec.prototype_grid = 99;
        assert!(spec.generate(10, 0, &mut TensorRng::seed_from(0)).is_err());
    }

    #[test]
    fn shards_are_pure_in_seed_and_index() {
        let a = ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, 5).unwrap();
        let b = ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, 5).unwrap();
        // Access in different orders; bits must match.
        let a9 = a.shard(9).unwrap();
        let _ = a.shard(0).unwrap();
        let _ = b.shard(3).unwrap();
        let b9 = b.shard(9).unwrap();
        assert_eq!(a9.images().as_slice(), b9.images().as_slice());
        assert_eq!(a9.labels(), b9.labels());
        // Distinct shards carry distinct noise.
        let a10 = a.shard(10).unwrap();
        assert_ne!(a9.images().as_slice(), a10.images().as_slice());
    }

    #[test]
    fn shards_share_one_prototype_task() {
        // Same class in two different shards must be closer than different
        // classes in one shard — all shards describe the same task.
        let synth = ShardSynthesizer::new(SyntheticVision::mnist_like(), 20, 6).unwrap();
        let s0 = synth.shard(0).unwrap();
        let s1 = synth.shard(1).unwrap();
        let len: usize = s0.sample_dims().iter().product();
        let dist =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let img0 = s0.images().as_slice();
        let img1 = s1.images().as_slice();
        // Samples are labeled round-robin, so index i has class i % 10.
        let same = dist(&img0[..len], &img1[..len]);
        let cross = dist(&img0[..len], &img0[len..2 * len]);
        assert!(
            same < cross,
            "cross-shard same-class {same} vs cross-class {cross}"
        );
    }

    #[test]
    fn test_set_stream_is_disjoint_from_shards() {
        let synth = ShardSynthesizer::new(SyntheticVision::mnist_like(), 8, 7).unwrap();
        let test = synth.test_set(8).unwrap();
        let s0 = synth.shard(0).unwrap();
        assert_ne!(test.images().as_slice(), s0.images().as_slice());
        // And reproducible.
        let again = synth.test_set(8).unwrap();
        assert_eq!(test.images().as_slice(), again.images().as_slice());
    }

    #[test]
    fn shard_synthesizer_rejects_bad_specs() {
        let mut spec = SyntheticVision::mnist_like();
        spec.num_classes = 0;
        assert!(ShardSynthesizer::new(spec, 8, 0).is_err());
        assert!(ShardSynthesizer::new(SyntheticVision::mnist_like(), 0, 0).is_err());
    }

    #[test]
    fn cifar100_labels_cover_many_classes() {
        let spec = SyntheticVision::cifar100_like();
        let (train, _) = spec.generate(300, 0, &mut TensorRng::seed_from(0)).unwrap();
        let covered = train.class_counts().iter().filter(|&&c| c > 0).count();
        assert_eq!(covered, 100);
    }
}
