//! Seeded random tensor initialization.
//!
//! Every stochastic component of the Helios workspace draws from an
//! explicitly seeded [`TensorRng`], so whole federated-learning runs are
//! bit-for-bit reproducible.

use crate::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic random number generator used for all tensor initialization.
///
/// A thin newtype over ChaCha8 seeded from a `u64`; cheap to fork via
/// [`TensorRng::split`] so that sub-components get independent but still
/// reproducible streams.
///
/// # Example
///
/// ```
/// use helios_tensor::{xavier_uniform, TensorRng};
///
/// let mut rng = TensorRng::seed_from(42);
/// let w = xavier_uniform(&[4, 4], 4, 4, &mut rng);
/// let w2 = xavier_uniform(&[4, 4], 4, 4, &mut TensorRng::seed_from(42));
/// assert_eq!(w, w2); // same seed, same weights
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    inner: ChaCha8Rng,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        TensorRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator.
    ///
    /// The child stream is a deterministic function of the parent state, so
    /// splitting preserves reproducibility while decoupling consumers.
    pub fn split(&mut self) -> Self {
        TensorRng::seed_from(self.next_seed())
    }

    /// Draws the raw 64-bit seed a [`TensorRng::split`] call would use.
    ///
    /// Lets callers record the split chain (one `u64` per child) and
    /// reconstruct each child later with [`TensorRng::seed_from`] —
    /// `seed_from(next_seed())` is bitwise identical to `split()`. The
    /// lazily instantiated fleet uses this to defer per-client generator
    /// construction without perturbing the eager stream.
    pub fn next_seed(&mut self) -> u64 {
        self.inner.gen::<u64>()
    }

    /// Uniform sample in `[low, high)`.
    pub fn uniform(&mut self, low: f32, high: f32) -> f32 {
        self.inner.gen_range(low..high)
    }

    /// Standard normal sample (Box–Muller transform).
    pub fn standard_normal(&mut self) -> f32 {
        // Box–Muller needs u1 strictly positive.
        let u1: f32 = self.inner.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.inner.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.inner.gen_range(0..bound)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices uniformly from `0..n` (partial
    /// Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.inner.gen_range(i..n);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. Suited to layers followed by
/// symmetric activations.
pub fn xavier_uniform(
    dims: &[usize],
    fan_in: usize,
    fan_out: usize,
    rng: &mut TensorRng,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut t = Tensor::zeros(dims);
    for x in t.as_mut_slice() {
        *x = rng.uniform(-a, a);
    }
    t
}

/// He/Kaiming normal initialization: `N(0, sqrt(2 / fan_in))`. Suited to
/// layers followed by ReLU.
pub fn he_normal(dims: &[usize], fan_in: usize, rng: &mut TensorRng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    let mut t = Tensor::zeros(dims);
    for x in t.as_mut_slice() {
        *x = rng.standard_normal() * std;
    }
    t
}

/// Plain uniform initialization over `[low, high)`.
pub fn uniform_init(dims: &[usize], low: f32, high: f32, rng: &mut TensorRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for x in t.as_mut_slice() {
        *x = rng.uniform(low, high);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::seed_from(7);
        let mut b = TensorRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TensorRng::seed_from(1);
        let mut b = TensorRng::seed_from(2);
        let va: Vec<f32> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f32> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = TensorRng::seed_from(9);
        let mut parent2 = TensorRng::seed_from(9);
        let mut c1 = parent1.split();
        let mut c2 = parent2.split();
        assert_eq!(c1.uniform(0.0, 1.0), c2.uniform(0.0, 1.0));
        // Child and parent produce different streams.
        assert_ne!(parent1.uniform(0.0, 1.0), c1.uniform(0.0, 1.0));
    }

    #[test]
    fn next_seed_replays_split_exactly() {
        let mut parent1 = TensorRng::seed_from(11);
        let mut parent2 = TensorRng::seed_from(11);
        let recorded = parent1.next_seed();
        let mut via_seed = TensorRng::seed_from(recorded);
        let mut via_split = parent2.split();
        for _ in 0..32 {
            assert_eq!(via_seed.uniform(0.0, 1.0), via_split.uniform(0.0, 1.0));
        }
        // The parents stay in lockstep afterwards.
        assert_eq!(parent1.uniform(0.0, 1.0), parent2.uniform(0.0, 1.0));
    }

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = TensorRng::seed_from(3);
        let t = xavier_uniform(&[64, 64], 64, 64, &mut rng);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(t.as_slice().iter().all(|&x| x >= -a && x < a));
        // Not all identical.
        assert!(t.as_slice().iter().any(|&x| x != t.as_slice()[0]));
    }

    #[test]
    fn he_normal_has_plausible_spread() {
        let mut rng = TensorRng::seed_from(4);
        let t = he_normal(&[4096], 128, &mut rng);
        let mean = t.mean();
        let mut sq = t.clone();
        sq.map_inplace(|x| (x - mean) * (x - mean));
        let std = sq.mean().sqrt();
        let expected = (2.0f32 / 128.0).sqrt();
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            (std - expected).abs() < 0.2 * expected,
            "std {std} vs expected {expected}"
        );
    }

    #[test]
    fn standard_normal_is_finite() {
        let mut rng = TensorRng::seed_from(5);
        for _ in 0..10_000 {
            assert!(rng.standard_normal().is_finite());
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = TensorRng::seed_from(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = TensorRng::seed_from(8);
        let s = rng.sample_indices(20, 10);
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(s.iter().all(|&i| i < 20));
        // Edge cases.
        assert!(rng.sample_indices(5, 0).is_empty());
        assert_eq!(rng.sample_indices(5, 5).len(), 5);
    }
}
