//! Seeded random tensor initialization.
//!
//! Every stochastic component of the Helios workspace draws from an
//! explicitly seeded [`TensorRng`], so whole federated-learning runs are
//! bit-for-bit reproducible.

use crate::Tensor;

/// "expand 32-byte k" as little-endian words: ChaCha's constant row.
const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Deterministic random number generator used for all tensor initialization.
///
/// ChaCha with 8 rounds, a 64-bit block counter and a zero nonce, keyed
/// by a SplitMix64 expansion of a `u64` seed; cheap to fork via
/// [`TensorRng::split`] so that sub-components get independent but still
/// reproducible streams. A clone replays its parent from the same point.
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
    /// Key words: the SplitMix64-expanded seed.
    key: [u32; 8],
    /// Counter of the *next* block, words 12–13 of its input.
    counter: u64,
    /// Output words of the current block.
    block: [u32; 16],
    /// Next unread index into `block` (16 = exhausted).
    index: usize,
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // SplitMix64 draw `k` fills key words `2k` (low half) and `2k + 1`.
        let mut key = [0u32; 8];
        let mut state = seed;
        for k in 0..4 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            key[2 * k] = z as u32;
            key[2 * k + 1] = (z >> 32) as u32;
        }
        TensorRng {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }

    /// Generates the next 16-word block (8 rounds: 4 column-and-diagonal
    /// double rounds) and advances the block counter. Kept out of line:
    /// inlined into every draw, it made `uniform` and `below` slower.
    #[inline(never)]
    fn refill(&mut self) {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&CHACHA_CONSTANTS);
        input[4..12].copy_from_slice(&self.key);
        input[12] = self.counter as u32;
        input[13] = (self.counter >> 32) as u32;
        let mut state = input;
        for _ in 0..4 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, (s, i)) in self.block.iter_mut().zip(state.iter().zip(&input)) {
            *out = s.wrapping_add(*i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Uniform `f32` in `[0, 1)` from the 24 high bits of one word.
    fn unit_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
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
        self.next_u64()
    }

    /// Uniform sample in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high`.
    pub fn uniform(&mut self, low: f32, high: f32) -> f32 {
        assert!(low < high, "cannot sample empty range");
        let v = low + (high - low) * self.unit_f32();
        // Rounding can land exactly on the exclusive upper bound.
        if v >= high {
            high.next_down().max(low)
        } else {
            v
        }
    }

    /// Standard normal sample (Box–Muller transform).
    pub fn standard_normal(&mut self) -> f32 {
        // Box–Muller needs u1 strictly positive.
        let u1 = self.uniform(f32::EPSILON, 1.0);
        let u2 = self.unit_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, bound)`, unbiased: draws at or above the
    /// largest multiple of `bound` not exceeding 2⁶⁴ are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "cannot sample empty range");
        let n = bound as u64;
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return (v % n) as usize;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` from the 53 high bits of one `u64`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            // The inclusive range `0..=i`; `i + 1` cannot wrap for a slice index.
            let j = self.below(i + 1);
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
            let j = i + self.below(n - i);
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

    /// Pins the raw stream of `seed_from(42)`: the seed expansion, the
    /// block function and its refill, the unit draws, the float nudge and
    /// the integer rejection zone. Every golden consumes this stream, so a
    /// change here moves all of them. `standard_normal` is left out: its
    /// bits also depend on libm's `ln` and `cos`.
    #[test]
    fn raw_stream_is_pinned() {
        let mut rng = TensorRng::seed_from(42);
        let seeds: Vec<u64> = (0..4).map(|_| rng.next_seed()).collect();
        assert_eq!(
            seeds,
            [
                0x3115_9ef9_87c9_1afc,
                0x1755_9844_b416_9001,
                0xf7d0_afbf_9ad9_a69f,
                0xb920_7ad5_fd37_495a,
            ]
        );
        let units: Vec<u64> = (0..4).map(|_| rng.unit_f64().to_bits()).collect();
        assert_eq!(
            units,
            [
                0x3f9c_b6c3_6d84_ca60,
                0x3fd0_146f_0efb_2898,
                0x3fe7_f557_2e19_88e0,
                0x3fe5_fea8_4bb1_f13a,
            ]
        );
        let uniforms: Vec<u32> = (0..4).map(|_| rng.uniform(-1.0, 1.0).to_bits()).collect();
        assert_eq!(
            uniforms,
            [0xbe23_5c10, 0x3f6d_0eaa, 0x3e29_fcb0, 0xbf33_1f24]
        );
        let below: Vec<usize> = (0..4).map(|_| rng.below(7)).collect();
        assert_eq!(below, [3, 0, 1, 4]);
        let mut items: Vec<usize> = (0..10).collect();
        rng.shuffle(&mut items);
        assert_eq!(items, [4, 8, 0, 2, 7, 3, 5, 9, 1, 6]);
        assert_eq!(rng.sample_indices(10, 4), [5, 2, 3, 6]);
        // The 20th draw reads the third 16-word block.
        let mut fresh = TensorRng::seed_from(42);
        let twentieth = (0..20).map(|_| fresh.next_seed()).last();
        assert_eq!(twentieth, Some(0xc96f_f513_49ee_5d3a));
    }

    #[test]
    fn clone_taken_mid_block_replays_its_parent() {
        let mut a = TensorRng::seed_from(99);
        for _ in 0..21 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn below_and_the_inclusive_range_stay_in_bounds() {
        let mut rng = TensorRng::seed_from(42);
        // 2^63 + 1 rejects about half of all draws.
        for bound in [1, 5, 14, (1 << 63) + 1, usize::MAX] {
            for _ in 0..1000 {
                assert!(rng.below(bound) < bound);
            }
        }
        // `shuffle` draws from `0..=i`: both ends occur, nothing else does.
        let mut orders = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let mut pair = [0, 1];
            rng.shuffle(&mut pair);
            orders.insert(pair);
        }
        assert_eq!(orders.into_iter().collect::<Vec<_>>(), [[0, 1], [1, 0]]);
    }

    #[test]
    fn float_draws_stay_below_high_even_when_rounding_lands_on_it() {
        let mut rng = TensorRng::seed_from(42);
        for _ in 0..1000 {
            assert!((0.25..0.75).contains(&rng.uniform(0.25, 0.75)));
            assert!((0.0..1.0).contains(&rng.unit_f32()));
            assert!((0.0..1.0).contains(&rng.unit_f64()));
        }
        // One ulp wide: every unit draw of 0.5 or more rounds onto `high`
        // and is nudged back to `low`.
        let high = 1.0f32.next_up();
        for _ in 0..1000 {
            assert_eq!(rng.uniform(1.0, high), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn below_zero_panics() {
        TensorRng::seed_from(1).below(0);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn empty_uniform_range_panics() {
        TensorRng::seed_from(1).uniform(0.5, 0.5);
    }

    #[test]
    fn output_bits_are_about_half_ones() {
        let mut rng = TensorRng::seed_from(3);
        const N: u32 = 1024;
        let ones: u32 = (0..N).map(|_| rng.next_u32().count_ones()).sum();
        let frac = ones as f64 / (N as f64 * 32.0);
        assert!((frac - 0.5).abs() < 0.02, "bit bias {frac}");
    }
}
