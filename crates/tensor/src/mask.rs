//! [`UnitMask`]: which units of a layer (or entries of a parameter
//! vector) take part in a soft-training cycle, stored the way the wire
//! stores it.

const WORD_BITS: usize = 64;

/// A fixed-length set of active units, one bit each (`true` = active).
///
/// Bit `i` is bit `i % 64` of word `i / 64` (LSB-first), and the
/// padding bits past `len` in the last word are always zero. So
/// `count_ones` and equality need no masking, and the little-endian
/// bytes of the words, cut to ⌈len/8⌉, are the wire codec's activity
/// bitset byte for byte.
///
/// # Example
///
/// ```
/// use helios_tensor::UnitMask;
///
/// let mask: UnitMask = (0..70).map(|i| i % 3 == 0).collect();
/// assert_eq!(mask.count_ones(), 24);
/// assert!(mask.get(69) && !mask.get(68));
/// assert_eq!(mask.iter_ones().take(3).collect::<Vec<_>>(), vec![0, 3, 6]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitMask {
    words: Vec<u64>,
    len: usize,
}

/// Why a word slice is not a [`UnitMask`] of a given length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskWordsError {
    /// The slice is not ⌈len/64⌉ words long.
    WordCount,
    /// A bit past `len` is set.
    PaddingSet,
}

/// The number of set bits of `words` read as a [`UnitMask`] of `len`
/// bits: the layout check a decoded or aggregated mask must pass.
///
/// # Errors
///
/// Returns [`MaskWordsError::WordCount`] unless there are exactly
/// ⌈len/64⌉ words, and [`MaskWordsError::PaddingSet`] if a bit past
/// `len` is set.
pub fn mask_population(words: &[u64], len: usize) -> Result<usize, MaskWordsError> {
    let tail = len % WORD_BITS;
    if words.len() != len.div_ceil(WORD_BITS) {
        Err(MaskWordsError::WordCount)
    } else if tail != 0 && words.last().is_some_and(|w| w >> tail != 0) {
        Err(MaskWordsError::PaddingSet)
    } else {
        Ok(words.iter().map(|w| w.count_ones() as usize).sum())
    }
}

/// Bit `i` of `words` read as a [`UnitMask`]'s words.
///
/// # Panics
///
/// Panics if `i / 64` is not below `words.len()`.
pub fn mask_bit(words: &[u64], i: usize) -> bool {
    words[i / WORD_BITS] >> (i % WORD_BITS) & 1 != 0
}

/// The set bits of `words` read as a [`UnitMask`]'s words, ascending:
/// one `trailing_zeros` step per set bit, so a sparse mask costs its
/// population, not its length.
pub fn mask_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                wi * WORD_BITS + bit
            })
        })
    })
}

impl UnitMask {
    /// A mask of `len` units, all active.
    pub fn full(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(WORD_BITS)];
        if let Some(last) = words.last_mut() {
            *last >>= (WORD_BITS - len % WORD_BITS) % WORD_BITS;
        }
        UnitMask { words, len }
    }

    /// Reads the first ⌈len/8⌉ bytes of an LSB-first bitset (the words'
    /// little-endian bytes); bits past `len` in the last byte are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than ⌈len/8⌉.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Self {
        let mut words = vec![0u64; len.div_ceil(WORD_BITS)];
        for (i, &byte) in bytes[..len.div_ceil(8)].iter().enumerate() {
            words[i / 8] |= u64::from(byte) << (8 * (i % 8));
        }
        let tail = len % WORD_BITS;
        if let Some(last) = words.last_mut().filter(|_| tail != 0) {
            *last &= (1 << tail) - 1;
        }
        UnitMask { words, len }
    }

    /// Number of units.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether unit `i` is active (`false` past the end).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && mask_bit(&self.words, i)
    }

    /// Marks unit `i` active or inactive.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`UnitMask::len`].
    pub fn set(&mut self, i: usize, active: bool) {
        assert!(i < self.len, "unit {i} out of range for {} units", self.len);
        let bit = 1u64 << (i % WORD_BITS);
        if active {
            self.words[i / WORD_BITS] |= bit;
        } else {
            self.words[i / WORD_BITS] &= !bit;
        }
    }

    /// Number of active units.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every unit is active.
    pub fn is_full(&self) -> bool {
        self.count_ones() == self.len
    }

    /// The active units, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        mask_ones(&self.words)
    }

    /// The LSB-first words (padding bits zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// One unit per element of `values`, active where `active` holds for
    /// it (a ReLU's sign cache, for one).
    pub fn from_values(values: &[f32], active: impl Fn(f32) -> bool) -> Self {
        let words = values
            .chunks(WORD_BITS)
            .map(|chunk| {
                let mut word = 0;
                // A whole word's loop runs a compile-time 64 times, which
                // lets it vectorize.
                if let Ok(chunk) = <&[f32; WORD_BITS]>::try_from(chunk) {
                    for (j, &v) in chunk.iter().enumerate() {
                        word |= u64::from(active(v)) << j;
                    }
                } else {
                    for (j, &v) in chunk.iter().enumerate() {
                        word |= u64::from(active(v)) << j;
                    }
                }
                word
            })
            .collect();
        UnitMask {
            words,
            len: values.len(),
        }
    }

    /// Sets `values[i]` to `+0.0` for every inactive unit `i` and leaves
    /// the bits of every active one's unchanged, without a branch. Values
    /// past [`UnitMask::len`] are left as they are.
    pub fn zero_inactive(&self, values: &mut [f32]) {
        let keep = |v: &mut f32, word: u64, j: usize| {
            *v = f32::from_bits(v.to_bits() & 0u32.wrapping_sub((word >> j & 1) as u32));
        };
        let len = self.len.min(values.len());
        for (chunk, &word) in values[..len].chunks_mut(WORD_BITS).zip(&self.words) {
            if let Ok(chunk) = <&mut [f32; WORD_BITS]>::try_from(&mut *chunk) {
                for (j, v) in chunk.iter_mut().enumerate() {
                    keep(v, word, j);
                }
            } else {
                for (j, v) in chunk.iter_mut().enumerate() {
                    keep(v, word, j);
                }
            }
        }
    }
}

impl FromIterator<bool> for UnitMask {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut words = Vec::with_capacity(iter.size_hint().0.div_ceil(WORD_BITS));
        let mut len = 0;
        for active in iter {
            if len % WORD_BITS == 0 {
                words.push(0);
            }
            if active {
                if let Some(last) = words.last_mut() {
                    *last |= 1 << (len % WORD_BITS);
                }
            }
            len += 1;
        }
        UnitMask { words, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The codec's former bool packer: eight flags per byte, LSB-first.
    fn push_bitset(bits: &[bool]) -> Vec<u8> {
        bits.chunks(8)
            .map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0, |byte, (bit, &on)| byte | (u8::from(on) << bit))
            })
            .collect()
    }

    fn le_bytes(mask: &UnitMask) -> Vec<u8> {
        let mut bytes: Vec<u8> = mask.words().iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(mask.len().div_ceil(8));
        bytes
    }

    fn padding_is_zero(mask: &UnitMask) -> bool {
        mask_population(mask.words(), mask.len()) == Ok(mask.count_ones())
    }

    proptest! {
        /// Every length across each word boundary ±1: the words' bytes are
        /// the packed bitset, and every constructor leaves padding zero.
        #[test]
        fn word_bytes_are_the_wire_bitset(seed in 0u64..u64::MAX) {
            let mut rng = crate::TensorRng::seed_from(seed);
            for n in 0..=200 {
                let bits: Vec<bool> = (0..n).map(|_| rng.below(2) == 1).collect();
                let mask: UnitMask = bits.iter().copied().collect();
                prop_assert_eq!(le_bytes(&mask), push_bitset(&bits), "n = {}", n);
                prop_assert_eq!(mask.len(), n);
                prop_assert_eq!(mask.count_ones(), bits.iter().filter(|&&b| b).count());
                let ones: Vec<usize> = (0..n).filter(|&i| bits[i]).collect();
                prop_assert_eq!(mask.iter_ones().collect::<Vec<_>>(), ones);
                prop_assert!((0..n + 2).all(|i| mask.get(i) == bits.get(i).copied().unwrap_or(false)));
                prop_assert!(padding_is_zero(&mask));
                let full = UnitMask::full(n);
                prop_assert!(padding_is_zero(&full) && full.is_full() && full.count_ones() == n);
                let mut set = UnitMask::full(n);
                for (i, &b) in bits.iter().enumerate() {
                    set.set(i, b);
                }
                prop_assert_eq!(&set, &mask);
                // Set padding bits in the last byte are read and dropped.
                let mut bytes = le_bytes(&mask);
                if let Some(last) = bytes.last_mut().filter(|_| n % 8 != 0) {
                    *last |= 0xff << (n % 8);
                }
                let read = UnitMask::from_le_bytes(&bytes, n);
                prop_assert!(padding_is_zero(&read));
                prop_assert_eq!(&read, &mask);
            }
        }

        /// A mask read off values, and zeroing by it, agree element by
        /// element with the bool-per-value cache and branch they replace
        /// (a ReLU's), at every length across each word boundary.
        #[test]
        fn value_masks_match_a_bool_per_value(seed in 0u64..u64::MAX) {
            let mut rng = crate::TensorRng::seed_from(seed);
            let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.5, 2.5];
            for n in 0..=200 {
                let values: Vec<f32> = (0..n).map(|_| specials[rng.below(7)]).collect();
                let positive: Vec<bool> = values.iter().map(|&v| v > 0.0).collect();
                let mask = UnitMask::from_values(&values, |v| v > 0.0);
                prop_assert_eq!(&mask, &positive.iter().copied().collect::<UnitMask>());
                let mut want = values.clone();
                for (v, &p) in want.iter_mut().zip(&positive) {
                    if !p {
                        *v = 0.0;
                    }
                }
                let mut got = values.clone();
                mask.zero_inactive(&mut got);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want), "n = {}", n);
            }
        }
    }

    #[test]
    fn mask_population_rejects_a_wrong_word_count_or_a_set_padding_bit() {
        for n in [0, 1, 63, 64, 65, 127, 128, 129] {
            let words = UnitMask::full(n).words().to_vec();
            assert_eq!(mask_population(&words, n), Ok(n));
            let mut longer = words.clone();
            longer.push(0);
            assert_eq!(mask_population(&longer, n), Err(MaskWordsError::WordCount));
            if let Some((_, shorter)) = words.split_last() {
                assert_eq!(mask_population(shorter, n), Err(MaskWordsError::WordCount));
            }
            if n % 64 != 0 {
                let mut padded = words;
                *padded.last_mut().unwrap() |= 1 << (n % 64);
                assert_eq!(mask_population(&padded, n), Err(MaskWordsError::PaddingSet));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_past_the_end_panics() {
        UnitMask::full(3).set(3, true);
    }
}
