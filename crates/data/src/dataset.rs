//! Labelled image dataset and mini-batch iteration.

use crate::{DataError, Result};
use helios_tensor::{Tensor, TensorRng};

/// A labelled image dataset stored as one `[N, C, H, W]` tensor.
///
/// Datasets are immutable after construction; federated clients receive
/// [`Dataset::subset`] views copied out by index.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use helios_data::SyntheticVision;
/// use helios_tensor::TensorRng;
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let (ds, _) = SyntheticVision::mnist_like().generate(40, 0, &mut TensorRng::seed_from(0))?;
/// let shard = ds.subset(&[0, 1, 2, 3])?;
/// assert_eq!(shard.len(), 4);
/// assert_eq!(shard.class_counts().iter().sum::<usize>(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from an image tensor and parallel labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LengthMismatch`] when counts disagree and
    /// [`DataError::LabelOutOfRange`] for an invalid label.
    pub(crate) fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Result<Self> {
        let n = images.dims().first().copied().unwrap_or(0);
        if n != labels.len() {
            return Err(DataError::LengthMismatch {
                images: n,
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::LabelOutOfRange {
                label: bad,
                classes: num_classes,
            });
        }
        Ok(Dataset {
            images,
            labels,
            num_classes,
        })
    }

    /// Number of samples.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The full image tensor, `[N, C, H, W]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-sample dimensions (`[C, H, W]`).
    pub(crate) fn sample_dims(&self) -> Vec<usize> {
        self.images.dims()[1..].to_vec()
    }

    /// Number of samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Copies out the samples at `indices`, in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] for an invalid index.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        let sample_len: usize = self.sample_dims().iter().product();
        let src = self.images.as_slice();
        let mut data = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(DataError::IndexOutOfRange {
                    index: i,
                    len: self.len(),
                });
            }
            data.extend_from_slice(&src[i * sample_len..(i + 1) * sample_len]);
            labels.push(self.labels[i]);
        }
        let mut dims = vec![indices.len()];
        dims.extend(self.sample_dims());
        Ok(Dataset {
            images: Tensor::from_vec(data, &dims)?,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Returns a copy with every label rotated `by` class positions
    /// (modulo the class count) — the scenario engine's abrupt concept
    /// drift. Rotation is exact and composable: rotating by `a` then `b`
    /// equals rotating by `a + b`.
    pub fn rotate_labels(&self, by: usize) -> Dataset {
        if self.num_classes == 0 {
            return self.clone();
        }
        let labels = self
            .labels
            .iter()
            .map(|&l| (l + by) % self.num_classes)
            .collect();
        Dataset {
            images: self.images.clone(),
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Returns a copy with `offset` added to every input value — the
    /// scenario engine's gradual covariate shift. Note f32 addition is
    /// not associative: callers composing several shifts must apply them
    /// one at a time, in timeline order, to stay bit-reproducible.
    ///
    /// # Errors
    ///
    /// Returns a tensor construction error (impossible for a finite
    /// offset — the geometry is unchanged).
    pub fn shift_inputs(&self, offset: f32) -> Result<Dataset> {
        let data: Vec<f32> = self.images.as_slice().iter().map(|&v| v + offset).collect();
        Ok(Dataset {
            images: Tensor::from_vec(data, self.images.dims())?,
            labels: self.labels.clone(),
            num_classes: self.num_classes,
        })
    }

    /// Iterates the dataset in fixed order as mini-batches of at most
    /// `batch_size` samples (the final batch may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches(&self, batch_size: usize) -> Batches<'_> {
        assert!(batch_size > 0, "batch size must be nonzero");
        Batches {
            dataset: self,
            order: (0..self.len()).collect(),
            batch_size,
            cursor: 0,
        }
    }

    /// Iterates the dataset as mini-batches in a seeded random order.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn shuffled_batches(&self, batch_size: usize, rng: &mut TensorRng) -> Batches<'_> {
        assert!(batch_size > 0, "batch size must be nonzero");
        let mut order: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut order);
        Batches {
            dataset: self,
            order,
            batch_size,
            cursor: 0,
        }
    }
}

/// Iterator of `(images, labels)` mini-batches produced by
/// [`Dataset::batches`] / [`Dataset::shuffled_batches`].
#[derive(Debug)]
pub struct Batches<'a> {
    dataset: &'a Dataset,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl Iterator for Batches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let idx = &self.order[self.cursor..end];
        self.cursor = end;
        // `order` holds indices in 0..len, so each row copy is in range.
        let dataset = self.dataset;
        let mut dims = dataset.images.dims().to_vec();
        dims[0] = idx.len();
        let mut images = Tensor::zeros(&dims);
        let sample_len: usize = dims[1..].iter().product();
        let (src, dst) = (dataset.images.as_slice(), images.as_mut_slice());
        for (k, &i) in idx.iter().enumerate() {
            dst[k * sample_len..(k + 1) * sample_len]
                .copy_from_slice(&src[i * sample_len..(i + 1) * sample_len]);
        }
        let labels = idx.iter().map(|&i| dataset.labels[i]).collect();
        Some((images, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_sample_dataset() -> Dataset {
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        Dataset::new(
            Tensor::from_vec(data, &[4, 1, 2, 2]).unwrap(),
            vec![0, 1, 2, 0],
            3,
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let images = Tensor::zeros(&[3, 1, 2, 2]);
        assert!(matches!(
            Dataset::new(images.clone(), vec![0, 1], 2),
            Err(DataError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(images, vec![0, 1, 5], 2),
            Err(DataError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn subset_copies_in_order() {
        let ds = four_sample_dataset();
        let sub = ds.subset(&[2, 0]).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels(), &[2, 0]);
        // Sample 2 occupies flat range 8..12.
        assert_eq!(&sub.images().as_slice()[0..4], &[8.0, 9.0, 10.0, 11.0]);
        assert!(ds.subset(&[9]).is_err());
    }

    #[test]
    fn batches_cover_everything_once() {
        let ds = four_sample_dataset();
        let collected: Vec<_> = ds.batches(3).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].1.len(), 3);
        assert_eq!(collected[1].1.len(), 1, "final partial batch");
        let total: usize = collected.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn shuffled_batches_are_a_permutation_and_seeded() {
        let ds = four_sample_dataset();
        let mut rng1 = TensorRng::seed_from(5);
        let mut rng2 = TensorRng::seed_from(5);
        let a: Vec<usize> = ds
            .shuffled_batches(2, &mut rng1)
            .flat_map(|(_, l)| l)
            .collect();
        let b: Vec<usize> = ds
            .shuffled_batches(2, &mut rng2)
            .flat_map(|(_, l)| l)
            .collect();
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 0, 1, 2], "labels are a permutation");
    }

    #[test]
    fn class_counts_tally_labels() {
        let ds = four_sample_dataset();
        assert_eq!(ds.class_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn rotate_labels_wraps_and_composes() {
        let ds = four_sample_dataset();
        let r = ds.rotate_labels(2);
        assert_eq!(r.labels(), &[2, 0, 1, 2]);
        assert_eq!(r.images().as_slice(), ds.images().as_slice());
        // Composition equals a single combined rotation.
        let twice = ds.rotate_labels(1).rotate_labels(1);
        assert_eq!(twice.labels(), r.labels());
        // A full-cycle rotation is the identity.
        assert_eq!(ds.rotate_labels(3).labels(), ds.labels());
    }

    #[test]
    fn shift_inputs_offsets_every_pixel() {
        let ds = four_sample_dataset();
        let s = ds.shift_inputs(0.5).unwrap();
        for (a, b) in ds.images().as_slice().iter().zip(s.images().as_slice()) {
            assert_eq!(*b, *a + 0.5);
        }
        assert_eq!(s.labels(), ds.labels());
        assert_eq!(s.num_classes(), ds.num_classes());
    }

    #[test]
    fn empty_dataset_is_ok() {
        let ds = Dataset::new(Tensor::zeros(&[0, 1, 2, 2]), vec![], 3).unwrap();
        assert!(ds.labels().is_empty());
        assert_eq!(ds.batches(4).count(), 0);
    }
}
