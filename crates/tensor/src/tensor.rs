//! The dense row-major `f32` tensor.

use crate::{Result, Shape, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, contiguously stored `f32` tensor.
///
/// `Tensor` is the single array type used throughout the Helios workspace:
/// model parameters, activations, gradients, and dataset samples are all
/// `Tensor`s. Storage is always contiguous, so the flat parameter-vector
/// view federated aggregation needs is just [`Tensor::as_slice`].
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use helios_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let t = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[2, 3])?;
/// assert_eq!(t.get(&[1, 2])?, 5.0);
/// assert_eq!(t.sum(), 15.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] when `data.len()` differs from
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(TensorError::SizeMismatch {
                elements: data.len(),
                expected: shape.num_elements(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor shape.
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the flat row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        self.shape
            .flat_index(index)
            .map(|i| self.data[i])
            .ok_or_else(|| TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.dims().to_vec(),
            })
    }

    /// The same data under a new shape, in the same buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] when the element counts differ.
    pub fn reshape(self, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.num_elements() != self.data.len() {
            return Err(TensorError::SizeMismatch {
                elements: self.data.len(),
                expected: shape.num_elements(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Applies `f` to every element in place.
    pub(crate) fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub(crate) fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a - b)
    }

    /// In-place `self += alpha * other` (the BLAS `axpy` primitive).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(|x| x * s);
    }

    /// Fills the tensor with zeros.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::full(&[4], 1.0);
        assert_eq!(o.sum(), 4.0);
    }

    #[test]
    fn from_vec_validates_size() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.as_mut_slice()[5] = 7.5;
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
        assert!(t.get(&[3, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let r = t.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-2.0, -2.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full(&[3], 1.0);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn norms_and_reductions() {
        let t = Tensor::from_vec(vec![3.0, -4.0], &[2]).unwrap();
        assert_eq!(t.mean(), -0.5);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(i.get(&[0, 1]).unwrap(), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn display_previews_elements() {
        let t = Tensor::zeros(&[16]);
        let s = t.to_string();
        assert!(s.contains("…"));
        assert!(s.starts_with("Tensor[16]"));
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::from_vec(vec![2.5], &[]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.shape().rank(), 0);
        assert_eq!(s.sum(), 2.5);
    }
}
