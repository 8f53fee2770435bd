//! Tensor shape: an ordered list of dimension extents.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a tensor: an ordered list of dimension extents.
///
/// A `Shape` is cheap to clone and compare; it owns a small `Vec<usize>`.
/// Rank-0 (scalar) shapes are permitted and have `num_elements() == 1`.
///
/// # Example
///
/// A tensor's shape is read through [`Tensor::dims`](crate::Tensor::dims):
///
/// ```
/// use helios_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3, 4]);
/// assert_eq!(t.dims(), &[2, 3, 4]);
/// assert_eq!(t.len(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub(crate) fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Number of dimensions.
    pub(crate) fn rank(&self) -> usize {
        self.dims.len()
    }

    /// All dimension extents as a slice.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of the extents; 1 for scalars).
    pub(crate) fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides for this shape.
    ///
    /// The stride of the last axis is 1; each preceding axis strides by the
    /// product of all later extents.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset, or
    /// `None` when any coordinate is out of bounds or the rank differs.
    pub(crate) fn flat_index(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.dims.len() {
            return None;
        }
        let mut offset = 0;
        let strides = self.strides();
        for ((&i, &d), &s) in index.iter().zip(&self.dims).zip(&strides) {
            if i >= d {
                return None;
            }
            offset += i * s;
        }
        Some(offset)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn flat_index_round_trip() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.flat_index(&[0, 0]), Some(0));
        assert_eq!(s.flat_index(&[1, 2]), Some(5));
        assert_eq!(s.flat_index(&[2, 0]), None);
        assert_eq!(s.flat_index(&[0]), None);
    }

    #[test]
    fn display_lists_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }

    #[test]
    fn zero_extent_dimension_yields_zero_elements() {
        assert_eq!(Shape::new(&[4, 0, 2]).num_elements(), 0);
    }
}
