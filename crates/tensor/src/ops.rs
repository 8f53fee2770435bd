//! Linear-algebra and reduction operations on [`Tensor`].

use crate::gemm::{gemm_into, Layout};
use crate::{Result, Tensor, TensorError};

fn check_rank2(op: &'static str, t: &Tensor) -> Result<()> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok(())
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Runs on the blocked, cache-aware kernel in `crate::gemm`: packed
    /// operand panels, a register microkernel, and row-parallel workers.
    /// Results are bitwise identical to [`crate::naive_matmul`] at every
    /// thread width — accumulation stays in strictly ascending-`k` order
    /// with the `a_ik == 0.0` skip — see the module docs for why that
    /// invariant is load-bearing.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when either operand is not
    /// rank 2 and [`TensorError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        check_rank2("matmul", self)?;
        check_rank2("matmul", other)?;
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm_into(
            &mut out,
            m,
            k,
            n,
            self.as_slice(),
            Layout::Normal,
            other.as_slice(),
            Layout::Normal,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Transposed-A matrix product: `selfᵀ × other` for `self` of shape
    /// `[k, m]` and `other` of shape `[k, n]`, producing `[m, n]`.
    ///
    /// Bitwise identical to `self.transpose()?.matmul(other)` — the GEMM
    /// packs `self` with swapped indices instead of materializing the
    /// transposed copy, so backward passes (`dW = xᵀ·g`) stay off the
    /// allocator. Work is recorded exactly as the two-step form did
    /// (`transpose` records nothing).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] when the shared `k` axes disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        check_rank2("matmul_tn", self)?;
        check_rank2("matmul_tn", other)?;
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm_into(
            &mut out,
            m,
            k,
            n,
            self.as_slice(),
            Layout::Transposed,
            other.as_slice(),
            Layout::Normal,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Transposed-B matrix product: `self × otherᵀ` for `self` of shape
    /// `[m, k]` and `other` of shape `[n, k]`, producing `[m, n]`.
    ///
    /// Bitwise identical to `self.matmul(&other.transpose()?)` without
    /// materializing the transposed copy; used by `grad_input = g·Wᵀ`
    /// and the conv forward's `cols × Wᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] when the shared `k` axes disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        check_rank2("matmul_nt", self)?;
        check_rank2("matmul_nt", other)?;
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm_into(
            &mut out,
            m,
            k,
            n,
            self.as_slice(),
            Layout::Normal,
            other.as_slice(),
            Layout::Transposed,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Adds a `[n]` bias vector to every row of a `[m, n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// when the operands are not a matrix and a matching vector.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "add_row_broadcast",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        if bias.shape().rank() != 1 || bias.dims()[0] != self.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.dims().to_vec(),
                rhs: bias.dims().to_vec(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.as_slice();
        let b = bias.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = a[i * n + j] + b[j];
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Sums a `[m, n]` matrix along rows, producing `[n]` column totals.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn sum_rows(&self) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_rows",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.as_slice();
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                out[j] += a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Index of the maximum element in each row of a `[m, n]` matrix.
    ///
    /// Ties resolve to the lowest index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.as_slice();
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &a[i * n..(i + 1) * n];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Row-wise numerically stable softmax of a `[m, n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "softmax_rows",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &a[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for j in 0..n {
                let e = (row[j] - max).exp();
                out[i * n + j] = e;
                denom += e;
            }
            for j in 0..n {
                out[i * n + j] /= denom;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_small_known_values() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.get(&[2, 1]).unwrap(), 6.0);
        assert_eq!(at.transpose().unwrap(), a);
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let a = Tensor::zeros(&[2, 3]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        let c = a.add_row_broadcast(&b).unwrap();
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(a.add_row_broadcast(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn sum_rows_produces_column_totals() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let s = a.sum_rows().unwrap();
        assert_eq!(s.as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn argmax_rows_resolves_ties_low() {
        let a = t(&[1.0, 3.0, 3.0, 0.0, -1.0, -2.0], &[2, 3]);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let a = t(&[1000.0, 1001.0, 999.0, 0.0, 0.0, 0.0], &[2, 3]);
        let s = a.softmax_rows().unwrap();
        for i in 0..2 {
            let row_sum: f32 = (0..3).map(|j| s.get(&[i, j]).unwrap()).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
        // Uniform logits produce uniform probabilities.
        assert!((s.get(&[1, 0]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }
}
