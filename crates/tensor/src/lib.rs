//! Dense `f32` tensor operations for the Helios federated-learning
//! reproduction.
//!
//! This crate is the lowest substrate of the workspace: a small,
//! dependency-light tensor library providing exactly the operations the
//! neural-network layer zoo in `helios-nn` needs — shaped dense storage,
//! matrix multiplication, 2-D convolution via `im2col`, max pooling,
//! elementwise arithmetic, reductions, and seeded random initialization.
//!
//! It deliberately supports only `f32` and row-major contiguous storage:
//! the Helios experiments never need views, strides, or mixed dtypes, and
//! keeping the representation flat makes the federated parameter-vector
//! plumbing (`as_slice` / `from_vec`) trivial and copy-free.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use helios_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
mod gemm;
mod init;
mod instrument;
mod mask;
mod ops;
mod packed;
mod parallel;
mod shape;
mod tensor;
mod workspace;

pub use conv::{
    avg_pool2d, avg_pool2d_backward, conv2d, conv2d_backward, conv2d_backward_packed,
    conv2d_backward_with_patches, conv2d_with_patches, max_pool2d, max_pool2d_backward,
    max_pool2d_values, Conv2dGrads, ConvPatches, ConvSpec, PoolIndices, PoolSpec,
};
pub use error::TensorError;
pub use gemm::{naive_matmul, KC, MR};
pub use init::{he_normal, uniform_init, xavier_uniform, TensorRng};
pub use instrument::{kernel_counters, KernelCounters};
pub use mask::{mask_bit, mask_ones, mask_population, MaskWordsError, UnitMask};
pub use packed::{
    gather_channels, gather_elems, gather_rows_cols, scatter_add_elems, scatter_add_rows_cols,
    scatter_channels, scatter_cols,
};
pub use parallel::{map_indexed, map_items_mut, ParallelismConfig, ParallelismGuard};
use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{reset_workspace_stats, workspace_stats, WorkspaceStats};

/// Crate-wide result alias carrying a [`TensorError`].
pub(crate) type Result<T> = std::result::Result<T, TensorError>;
