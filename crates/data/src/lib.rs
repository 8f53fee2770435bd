//! Synthetic vision datasets and federated data partitioners for the
//! Helios reproduction.
//!
//! The paper trains LeNet/AlexNet/ResNet-18 on MNIST/CIFAR-10/CIFAR-100.
//! Those datasets are not available offline, so this crate generates
//! **synthetic class-conditional image datasets** with matching class
//! counts and graded difficulty (see `DESIGN.md` §5): each class gets a
//! smooth random prototype image and samples are noisy draws around it.
//! What the Helios experiments measure — the *relative* convergence of FL
//! strategies — only needs separable-but-noisy multi-class data, which
//! these generators provide under full experimental control.
//!
//! The crate also implements the federated data splits:
//!
//! - [`partition::iid`] — uniform random shards;
//! - [`partition::label_shards`] — the sort-by-label shard method of
//!   Zhao et al., the Non-IID construction the paper cites in §VII.D;
//! - [`partition::dirichlet`] — Dirichlet(α) label skew, the other
//!   standard Non-IID benchmark, used for ablations.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use helios_data::{partition, SyntheticVision};
//! use helios_tensor::TensorRng;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut rng = TensorRng::seed_from(7);
//! let spec = SyntheticVision::mnist_like();
//! let (train, test) = spec.generate(400, 100, &mut rng)?;
//! assert_eq!(train.num_classes(), 10);
//! let shards = partition::iid(train.len(), 4, &mut rng);
//! let client0 = train.subset(&shards[0])?;
//! assert_eq!(client0.len(), 100);
//! # let _ = test;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
pub mod partition;
mod synthetic;

pub use dataset::{Batches, Dataset};
pub use error::DataError;
pub use synthetic::{ShardSynthesizer, SyntheticVision};

/// Crate-wide result alias carrying a [`DataError`].
pub(crate) type Result<T> = std::result::Result<T, DataError>;
