//! Neural-network layers, explicit backpropagation, and neuron-level
//! masking for the Helios federated-learning reproduction.
//!
//! The crate provides everything a simulated edge device needs to train a
//! CNN locally:
//!
//! - a layer zoo ([`Dense`], [`Conv2d`], [`Relu`], [`MaxPool2d`],
//!   [`AvgPool2d`], [`Flatten`], [`Residual`]) composed into a [`Network`];
//! - explicit forward/backward passes (no autodiff tape — each layer caches
//!   what its backward pass needs);
//! - **neuron masking**: every parameterized layer treats its output units
//!   (dense neurons / conv channels) as the paper's "minimum model parameter
//!   structure" (§V.A) and can exclude any subset from a training cycle,
//!   which is the mechanism behind Helios soft-training;
//! - a flat parameter-vector view with a per-neuron index
//!   ([`NeuronLayout`]) so federated aggregation can operate at neuron
//!   granularity;
//! - an analytic per-layer cost profile ([`LayerCost`], [`NetworkCost`])
//!   feeding the `helios-device` time model;
//! - the scaled model zoo used by every experiment:
//!   [`models::lenet`], [`models::alexnet`], [`models::resnet18`].
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use helios_nn::{models, CrossEntropyLoss, Sgd};
//! use helios_tensor::{Tensor, TensorRng};
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut rng = TensorRng::seed_from(0);
//! let mut net = models::lenet(10, &mut rng);
//! let x = Tensor::zeros(&[4, 1, 16, 16]); // batch of 4 blank images
//! let logits = net.forward(&x)?;
//! assert_eq!(logits.dims(), &[4, 10]);
//! let loss = CrossEntropyLoss::new();
//! let (value, grad) = loss.forward_backward(&logits, &[0, 1, 2, 3])?;
//! net.backward(&grad)?;
//! Sgd::new(0.1).step(&mut net)?;
//! assert!(value.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod error;
mod layer;
mod layers;
mod loss;
pub mod models;
mod network;
mod optim;
pub mod profiler;

pub use cost::{LayerCost, NetworkCost};
pub use error::NnError;
pub use layer::Layer;
pub use layers::{AvgPool2d, Conv2d, Dense, Flatten, MaxPool2d, Relu, Residual};
pub use loss::CrossEntropyLoss;
pub use network::{MaskableUnits, ModelMask, Network, NeuronId, NeuronLayout, ParamGroup};
pub use optim::Sgd;
pub use profiler::{nn_timings, NnTimings};

#[doc(no_inline)]
pub use helios_tensor::{ParallelismConfig, ParallelismGuard};

/// Crate-wide result alias carrying an [`NnError`].
pub(crate) type Result<T> = std::result::Result<T, NnError>;
