//! **Helios** — heterogeneity-aware federated learning with dynamically
//! balanced collaboration (reproduction of Xu, Yu, Xiong & Chen, DAC 2021).
//!
//! Helios removes the FL *straggler* problem without discarding straggler
//! information. Its pipeline (the paper's Fig 3):
//!
//! 1. **Straggler identification** ([`identify`]) — *resource-based
//!    profiling* (white box: evaluate the analytic cost model on each
//!    device's resource profile), the one [`HeliosStrategy`] runs; the
//!    paper's *time-based approximation* (black box: rank devices by a
//!    lightweight test-bench timing) is kept as a diagnostic that agrees
//!    with it.
//! 2. **Optimization-target determination** ([`target`]) — compute each
//!    straggler's *expected model volume*: the neuron keep-ratio that lets
//!    it finish a training cycle at the capable devices' pace (and within
//!    its memory budget), chosen from predefined levels or fitted by
//!    search against the cost model.
//! 3. **Soft-training** ([`softtrain`]) — each cycle the straggler trains
//!    only `P_i·n_i` neurons per layer: the top `P_s` fraction by
//!    *collaboration contribution* `U^{ij} = |θ(S_k) − θ(S_{k−1})|` (Eq 1)
//!    plus a rotating random remainder (Eq 2), so every neuron keeps
//!    contributing to the global model and no structure is permanently
//!    pruned.
//! 4. **Optimizations** — the skip-cycle regulator (§VI.A) that forces
//!    long-skipped neurons back into training before their selection
//!    probability decays toward zero (its counters are settled once the
//!    round *outcome* is known — a delivered update resets its active
//!    units, a missed cycle increments every counter, so lossy links
//!    cannot starve the regulator), heterogeneity-weighted aggregation
//!    `α_n = r_n / Σ r_n` (Eq 10, [`aggregation`]), and the dynamic-join
//!    scalability manager (§VI.C).
//!
//! Everything is packaged as [`HeliosStrategy`], a drop-in
//! [`helios_fl::Strategy`] that runs against the same environment as the
//! paper's baselines. [`analysis`] provides numeric checks of the §V.B
//! convergence conditions (Prop 2).
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use helios_core::{HeliosConfig, HeliosStrategy};
//! use helios_data::{partition, SyntheticVision};
//! use helios_device::presets;
//! use helios_fl::{FlConfig, FlEnv, Strategy};
//! use helios_nn::models::ModelKind;
//! use helios_tensor::TensorRng;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut rng = TensorRng::seed_from(0);
//! let (train, test) = SyntheticVision::mnist_like().generate(80, 40, &mut rng)?;
//! let shards = partition::iid(train.len(), 2, &mut rng)
//!     .into_iter()
//!     .map(|idx| train.subset(&idx))
//!     .collect::<Result<Vec<_>, _>>()?;
//! let mut env = FlEnv::new(
//!     ModelKind::LeNet,
//!     presets::mixed_fleet(1, 1),
//!     shards,
//!     test,
//!     FlConfig::default(),
//! )?;
//! let mut helios = HeliosStrategy::new(HeliosConfig::default());
//! let metrics = helios.run(&mut env, 2)?;
//! assert_eq!(metrics.records().len(), 2);
//! assert_eq!(helios.stragglers(), &[1]); // the slow device was found
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No panicking shortcut in non-test code; tests may still unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregation;
pub mod analysis;
mod error;
pub mod identify;
pub mod softtrain;
mod strategy;
pub mod target;

pub use error::HeliosError;
pub use strategy::{AggregationMode, HeliosConfig, HeliosStrategy, VolumePolicy};

/// Crate-wide result alias carrying a [`HeliosError`].
pub(crate) type Result<T> = std::result::Result<T, HeliosError>;
