//! Federated-learning orchestration engine and baseline strategies for
//! the Helios reproduction.
//!
//! This crate provides the simulation substrate every experiment runs on:
//!
//! - [`Client`] — a simulated edge device owning a model replica, a local
//!   data shard, an optimizer, and a [`ResourceProfile`]; its training
//!   cycle time comes from the paper's analytic cost model, honouring any
//!   neuron masks currently installed (a masked sub-model is cheaper and
//!   therefore faster);
//! - [`FlEnv`] — the shared experimental setup (clients, test set, global
//!   parameter vector, simulated clock);
//! - [`OnlineAggregator`] — streaming masked weighted parameter
//!   averaging, the primitive under every aggregation rule in the paper;
//! - [`RoundDriver`] — the unified round-lifecycle engine: one canonical
//!   phase sequence (selection → broadcast → local training → transport
//!   routing → aggregation → evaluation → metrics recording) shared by
//!   every strategy, with per-phase instrumentation recorded into each
//!   cycle's [`PhaseBreakdown`];
//! - the four baseline strategies of §VII.A, each a slim [`RoundPolicy`]
//!   over the driver: [`SyncFedAvg`] (Syn. FL), [`AsyncFl`] (Asyn. FL),
//!   [`Afo`] (asynchronous federated optimization with staleness-decayed
//!   mixing), and [`RandomPartial`] (random sub-model selection per
//!   Caldas et al.);
//! - [`RunMetrics`] — accuracy-vs-cycle and accuracy-vs-simulated-time
//!   curves plus the derived quantities the paper reports (cycles to
//!   target accuracy, wall-clock speedup), now with a per-phase,
//!   per-cycle breakdown and a host-side [`RunProfile`].
//!
//! The Helios strategy itself lives in the `helios-core` crate and plugs
//! into the same [`RoundPolicy`]/[`Strategy`] interface.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use helios_data::{partition, SyntheticVision};
//! use helios_device::presets;
//! use helios_fl::{FlConfig, FlEnv, Strategy, SyncFedAvg};
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
//! let env = FlEnv::new(
//!     ModelKind::LeNet,
//!     presets::mixed_fleet(1, 1),
//!     shards,
//!     test,
//!     FlConfig::default(),
//! )?;
//! let mut env = env;
//! let metrics = SyncFedAvg::new().run(&mut env, 2)?;
//! assert_eq!(metrics.records().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The PR 3 typed-error migration removed every panicking shortcut from
// non-test code; this keeps them out. Tests may still unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod asynchronous;
mod client;
mod config;
mod driver;
mod env;
mod error;
pub mod fleet;
mod metrics;
mod population;
mod random_partial;
mod route;
pub mod sampler;
mod scenario_rt;
mod server;
mod strategy;
mod sync;

pub use asynchronous::{Afo, AsyncFl};
pub use client::{Client, LocalUpdate, GRAD_CLIP_NORM};
pub use config::FlConfig;
pub use driver::{RoundDriver, RoundPolicy};
pub use env::FlEnv;
pub use error::FlError;
pub use fleet::{AvailabilityModel, FleetSpec};
pub use metrics::{PhaseBreakdown, RoundRecord, RunMetrics, RunProfile};
pub use random_partial::RandomPartial;
pub use route::RoutedCycle;
pub use sampler::{ClientSampler, SamplerConfig};
pub use server::{cycle_comm_bytes_with, MaskedUpdate, OnlineAggregator};
pub use strategy::Strategy;
pub use sync::SyncFedAvg;

#[doc(no_inline)]
pub use helios_device::ResourceProfile;
#[doc(no_inline)]
pub use helios_net::{
    CompressionConfig, CompressionMode, FaultConfig, LinkProfile, NetConfig, WireSize,
};
#[doc(no_inline)]
pub use helios_scenario::{
    ChurnAction, ChurnEvent, DriftEvent, DriftKind, ScenarioConfig, ThrottleRule,
};
#[doc(no_inline)]
pub use helios_tensor::ParallelismConfig;

/// Crate-wide result alias carrying an [`FlError`].
pub type Result<T> = std::result::Result<T, FlError>;
