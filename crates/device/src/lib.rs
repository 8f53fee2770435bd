//! Edge-device resource models and simulated time for the Helios
//! reproduction.
//!
//! The paper simulates heterogeneous stragglers by throttling Jetson Nano
//! boards and profiles their training time with an analytic model
//! (§IV.B):
//!
//! ```text
//! Te = W / C_cpu  +  M / V_mc  +  U / B_n
//! ```
//!
//! where `W` is the training computation workload, `M` the memory traffic,
//! `U` the bytes exchanged with the aggregation server, and `C_cpu`,
//! `V_mc`, `B_n` the device's compute bandwidth, memory-transfer speed,
//! and network bandwidth. This crate implements exactly that model:
//!
//! - [`ResourceProfile`] — a device's bandwidths and memory capacity, with
//!   presets for the four straggler configurations of Table I (Jetson Nano
//!   CPU, Raspberry Pi, DeepLens GPU, DeepLens CPU) plus the capable
//!   full-power Jetson Nano;
//! - [`TrainingWorkload`] — the `(W, M, U)` triple, produced upstream by
//!   `helios-nn`'s analytic cost walker;
//! - [`CostModel`] — evaluates `Te` and related quantities;
//! - [`SimTime`] / [`SimClock`] — deterministic simulated wall-clock used
//!   by the federated engine, so reported speedups are exact ratios of
//!   modeled times rather than noisy host measurements.
//!
//! # Example
//!
//! ```
//! use helios_device::{presets, CostModel, TrainingWorkload};
//!
//! let nano = presets::jetson_nano();
//! let work = TrainingWorkload::new(1.0e12, 2.0e9, 1.0e7);
//! let te = CostModel::time_for(&nano, &work);
//! assert!(te.as_secs_f64() > 0.0);
//! // A weaker device takes longer on the same workload.
//! let dl = presets::deeplens_cpu();
//! assert!(CostModel::time_for(&dl, &work) > te);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cost;
mod events;
pub mod fleet;
pub mod presets;
mod profile;

pub use clock::{SimClock, SimTime};
pub use cost::{CostModel, TrainingWorkload};
pub use events::EventQueue;
pub use fleet::ProfileSynthesizer;
pub use profile::ResourceProfile;
