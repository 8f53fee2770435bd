//! Deterministic simulated networking for the Helios reproduction.
//!
//! Helios's premise is that heterogeneous edge devices fall behind the
//! collaboration cycle — and half of every federated round is
//! *communication*: shipping the global model down and the (possibly
//! soft-trained, hence smaller) update back up over constrained links.
//! This crate makes that half first-class:
//!
//! - [`codec`] — a compact binary wire format for model exchanges
//!   (little-endian `f32` payload, shape header, CRC32 trailer),
//!   roundtrip-exact for every bit pattern, with a [`WireSize`] report
//!   showing that a straggler's masked upload is genuinely smaller.
//!   Wire v2 adds negotiated top-k upload sparsification behind the
//!   frame-version byte ([`CompressionMode`]), configured through
//!   [`CompressionConfig`];
//! - [`LinkProfile`] / [`FaultConfig`] / [`NetConfig`] — `Copy`,
//!   serde-defaulted knobs describing per-device bandwidth/latency/
//!   jitter and injected faults (drop, corrupt-detected-by-CRC, delay);
//! - [`SimTransport`] — the transport itself: per-device ChaCha RNG
//!   streams forked from the run seed, retry-with-backoff, and
//!   aggregate statistics ([`TransportStats`]); per-device outcomes go
//!   to the trace (`helios_obs`);
//! - [`simulate_round`] — one synchronous round (download → compute →
//!   upload per participant) driven by `helios_device`'s deterministic
//!   [`EventQueue`](helios_device::EventQueue), with a per-round
//!   deadline that degrades late participants to "missed the cycle".
//!
//! # Determinism contract
//!
//! Same seed + same link/fault configuration ⇒ same byte streams, same
//! fault draws, and same simulated round times, at every thread width
//! (the transport runs in the serial prologue/epilogue of a round, never
//! inside the parallel training fan-out). With the default ideal link
//! and quiet faults the transport adds exactly zero simulated time and
//! delivers byte-identical frames, so routed runs are bitwise identical
//! to the direct in-memory path.
//!
//! # Example
//!
//! ```
//! use helios_net::{codec, LinkProfile, NetConfig, SimTransport};
//! use helios_obs::Dir;
//!
//! let cfg = NetConfig { enabled: true, ..NetConfig::default() };
//! let mut transport = SimTransport::new(1, &cfg, 42).unwrap();
//! let frame = codec::encode_full(0, 0, &[1.0, -2.5, 3.25]).unwrap();
//! let tx = transport.transmit(0, &frame, Dir::Up).unwrap();
//! // A delivered frame is the sender's own bytes; the receiver decodes them.
//! assert!(tx.delivered);
//! assert_eq!(transport.stats().delivered_bytes, frame.len() as u64);
//! let decoded = codec::decode(&frame).unwrap();
//! assert_eq!(decoded.into_params(&[0.0; 3]).unwrap(), vec![1.0, -2.5, 3.25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The PR 3 typed-error migration removed every panicking shortcut from
// non-test code; this keeps them out. Tests may still unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
mod error;
mod link;
mod round;
pub mod transport;

pub use codec::{CompressionMode, Frame, Payload, WireSize};
pub use error::NetError;
pub use link::{CompressionConfig, FaultConfig, LinkProfile, NetConfig};
pub use round::{simulate_round, RoundJob, RoundOutcome};
pub use transport::{SimTransport, TransportStats};
