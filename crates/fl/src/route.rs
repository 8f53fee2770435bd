//! The simulated-network side of a cycle: link planning estimates and
//! routing one round's exchange through the transport.

use crate::{FlEnv, FlError, LocalUpdate, Result};
use helios_device::SimTime;
use helios_net::{codec, simulate_round, LinkProfile, RoundJob, SimTransport};
use helios_tensor::{map_indexed, map_items_mut};

/// The result of routing one cycle's updates through the simulated
/// transport (see [`FlEnv::route_updates`]).
#[derive(Debug, Clone)]
pub struct RoutedCycle {
    /// The delivered updates, in client order, with parameters decoded
    /// from their wire frames. Participants that missed the cycle are
    /// absent.
    pub updates: Vec<LocalUpdate>,
    /// The round's simulated span: `max(compute + comm)` over delivered
    /// participants, extended to the deadline when someone missed it.
    pub cycle_time: SimTime,
    /// Client ids that missed the cycle (retry exhaustion or deadline).
    pub missed: Vec<usize>,
}

impl FlEnv {
    /// The simulated transport, when `config.net.enabled`.
    pub fn transport(&self) -> Option<&SimTransport> {
        self.transport.as_ref()
    }

    /// Overrides one client's link profile (requires networking to be
    /// enabled). Use this to give stragglers the paper's constrained
    /// uplinks while capable devices keep fast ones.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index or
    /// [`FlError::InvalidRunConfig`] when networking is disabled or the
    /// profile is invalid.
    pub fn set_link(&mut self, client: usize, link: LinkProfile) -> Result<()> {
        self.store.check_enrolled(client)?;
        match &mut self.transport {
            Some(t) => Ok(t.set_link(client, link)?),
            None => Err(FlError::InvalidRunConfig {
                what: "cannot set a link profile while config.net is disabled".into(),
            }),
        }
    }

    /// Expected communication time for one cycle of client `i` under its
    /// link profile: downloading the full global model plus uploading
    /// the update at its current wire size (masked layout when a
    /// soft-training mask is installed). Deterministic — jitter and
    /// faults are excluded — so Helios can feed it into straggler
    /// identification and deadline fitting. Zero when networking is
    /// disabled or the link is ideal.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index.
    pub fn comm_overhead(&self, i: usize) -> Result<SimTime> {
        let client = self.client(i)?;
        let Some(t) = &self.transport else {
            return Ok(SimTime::ZERO);
        };
        let link = t.link(i)?;
        let down = link.expected_transfer(codec::WireSize::full(self.global.len()).total_bytes());
        let up_size = client.upload_wire_size(&self.config.net.compression);
        let up = link.expected_transfer(up_size.total_bytes());
        Ok(down + up)
    }

    /// Client `i`'s full cycle time as the server observes it:
    /// `compute + comm` (the paper's `T_e = W/C_cpu + M/V_mc + U/B_n`
    /// with the transfer term realised by the simulated link).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UnknownClient`] for an out-of-range index.
    pub fn combined_cycle_time(&self, i: usize) -> Result<SimTime> {
        Ok(self.client(i)?.cycle_time() + self.comm_overhead(i)?)
    }

    /// Routes one synchronous cycle's exchange through the simulated
    /// transport: the global broadcast goes down every participant's
    /// link, each update comes back up as a wire frame (masked layout
    /// for soft-trained clients, or the wire-v2 layout selected by
    /// `net.compression` — top-k frames encoded against the broadcast
    /// global), and the round's simulated span is
    /// `max(compute + comm)` over participants.
    ///
    /// With networking disabled this is a transparent passthrough whose
    /// span is `max(compute)` — strategies call it unconditionally.
    /// Delivered frames are decoded against the current global vector
    /// (masked-out entries hold the pre-training broadcast values by
    /// the [`LocalUpdate::param_mask`] invariant), which reproduces each
    /// update's parameters bit-for-bit. Participants whose transfers
    /// exhaust their retries or overrun `net.round_timeout_s` are
    /// reported in [`RoutedCycle::missed`] and dropped from the
    /// aggregation set — a missed cycle, not an error.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidRunConfig`] when `compute_times` and
    /// `updates` disagree in length, or a [`FlError::Net`] codec error
    /// (impossible for updates produced by
    /// [`Client::train_local`](crate::Client::train_local)).
    pub fn route_updates(
        &mut self,
        cycle: usize,
        mut updates: Vec<LocalUpdate>,
        compute_times: &[SimTime],
    ) -> Result<RoutedCycle> {
        if updates.len() != compute_times.len() {
            return Err(FlError::InvalidRunConfig {
                what: format!(
                    "route_updates got {} updates but {} compute times",
                    updates.len(),
                    compute_times.len()
                ),
            });
        }
        let Some(transport) = &mut self.transport else {
            let cycle_time = compute_times
                .iter()
                .copied()
                .fold(SimTime::ZERO, SimTime::max);
            return Ok(RoutedCycle {
                updates,
                cycle_time,
                missed: Vec::new(),
            });
        };
        // Broadcasts are always v1 full frames: the broadcast *is* the
        // shared base every v2 upload decodes against (DESIGN.md §4k).
        let broadcast = codec::encode_full(codec::SERVER_SENDER, cycle as u32, &self.global)?;
        // Encode and decode are pure per participant, so both fan out
        // across the thread budget; the transport between them stays
        // serial because its fault-RNG draws, statistics, and trace
        // events are ordered by the event queue (DESIGN.md §4d).
        let compression = self.config.net.compression;
        let threads = self.config.parallelism.resolve();
        let global = &self.global;
        let frames = map_indexed(updates.len(), threads, |i| {
            let u = &updates[i];
            compression.encode_update(
                u.client as u32,
                cycle as u32,
                &u.params,
                u.param_mask.as_deref(),
                global,
            )
        });
        let mut jobs = Vec::with_capacity(updates.len());
        for ((u, &compute), frame) in updates.iter().zip(compute_times).zip(frames) {
            jobs.push(RoundJob {
                device: u.client,
                compute,
                upload_frame: frame?,
            });
        }
        let timeout = self.config.net.round_timeout_s.map(SimTime::from_secs);
        let outcome = simulate_round(transport, &broadcast, &jobs, timeout)?;
        // Each worker swaps an arrived update's parameters for the ones
        // decoded from its job's upload frame: the transport delivers a
        // frame intact or not at all, so the cohort's frames exist once,
        // in `jobs`.
        let decoded = map_items_mut(&mut updates, threads, |i, u| -> Result<bool> {
            if outcome.arrivals[i].is_none() {
                return Ok(false);
            }
            u.params = codec::decode(&jobs[i].upload_frame)?.into_params(global)?;
            Ok(true)
        });
        let mut delivered = Vec::with_capacity(updates.len());
        let mut missed = Vec::new();
        for (u, arrived) in updates.into_iter().zip(decoded) {
            if arrived? {
                delivered.push(u);
            } else {
                missed.push(u.client);
            }
        }
        Ok(RoutedCycle {
            updates: delivered,
            cycle_time: outcome.span,
            missed,
        })
    }
}
