//! The unified round-lifecycle engine: one canonical aggregation-cycle
//! loop shared by every strategy.
//!
//! A federated round always walks the same phases — client selection,
//! global broadcast, per-client configuration, local training, transport
//! routing, aggregation, evaluation, metrics recording. Historically each
//! strategy re-implemented that loop; now [`RoundDriver`] owns it and a
//! strategy only fills in the policy decisions through the slim
//! [`RoundPolicy`] hook trait. Every `RoundPolicy` automatically
//! implements [`Strategy`] (a blanket impl), so policies keep plugging
//! into `Vec<Box<dyn Strategy>>` harnesses unchanged.
//!
//! [`RoundDriver::run`] documents the phase sequence.
//!
//! The driver is bitwise-transparent: a policy whose hooks perform the
//! same operations in the same order as a hand-written loop produces
//! bit-identical metrics and global parameters, at any thread count.

use crate::metrics::{PhaseBreakdown, RunProfile};
use crate::{
    FlEnv, LocalUpdate, MaskedUpdate, Result, RoundRecord, RoutedCycle, RunMetrics, Strategy,
};
use helios_device::SimTime;
use helios_obs::{PhaseGuard, TraceEvent};
use std::time::Instant;

/// The policy hooks a collaboration scheme plugs into the
/// [`RoundDriver`]'s canonical cycle loop.
///
/// Only [`RoundPolicy::name`] is mandatory; every other hook has a
/// default that matches plain synchronous FedAvg (select everyone,
/// broadcast to everyone, train full models, FedAvg-fold the delivered
/// updates, advance the clock by the routed round span). The driver
/// calls the hooks in the order documented on `RoundDriver::run`.
pub trait RoundPolicy {
    /// Short machine-friendly name (used in metrics and CSV output).
    fn name(&self) -> &str;

    /// One-time setup before the first cycle of a `run` call:
    /// validation, straggler identification, seeding strategy RNGs.
    ///
    /// Called once per [`Strategy::run`] invocation. The baselines
    /// recompute their environment-derived state (periods, RNG streams)
    /// here, so running the same policy value again starts afresh.
    /// Helios instead keeps its classification, deadline and trainers
    /// across calls: a second `run` continues the collaboration, which
    /// is how a device admitted between runs joins it (§VI.C).
    ///
    /// # Errors
    ///
    /// Returns configuration-validation or identification errors.
    fn begin_run(&mut self, env: &mut FlEnv) -> Result<()> {
        let _ = env;
        Ok(())
    }

    /// Names this cycle's participants. The returned order is the
    /// training *and* aggregation order; duplicates are rejected by the
    /// driver. Defaults to [`FlEnv::select_cohort`]: with sampling
    /// disabled that is every client in id order (the historical
    /// behavior), with sampling enabled it is the cycle's deterministic
    /// cohort draw, materialized and ready to train.
    ///
    /// # Errors
    ///
    /// Returns selection errors (e.g. an unknown client id).
    fn select(&mut self, env: &mut FlEnv, cycle: usize) -> Result<Vec<usize>> {
        env.select_cohort(cycle)
    }

    /// Distributes the global model at the top of the cycle. Defaults to
    /// [`FlEnv::broadcast_global`]; asynchronous schemes narrow this to
    /// the capable devices so stragglers keep their stale download.
    ///
    /// # Errors
    ///
    /// Propagates parameter-length errors.
    fn broadcast(&mut self, env: &mut FlEnv, cycle: usize, participants: &[usize]) -> Result<()> {
        let _ = participants;
        env.broadcast_global(cycle)
    }

    /// Prepares one participant for training — mask installation, RNG
    /// draws. Runs serially in participant order so stateful policies
    /// (e.g. a shared mask RNG) stay reproducible. Defaults to clearing
    /// any installed mask (full-model training).
    ///
    /// # Errors
    ///
    /// Returns mask-installation errors.
    fn configure_client(&mut self, env: &mut FlEnv, cycle: usize, client: usize) -> Result<()> {
        let _ = cycle;
        env.client_mut(client)?.set_masks(None)
    }

    /// Folds the delivered updates into the global model. The updates
    /// arrive in participant order with deadline-missing clients already
    /// removed (see [`RoutedCycle`]). Defaults to the FedAvg fold.
    ///
    /// # Errors
    ///
    /// Returns policy-state errors.
    fn aggregate(&mut self, env: &mut FlEnv, cycle: usize, routed: &RoutedCycle) -> Result<()> {
        let _ = cycle;
        fedavg_into_global(env, &routed.updates);
        Ok(())
    }

    /// The simulated span the clock advances by after aggregation.
    /// Defaults to the routed round span (`max(compute + comm)` over
    /// participants); asynchronous schemes return the capable-device
    /// cadence instead.
    ///
    /// # Errors
    ///
    /// Returns policy-state errors.
    fn cycle_span(&mut self, env: &FlEnv, cycle: usize, routed: &RoutedCycle) -> Result<SimTime> {
        let _ = (env, cycle);
        Ok(routed.cycle_time)
    }

    /// Runs after the clock advance and before evaluation — e.g. the
    /// Helios dynamic-volume adjustment. Defaults to a no-op.
    ///
    /// # Errors
    ///
    /// Returns policy-state errors.
    fn post_cycle(&mut self, env: &mut FlEnv, cycle: usize) -> Result<()> {
        let _ = (env, cycle);
        Ok(())
    }
}

/// Every [`RoundPolicy`] is a [`Strategy`]: running it drives the policy
/// through the canonical cycle loop.
impl<P: RoundPolicy> Strategy for P {
    fn name(&self) -> &str {
        RoundPolicy::name(self)
    }

    fn run(&mut self, env: &mut FlEnv, cycles: usize) -> Result<RunMetrics> {
        RoundDriver::run(self, env, cycles)
    }
}

/// FedAvg aggregation into the environment's global model: each update's
/// trained entries enter a sample-count-weighted masked average. The
/// default aggregation hook, and the first step of [`crate::AsyncFl`]'s.
pub(crate) fn fedavg_into_global(env: &mut FlEnv, updates: &[LocalUpdate]) {
    env.fold_into_global(updates.iter().map(|u| MaskedUpdate {
        params: &u.params,
        param_mask: u.param_mask.as_deref(),
        weight: u.num_samples as f64,
    }));
}

/// The engine that owns the canonical round lifecycle (see
/// `RoundDriver::run` for the phase sequence).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundDriver;

impl RoundDriver {
    /// Drives `policy` through `cycles` aggregation cycles against `env`,
    /// recording one [`RoundRecord`] (with per-phase breakdown) per cycle
    /// and a host-side [`RunProfile`] for the whole run.
    ///
    /// # Phase sequence
    ///
    /// For each cycle `c` in `0..cycles`, in order:
    ///
    /// 1. **select** — the policy names this cycle's participants
    ///    (training *and* aggregation order).
    /// 2. **broadcast** — the global model goes out (default: everyone).
    /// 3. **configure** — [`RoundPolicy::configure_client`] runs serially
    ///    in participant order (mask installation, RNG draws).
    /// 4. **train** — [`FlEnv::train_selected`] fans the participants out
    ///    across worker threads; updates return in participant order.
    /// 5. **route** — the exchange rides [`FlEnv::route_updates`] (a
    ///    transparent passthrough when networking is disabled);
    ///    participants missing the deadline drop out of the aggregation.
    /// 6. **aggregate** — the policy folds the delivered updates into the
    ///    global model.
    /// 7. **clock** — the clock advances by [`RoundPolicy::cycle_span`]
    ///    (default: the routed round span), then
    ///    [`RoundPolicy::post_cycle`] runs (e.g. Helios volume
    ///    adjustment).
    /// 8. **evaluate & record** — global-model evaluation, then a
    ///    [`RoundRecord`] with a per-phase [`PhaseBreakdown`] is
    ///    appended.
    ///
    /// # Errors
    ///
    /// Propagates the first policy or environment error; the environment
    /// state is unspecified afterwards.
    pub(crate) fn run<P: RoundPolicy + ?Sized>(
        policy: &mut P,
        env: &mut FlEnv,
        cycles: usize,
    ) -> Result<RunMetrics> {
        let mut metrics = RunMetrics::new(RoundPolicy::name(policy));
        let mut profile = RunProfile::default();

        let t = Instant::now();
        policy.begin_run(env)?;
        profile.setup_s += t.elapsed().as_secs_f64();

        for cycle in 0..cycles {
            // Events carry the simulated clock; the driver publishes it
            // at the cycle boundaries (here and after the advance).
            helios_obs::set_sim_time(env.clock().now());
            helios_obs::emit(|| TraceEvent::RoundStart {
                cycle: cycle as u64,
                population: env.num_clients() as u64,
            });

            // 0a. Scenario timeline: apply due churn/drift events and
            // recompute throttle scales before the cohort is drawn (a
            // no-op without a scenario).
            env.scenario_begin_cycle(cycle)?;

            // 1. Selection + 3. per-client configuration (serial, in
            // participant order — stateful policies rely on it).
            let t = Instant::now();
            let participants = {
                let _span = PhaseGuard::new(cycle as u64, "select");
                policy.select(env, cycle)?
            };
            profile.setup_s += t.elapsed().as_secs_f64();
            for &i in &participants {
                helios_obs::emit(|| TraceEvent::DeviceSelected {
                    cycle: cycle as u64,
                    device: i as u64,
                    cohort: participants.len() as u64,
                });
            }

            // 0b. Scenario cohort preparation: replay pending drift onto
            // participant shards and throttle participant links (a no-op
            // without a scenario).
            env.scenario_prepare_cohort(cycle, &participants)?;

            // 2. Broadcast.
            let t = Instant::now();
            {
                let _span = PhaseGuard::new(cycle as u64, "broadcast");
                policy.broadcast(env, cycle, &participants)?;
            }
            profile.broadcast_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let compute_times = {
                let _span = PhaseGuard::new(cycle as u64, "configure");
                for &i in &participants {
                    policy.configure_client(env, cycle, i)?;
                }
                // Masked compute times, read after configuration so a
                // shrunken sub-model is billed at its reduced cost.
                let mut compute_times = Vec::with_capacity(participants.len());
                for &i in &participants {
                    compute_times.push(env.client(i)?.cycle_time());
                }
                compute_times
            };
            let max_compute = compute_times
                .iter()
                .copied()
                .fold(SimTime::ZERO, SimTime::max);
            profile.setup_s += t.elapsed().as_secs_f64();

            // 4. Local training (parallel fan-out, bitwise equal to
            // serial execution at any thread count).
            let kernels_before = helios_tensor::kernel_counters();
            let t = Instant::now();
            let updates = {
                let _span = PhaseGuard::new(cycle as u64, "train");
                env.train_selected(&participants)?
            };
            profile.train_s += t.elapsed().as_secs_f64();
            let train_flops = helios_tensor::kernel_counters()
                .since(&kernels_before)
                .flops;
            for (&i, compute) in participants.iter().zip(&compute_times) {
                helios_obs::emit(|| TraceEvent::TrainDone {
                    device: i as u64,
                    compute_s: compute.as_secs_f64(),
                });
            }

            // 5. Transport routing. Bytes are billed at the trained wire
            // size (uploads + full-model downloads) even when networking
            // is disabled; the wire/retry counters come from the
            // transport's monotone statistics.
            let comm_bytes = crate::cycle_comm_bytes_with(&updates, &env.config().net.compression);
            let net_before = env.transport().map(|t| *t.stats());
            let t = Instant::now();
            let routed = {
                let _span = PhaseGuard::new(cycle as u64, "route");
                env.route_updates(cycle, updates, &compute_times)?
            };
            profile.route_s += t.elapsed().as_secs_f64();
            let wire = match (env.transport(), net_before) {
                (Some(t), Some(before)) => t.stats().since(&before),
                _ => Default::default(),
            };

            // 6. Aggregation.
            let t = Instant::now();
            {
                let _span = PhaseGuard::new(cycle as u64, "aggregate");
                policy.aggregate(env, cycle, &routed)?;
            }
            profile.aggregate_s += t.elapsed().as_secs_f64();
            for u in &routed.updates {
                helios_obs::emit(|| TraceEvent::UpdateAggregated {
                    cycle: cycle as u64,
                    device: u.client as u64,
                });
            }

            // 7. Clock advance + post-cycle adjustment.
            let span = policy.cycle_span(env, cycle, &routed)?;
            env.advance_clock(span);
            helios_obs::set_sim_time(env.clock().now());
            let t = Instant::now();
            policy.post_cycle(env, cycle)?;
            profile.setup_s += t.elapsed().as_secs_f64();

            // 8. Evaluation and recording. The simulated span partitions
            // into the training share (slowest participant's compute,
            // clipped to the span) and the communication/waiting share.
            let kernels_before = helios_tensor::kernel_counters();
            let t = Instant::now();
            let (test_loss, test_accuracy) = {
                let _span = PhaseGuard::new(cycle as u64, "evaluate");
                env.evaluate_global()?
            };
            profile.eval_s += t.elapsed().as_secs_f64();
            let eval_flops = helios_tensor::kernel_counters()
                .since(&kernels_before)
                .flops;
            helios_obs::emit(|| TraceEvent::EvalDone {
                cycle: cycle as u64,
                loss: test_loss,
                accuracy: test_accuracy,
            });

            let span_s = span.as_secs_f64();
            let sim_train_s = span_s.min(max_compute.as_secs_f64());
            let sim_comm_s = (span_s - sim_train_s).max(0.0);
            metrics.push(RoundRecord {
                cycle,
                sim_time: env.clock().now(),
                test_accuracy,
                test_loss,
                participants: routed.updates.len(),
                comm_bytes,
                phases: PhaseBreakdown {
                    train_s: sim_train_s,
                    comm_s: sim_comm_s,
                    wire_bytes: wire.bytes_on_wire,
                    retries: wire.retries,
                    missed: routed.missed.len(),
                    aggregated_updates: routed.updates.len(),
                    train_flops,
                    eval_flops,
                },
            });
            helios_obs::emit(|| TraceEvent::RoundEnd {
                cycle: cycle as u64,
                span_s,
                train_s: sim_train_s,
                comm_s: sim_comm_s,
                aggregated: routed.updates.len() as u64,
                missed: routed.missed.len() as u64,
            });
        }

        metrics.set_profile(profile);
        Ok(metrics)
    }
}
