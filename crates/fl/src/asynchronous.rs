//! Asynchronous baselines: plain async FL and AFO (staleness-aware
//! asynchronous federated optimization).

use crate::driver::fedavg_into_global;
use crate::{FlEnv, FlError, MaskedUpdate, OnlineAggregator, Result, RoundPolicy, RoutedCycle};
use helios_device::SimTime;

/// Computes each straggler's update period: how many capable-device
/// aggregation cycles fit into one straggler cycle. Both sides of the
/// ratio use the *combined* cycle time (compute + expected link
/// transfer), so a straggler behind a slow uplink is aggregated as
/// rarely as it actually reports in.
fn natural_periods(
    env: &FlEnv,
    straggler_ids: &[usize],
    cycle_duration: SimTime,
) -> Result<Vec<usize>> {
    straggler_ids
        .iter()
        .map(|&i| {
            let t = env.combined_cycle_time(i)?.as_secs_f64();
            let d = cycle_duration.as_secs_f64();
            Ok(if d <= 0.0 {
                1
            } else {
                (t / d).ceil().max(1.0) as usize
            })
        })
        .collect()
}

/// The asynchronous aggregation cadence: the slowest capable device's
/// full cycle, communication latency included (identical to its pure
/// compute time when networking is disabled).
fn capable_cycle_duration(env: &FlEnv, straggler_ids: &[usize]) -> Result<SimTime> {
    let mut d = SimTime::ZERO;
    for i in 0..env.num_clients() {
        if straggler_ids.contains(&i) {
            continue;
        }
        d = d.max(env.combined_cycle_time(i)?);
    }
    Ok(d)
}

fn validate_stragglers(env: &FlEnv, straggler_ids: &[usize]) -> Result<()> {
    for &i in straggler_ids {
        env.store.check_enrolled(i)?;
    }
    if straggler_ids.len() >= env.num_clients() {
        return Err(FlError::InvalidStrategyConfig {
            what: "at least one capable device is required".into(),
        });
    }
    Ok(())
}

/// Shared `begin_run` body of the asynchronous policies: rejects cohort
/// sampling (every capable device trains every cycle), validates the
/// straggler set, clears every mask (async methods do not shrink
/// models), and hands the stragglers their initial global download.
/// Returns `(cycle_duration, natural periods)`.
fn async_begin_run(env: &mut FlEnv, straggler_ids: &[usize]) -> Result<(SimTime, Vec<usize>)> {
    if env.sampling_enabled() {
        return Err(FlError::InvalidStrategyConfig {
            what: "asynchronous baselines do not run with cohort sampling".into(),
        });
    }
    validate_stragglers(env, straggler_ids)?;
    for i in 0..env.num_clients() {
        env.client_mut(i)?.set_masks(None)?;
    }
    let cycle_duration = capable_cycle_duration(env, straggler_ids)?;
    let periods = natural_periods(env, straggler_ids, cycle_duration)?;
    for &i in straggler_ids {
        env.send_global_to(i, 0)?;
    }
    Ok((cycle_duration, periods))
}

/// Shared selection: every capable device (id order), then the straggler
/// arrivals whose period divides this cycle (straggler order).
fn async_select(
    env: &FlEnv,
    straggler_ids: &[usize],
    periods: &[usize],
    cycle: usize,
) -> Vec<usize> {
    let mut participants: Vec<usize> = (0..env.num_clients())
        .filter(|i| !straggler_ids.contains(i))
        .collect();
    for (s, &i) in straggler_ids.iter().enumerate() {
        if (cycle + 1).is_multiple_of(periods[s]) {
            participants.push(i);
        }
    }
    participants
}

/// Shared broadcast: a fresh global to capable devices only — stragglers
/// keep training on the stale download they already hold.
fn broadcast_to_capables(env: &mut FlEnv, straggler_ids: &[usize], cycle: usize) -> Result<()> {
    for i in 0..env.num_clients() {
        if !straggler_ids.contains(&i) {
            env.send_global_to(i, cycle)?;
        }
    }
    Ok(())
}

/// Plain asynchronous FL — the paper's "Asyn. FL" baseline.
///
/// Capable devices aggregate every cycle; each straggler's update arrives
/// only every `k` cycles (its training time divided by the capable cycle
/// time) and is computed from the *stale* global model it downloaded `k`
/// cycles earlier. Stale parameters are averaged in directly, which is
/// precisely the information-degradation failure mode the paper's Fig 2
/// demonstrates.
#[derive(Debug, Clone)]
pub struct AsyncFl {
    straggler_ids: Vec<usize>,
    fixed_period: Option<usize>,
    cycle_duration: SimTime,
    periods: Vec<usize>,
}

impl AsyncFl {
    /// Async FL whose straggler periods derive from the cost model.
    pub fn new(straggler_ids: Vec<usize>) -> Self {
        AsyncFl {
            straggler_ids,
            fixed_period: None,
            cycle_duration: SimTime::ZERO,
            periods: Vec::new(),
        }
    }

    /// Async FL with a forced straggler period — the paper's Fig 2
    /// settings aggregate the straggler every 2 or every 3 epochs. A
    /// zero period is rejected when the run begins.
    pub fn with_fixed_period(straggler_ids: Vec<usize>, period: usize) -> Self {
        AsyncFl {
            fixed_period: Some(period),
            ..AsyncFl::new(straggler_ids)
        }
    }
}

impl RoundPolicy for AsyncFl {
    fn name(&self) -> &str {
        "async_fl"
    }

    fn begin_run(&mut self, env: &mut FlEnv) -> Result<()> {
        if self.fixed_period == Some(0) {
            return Err(FlError::InvalidStrategyConfig {
                what: "async fixed period must be nonzero".into(),
            });
        }
        let (duration, periods) = async_begin_run(env, &self.straggler_ids)?;
        self.cycle_duration = duration;
        self.periods = match self.fixed_period {
            Some(p) => vec![p; self.straggler_ids.len()],
            None => periods,
        };
        Ok(())
    }

    fn select(&mut self, env: &mut FlEnv, cycle: usize) -> Result<Vec<usize>> {
        Ok(async_select(env, &self.straggler_ids, &self.periods, cycle))
    }

    fn broadcast(&mut self, env: &mut FlEnv, cycle: usize, _participants: &[usize]) -> Result<()> {
        broadcast_to_capables(env, &self.straggler_ids, cycle)
    }

    /// Masks were cleared once in `begin_run`; reconfiguring every cycle
    /// would be redundant.
    fn configure_client(&mut self, _env: &mut FlEnv, _cycle: usize, _client: usize) -> Result<()> {
        Ok(())
    }

    fn aggregate(&mut self, env: &mut FlEnv, cycle: usize, routed: &RoutedCycle) -> Result<()> {
        fedavg_into_global(env, &routed.updates);
        // Delivered straggler arrivals re-download the fresh global.
        for u in &routed.updates {
            if self.straggler_ids.contains(&u.client) {
                env.send_global_to(u.client, cycle + 1)?;
            }
        }
        Ok(())
    }

    /// The clock ticks at the capable cadence regardless of the routed
    /// span — stragglers keep computing across cycle boundaries.
    fn cycle_span(
        &mut self,
        _env: &FlEnv,
        _cycle: usize,
        _routed: &RoutedCycle,
    ) -> Result<SimTime> {
        Ok(self.cycle_duration)
    }
}

/// AFO — asynchronous federated optimization with staleness-decayed
/// server-side mixing (Xie et al., the paper's strongest asynchronous
/// baseline \[6\]).
///
/// Capable updates are FedAvg-combined and mixed into the global model
/// with rate `ALPHA`; each straggler arrival is mixed individually with
/// `ALPHA · (1 + staleness)^(−DECAY)`, so stale updates move the global
/// model less — reducing, but not eliminating, the staleness damage.
#[derive(Debug, Clone)]
pub struct Afo {
    straggler_ids: Vec<usize>,
    cycle_duration: SimTime,
    periods: Vec<usize>,
}

impl Afo {
    /// The customary server mixing rate.
    const ALPHA: f64 = 0.6;
    /// The polynomial staleness exponent.
    const DECAY: f64 = 0.5;

    /// AFO for the given straggler ids.
    pub fn new(straggler_ids: Vec<usize>) -> Self {
        Afo {
            straggler_ids,
            cycle_duration: SimTime::ZERO,
            periods: Vec::new(),
        }
    }

    fn mix(global: &mut [f32], update: &[f32], rate: f64) {
        for (g, &u) in global.iter_mut().zip(update) {
            *g = ((1.0 - rate) * *g as f64 + rate * u as f64) as f32;
        }
    }
}

impl RoundPolicy for Afo {
    fn name(&self) -> &str {
        "afo"
    }

    fn begin_run(&mut self, env: &mut FlEnv) -> Result<()> {
        let (duration, periods) = async_begin_run(env, &self.straggler_ids)?;
        self.cycle_duration = duration;
        self.periods = periods;
        Ok(())
    }

    fn select(&mut self, env: &mut FlEnv, cycle: usize) -> Result<Vec<usize>> {
        Ok(async_select(env, &self.straggler_ids, &self.periods, cycle))
    }

    fn broadcast(&mut self, env: &mut FlEnv, cycle: usize, _participants: &[usize]) -> Result<()> {
        broadcast_to_capables(env, &self.straggler_ids, cycle)
    }

    /// Masks were cleared once in `begin_run`.
    fn configure_client(&mut self, _env: &mut FlEnv, _cycle: usize, _client: usize) -> Result<()> {
        Ok(())
    }

    fn aggregate(&mut self, env: &mut FlEnv, cycle: usize, routed: &RoutedCycle) -> Result<()> {
        // Fresh capable updates, FedAvg-combined then mixed at ALPHA.
        let mut acc = OnlineAggregator::new(env.global().len());
        for u in routed
            .updates
            .iter()
            .filter(|u| !self.straggler_ids.contains(&u.client))
        {
            acc.push(&MaskedUpdate {
                params: &u.params,
                param_mask: None,
                weight: u.num_samples as f64,
            });
        }
        let mut combined = env.global().to_vec();
        acc.finish_into(&mut combined);
        let mut global = env.global().to_vec();
        Self::mix(&mut global, &combined, Self::ALPHA);
        // Straggler arrivals mixed individually with decayed rate.
        for u in routed
            .updates
            .iter()
            .filter(|u| self.straggler_ids.contains(&u.client))
        {
            let staleness = cycle.saturating_sub(u.based_on_cycle) as f64;
            let rate = Self::ALPHA * (1.0 + staleness).powf(-Self::DECAY);
            Self::mix(&mut global, &u.params, rate);
            env.set_global(global.clone())?;
            env.send_global_to(u.client, cycle + 1)?;
        }
        env.set_global(global)
    }

    /// The clock ticks at the capable cadence (see [`AsyncFl`]).
    fn cycle_span(
        &mut self,
        _env: &FlEnv,
        _cycle: usize,
        _routed: &RoutedCycle,
    ) -> Result<SimTime> {
        Ok(self.cycle_duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlConfig, Strategy, SyncFedAvg};
    use helios_data::{partition, Dataset, SyntheticVision};
    use helios_device::presets;
    use helios_nn::models::ModelKind;
    use helios_tensor::TensorRng;

    fn env(capable: usize, stragglers: usize, seed: u64) -> FlEnv {
        let mut rng = TensorRng::seed_from(seed);
        let clients = capable + stragglers;
        let (train, test) = SyntheticVision::mnist_like()
            .generate(60 * clients, 60, &mut rng)
            .unwrap();
        let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
            .into_iter()
            .map(|idx| train.subset(&idx).unwrap())
            .collect();
        FlEnv::new(
            ModelKind::LeNet,
            presets::mixed_fleet(capable, stragglers),
            shards,
            test,
            FlConfig {
                seed,
                ..FlConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn async_is_faster_per_cycle_than_sync() {
        let mut sync_env = env(1, 1, 21);
        let mut async_env = env(1, 1, 21);
        let ms = SyncFedAvg::new().run(&mut sync_env, 4).unwrap();
        let ma = AsyncFl::new(vec![1]).run(&mut async_env, 4).unwrap();
        assert!(
            ma.total_time().as_secs_f64() < 0.5 * ms.total_time().as_secs_f64(),
            "async cycles shouldn't wait for stragglers: {} vs {}",
            ma.total_time(),
            ms.total_time()
        );
    }

    #[test]
    fn straggler_participates_only_at_period_boundaries() {
        let mut e = env(1, 1, 22);
        let m = AsyncFl::with_fixed_period(vec![1], 3)
            .run(&mut e, 6)
            .unwrap();
        let parts: Vec<usize> = m.records().iter().map(|r| r.participants).collect();
        assert_eq!(parts, vec![1, 1, 2, 1, 1, 2]);
    }

    #[test]
    fn async_validates_straggler_ids() {
        let mut e = env(1, 1, 23);
        assert!(AsyncFl::new(vec![5]).run(&mut e, 1).is_err());
        assert!(AsyncFl::new(vec![0, 1]).run(&mut e, 1).is_err());
    }

    #[test]
    fn zero_fixed_period_is_a_typed_error() {
        let mut e = env(1, 1, 23);
        assert!(matches!(
            AsyncFl::with_fixed_period(vec![1], 0).run(&mut e, 1),
            Err(FlError::InvalidStrategyConfig { .. })
        ));
    }

    #[test]
    fn afo_converges_and_is_deterministic() {
        let mut a = env(1, 1, 24);
        let mut b = env(1, 1, 24);
        let ma = Afo::new(vec![1]).run(&mut a, 6).unwrap();
        let mb = Afo::new(vec![1]).run(&mut b, 6).unwrap();
        assert_eq!(ma.records(), mb.records());
        assert!(ma.best_accuracy() > 0.3);
    }

    #[test]
    fn afo_mix_is_convex_combination() {
        let mut g = vec![0.0f32, 2.0];
        Afo::mix(&mut g, &[1.0, 0.0], 0.5);
        assert_eq!(g, vec![0.5, 1.0]);
        Afo::mix(&mut g, &[0.5, 1.0], 1.0);
        assert_eq!(g, vec![0.5, 1.0]);
    }

    #[test]
    fn longer_fixed_period_hurts_accuracy() {
        // Fig 2's qualitative claim: aggregating the straggler less often
        // (period 3 vs 2) degrades converged accuracy. Averaged over two
        // seeds for robustness.
        let acc = |period: usize| -> f64 {
            let mut total = 0.0;
            for seed in [25u64, 26] {
                let mut e = env(1, 1, seed);
                let m = AsyncFl::with_fixed_period(vec![1], period)
                    .run(&mut e, 12)
                    .unwrap();
                total += m.tail_accuracy(3);
            }
            total / 2.0
        };
        let p2 = acc(2);
        let p3 = acc(3);
        assert!(
            p2 >= p3 - 0.02,
            "period 2 ({p2:.3}) should not lose clearly to period 3 ({p3:.3})"
        );
    }

    /// The bugfix pin: with networking enabled and a constrained capable
    /// link, the asynchronous cadence must include the communication
    /// latency, so each cycle's clock advance strictly exceeds the pure
    /// compute time.
    #[test]
    fn async_round_time_includes_comm_latency() {
        use helios_net::{LinkProfile, NetConfig};
        fn net_env(seed: u64, enabled: bool) -> FlEnv {
            let mut rng = TensorRng::seed_from(seed);
            let (train, test) = SyntheticVision::mnist_like()
                .generate(120, 60, &mut rng)
                .unwrap();
            let shards: Vec<Dataset> = partition::iid(train.len(), 2, &mut rng)
                .into_iter()
                .map(|idx| train.subset(&idx).unwrap())
                .collect();
            FlEnv::new(
                ModelKind::LeNet,
                presets::mixed_fleet(1, 1),
                shards,
                test,
                FlConfig {
                    seed,
                    net: NetConfig {
                        enabled,
                        ..NetConfig::default()
                    },
                    ..FlConfig::default()
                },
            )
            .unwrap()
        }
        let mut slow_link = net_env(27, true);
        slow_link
            .set_link(0, LinkProfile::constrained(200_000.0, 0.05))
            .unwrap();
        let compute = slow_link.client(0).unwrap().cycle_time();
        let combined = slow_link.combined_cycle_time(0).unwrap();
        assert!(combined > compute, "constrained link must add latency");
        let m = AsyncFl::new(vec![1]).run(&mut slow_link, 2).unwrap();
        let per_cycle = m.total_time().as_secs_f64() / 2.0;
        assert!(
            per_cycle >= combined.as_secs_f64() - 1e-9,
            "cadence {per_cycle} must cover compute + comm {combined}"
        );
        // And with networking disabled the cadence equals pure compute.
        let mut plain = net_env(27, false);
        let compute = plain.client(0).unwrap().cycle_time();
        let m = AsyncFl::new(vec![1]).run(&mut plain, 2).unwrap();
        assert!((m.total_time().as_secs_f64() / 2.0 - compute.as_secs_f64()).abs() < 1e-9);
    }
}
