//! Synchronized FedAvg — the paper's "Syn. FL" baseline.

use crate::driver::fedavg_into_global;
use crate::{FlEnv, Result, RoundPolicy, RoutedCycle};

/// Fully synchronous FedAvg: every cycle, every device (stragglers
/// included) trains the complete model and the server waits for the
/// slowest one, so the cycle time is `max_i Te_i`.
///
/// Best accuracy per cycle, worst simulated time per cycle — the
/// "shortest board in barrel" behaviour of the paper's Fig 1.
///
/// Expressed as a [`RoundPolicy`]: the [`crate::RoundDriver`] defaults
/// (select everyone, broadcast to everyone, clear masks, advance by the
/// routed round span) *are* synchronous FedAvg, so only the aggregation
/// hook is filled in.
///
/// # Example
///
/// See the crate-level example, which runs `SyncFedAvg` end-to-end.
#[derive(Debug, Clone, Default)]
pub struct SyncFedAvg {
    _private: (),
}

impl SyncFedAvg {
    /// Creates the strategy.
    pub fn new() -> Self {
        SyncFedAvg::default()
    }
}

impl RoundPolicy for SyncFedAvg {
    fn name(&self) -> &str {
        "sync_fedavg"
    }

    fn aggregate(&mut self, env: &mut FlEnv, _cycle: usize, routed: &RoutedCycle) -> Result<()> {
        fedavg_into_global(env, &routed.updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlConfig, Strategy};
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
    fn sync_fedavg_improves_accuracy() {
        let mut e = env(2, 0, 11);
        let metrics = SyncFedAvg::new().run(&mut e, 8).unwrap();
        assert_eq!(metrics.records().len(), 8);
        assert!(
            metrics.best_accuracy() > 0.5,
            "accuracy {} too low",
            metrics.best_accuracy()
        );
        // Accuracy trend is upward: tail beats head.
        let head = metrics.records()[0].test_accuracy;
        assert!(metrics.tail_accuracy(3) > head);
    }

    #[test]
    fn cycle_time_is_dominated_by_straggler() {
        let mut fast = env(2, 0, 12);
        let mut slow = env(1, 1, 12);
        let mf = SyncFedAvg::new().run(&mut fast, 2).unwrap();
        let ms = SyncFedAvg::new().run(&mut slow, 2).unwrap();
        assert!(
            ms.total_time().as_secs_f64() > 2.0 * mf.total_time().as_secs_f64(),
            "straggler fleet must be much slower: {} vs {}",
            ms.total_time(),
            mf.total_time()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = env(1, 1, 13);
        let mut b = env(1, 1, 13);
        let ma = SyncFedAvg::new().run(&mut a, 3).unwrap();
        let mb = SyncFedAvg::new().run(&mut b, 3).unwrap();
        assert_eq!(ma.records(), mb.records());
        assert_eq!(a.global(), b.global());
    }

    #[test]
    fn all_clients_participate_every_cycle() {
        let mut e = env(2, 2, 14);
        let m = SyncFedAvg::new().run(&mut e, 2).unwrap();
        for r in m.records() {
            assert_eq!(r.participants, 4);
        }
    }
}
