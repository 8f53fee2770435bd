//! Random partial-model training — the paper's "Random" baseline
//! (federated dropout, Caldas et al. [12]).

use crate::{FlEnv, FlError, Result, RoundPolicy};
use helios_nn::{MaskableUnits, ModelMask};
use helios_tensor::{TensorRng, UnitMask};

/// Samples a uniform random mask keeping `ceil(keep · n_i)` units of every
/// maskable layer: the Random baseline's per-cycle draw.
pub(crate) fn random_mask(units: &MaskableUnits, keep: f64, rng: &mut TensorRng) -> ModelMask {
    let mut mask = ModelMask::all_active(units);
    for (i, (&n, k)) in units.0.iter().zip(units.keep_counts(keep)).enumerate() {
        let mut layer: UnitMask = std::iter::repeat_n(false, n).collect();
        for c in rng.sample_indices(n, k) {
            layer.set(c, true);
        }
        mask.set_layer(i, Some(layer));
    }
    mask
}

/// Synchronous FL where each straggler trains a *uniformly random*
/// sub-model of its expected volume every cycle.
///
/// Stragglers keep pace (the mask shrinks their cycle time), and no
/// structure is permanently lost — but the random selection ignores
/// neuron contribution, which is exactly the gap Helios's soft-training
/// closes (§V.A's "primary converge guarantee" neurons).
///
/// # Example
///
/// ```no_run
/// use helios_fl::RandomPartial;
///
/// // Client 1 trains 40% of its neurons each cycle; client 0 is full.
/// let strategy = RandomPartial::new(vec![None, Some(0.4)]);
/// # let _ = strategy;
/// ```
#[derive(Debug, Clone)]
pub struct RandomPartial {
    keep_ratios: Vec<Option<f64>>,
    /// Mask-selection stream, reseeded by every `begin_run` so repeated
    /// runs of one value draw identical mask sequences.
    rng: Option<TensorRng>,
}

impl RandomPartial {
    /// Creates the strategy; `keep_ratios[i]` is client `i`'s sub-model
    /// volume (`None` = full model).
    pub fn new(keep_ratios: Vec<Option<f64>>) -> Self {
        RandomPartial {
            keep_ratios,
            rng: None,
        }
    }

    fn validate(&self, env: &FlEnv) -> Result<()> {
        if self.keep_ratios.len() != env.num_clients() {
            return Err(FlError::InvalidStrategyConfig {
                what: format!(
                    "{} keep ratios for {} clients",
                    self.keep_ratios.len(),
                    env.num_clients()
                ),
            });
        }
        for (i, r) in self.keep_ratios.iter().enumerate() {
            if let Some(r) = r {
                if !(*r > 0.0 && *r <= 1.0) {
                    return Err(FlError::InvalidStrategyConfig {
                        what: format!("client {i} keep ratio {r} outside (0, 1]"),
                    });
                }
            }
        }
        Ok(())
    }
}

impl RoundPolicy for RandomPartial {
    fn name(&self) -> &str {
        "random_partial"
    }

    fn begin_run(&mut self, env: &mut FlEnv) -> Result<()> {
        self.validate(env)?;
        self.rng = Some(TensorRng::seed_from(env.config().seed ^ 0x52414e44)); // "RAND"
        Ok(())
    }

    /// Mask drawing consumes the strategy RNG, so the driver's serial
    /// client-order configuration pass is what keeps runs reproducible.
    fn configure_client(&mut self, env: &mut FlEnv, _cycle: usize, client: usize) -> Result<()> {
        let keep = self.keep_ratios[client];
        let Some(rng) = self.rng.as_mut() else {
            return Err(FlError::InvalidStrategyConfig {
                what: "RandomPartial mask RNG missing (begin_run not called)".into(),
            });
        };
        let c = env.client_mut(client)?;
        match keep {
            Some(r) => {
                let units = c.network().maskable_units();
                let mask = random_mask(&units, r, rng);
                c.set_masks(Some(mask))
            }
            None => c.set_masks(None),
        }
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
    fn random_mask_keeps_requested_fraction() {
        let units = MaskableUnits(vec![10, 20]);
        let mut rng = TensorRng::seed_from(0);
        let mask = random_mask(&units, 0.4, &mut rng);
        assert_eq!(mask.active_counts(&units), vec![4, 8]);
        // Extreme ratios clamp sensibly.
        let tiny = random_mask(&units, 0.001, &mut rng);
        assert_eq!(tiny.active_counts(&units), vec![1, 1]);
        let full = random_mask(&units, 1.0, &mut rng);
        assert_eq!(full.active_counts(&units), vec![10, 20]);
    }

    #[test]
    fn random_masks_differ_between_cycles() {
        let units = MaskableUnits(vec![32]);
        let mut rng = TensorRng::seed_from(1);
        let a = random_mask(&units, 0.5, &mut rng);
        let b = random_mask(&units, 0.5, &mut rng);
        assert_ne!(a, b, "successive draws should differ");
    }

    #[test]
    fn random_partial_accelerates_straggler_fleet() {
        let mut full = env(1, 1, 31);
        let mut partial = env(1, 1, 31);
        let mf = SyncFedAvg::new().run(&mut full, 3).unwrap();
        let mp = RandomPartial::new(vec![None, Some(0.3)])
            .run(&mut partial, 3)
            .unwrap();
        assert!(
            mp.total_time().as_secs_f64() < 0.7 * mf.total_time().as_secs_f64(),
            "partial training must shrink cycle time: {} vs {}",
            mp.total_time(),
            mf.total_time()
        );
    }

    #[test]
    fn random_partial_still_learns() {
        let mut e = env(1, 1, 32);
        let m = RandomPartial::new(vec![None, Some(0.4)])
            .run(&mut e, 8)
            .unwrap();
        assert!(m.best_accuracy() > 0.4, "accuracy {}", m.best_accuracy());
    }

    #[test]
    fn validates_configuration() {
        let mut e = env(1, 1, 33);
        assert!(RandomPartial::new(vec![None]).run(&mut e, 1).is_err());
        assert!(RandomPartial::new(vec![None, Some(0.0)])
            .run(&mut e, 1)
            .is_err());
        assert!(RandomPartial::new(vec![None, Some(1.5)])
            .run(&mut e, 1)
            .is_err());
    }
}
