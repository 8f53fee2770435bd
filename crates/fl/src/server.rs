//! Masked weighted parameter aggregation — the primitive under FedAvg,
//! partial-model averaging, and Helios's heterogeneity-weighted rule.

use crate::LocalUpdate;
use helios_tensor::{mask_ones, mask_population};

/// Bytes exchanged with the server for a set of updates in one cycle
/// under a [`CompressionConfig`](helios_net::CompressionConfig): each
/// participant downloads the full model (4 bytes per parameter —
/// broadcasts are never compressed) and uploads the configured mode's
/// planning estimate, payload bytes only, no wire framing. With
/// `CompressionMode::None` that is 4 bytes per *trained* parameter:
/// soft-trained stragglers upload only their selected neurons.
pub fn cycle_comm_bytes_with(
    updates: &[LocalUpdate],
    compression: &helios_net::CompressionConfig,
) -> f64 {
    updates
        .iter()
        .map(|u| {
            let n = u.params.len();
            let active = u.param_mask.as_ref().map(|m| {
                mask_population(m, n).unwrap_or_else(|e| panic!("client {}: {e:?}", u.client))
            });
            let up = if compression.mode == helios_net::CompressionMode::None {
                active.unwrap_or(n) * 4
            } else {
                let size = compression.upload_wire_size(n, active);
                size.mask_bytes + size.index_bytes + size.payload_bytes
            };
            (up + n * 4) as f64
        })
        .sum()
}

/// One client contribution to an aggregation step.
#[derive(Debug, Clone)]
pub struct MaskedUpdate<'a> {
    /// The client's full parameter vector after local training.
    pub params: &'a [f32],
    /// Which entries actually trained (`None` = all), as the LSB-first
    /// `u64` words of a `params.len()`-bit [`UnitMask`](helios_tensor::UnitMask).
    pub param_mask: Option<&'a [u64]>,
    /// Aggregation weight (need not be normalized; normalization happens
    /// per-parameter over the contributors that cover it).
    pub weight: f64,
}

/// Streaming weighted per-parameter averaging with partial coverage:
/// consumes one [`MaskedUpdate`] at a time and holds only the running
/// accumulator — O(model) server memory regardless of cohort size.
///
/// For every parameter index, the new global value is the weighted mean
/// of the contributions whose mask covers that index. Indices no client
/// trained keep their previous global value — exactly the paper's rule
/// that skipped neurons "maintain their contribution" in the global
/// model rather than being dragged toward stale replicas.
///
/// # Example
///
/// ```
/// use helios_fl::{MaskedUpdate, OnlineAggregator};
///
/// let mask = [0b01]; // index 0 trained, index 1 not
/// let updates = [
///     MaskedUpdate { params: &[2.0, 2.0], param_mask: None, weight: 1.0 },
///     MaskedUpdate { params: &[6.0, 6.0], param_mask: Some(&mask), weight: 3.0 },
/// ];
/// let mut acc = OnlineAggregator::new(2);
/// for u in &updates {
///     acc.push(u); // one update at a time — nothing else retained
/// }
/// let mut global = vec![0.0f32, 10.0];
/// acc.finish_into(&mut global);
/// assert_eq!(global, vec![5.0, 2.0]); // index 1: only the first update
/// ```
#[derive(Debug, Clone)]
pub struct OnlineAggregator {
    acc: Vec<f64>,
    wsum: Vec<f64>,
}

impl OnlineAggregator {
    /// Creates an accumulator for a model of `model_len` parameters.
    #[must_use]
    pub fn new(model_len: usize) -> Self {
        OnlineAggregator {
            acc: vec![0.0f64; model_len],
            wsum: vec![0.0f64; model_len],
        }
    }

    /// Folds one contribution into the running accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the update's `params` (or mask) length differs from the
    /// model length, or its weight is negative/non-finite — both indicate
    /// programming errors in the calling strategy.
    pub fn push(&mut self, u: &MaskedUpdate<'_>) {
        let n = self.acc.len();
        assert_eq!(
            u.params.len(),
            n,
            "update length {} vs global {}",
            u.params.len(),
            n
        );
        if let Some(m) = u.param_mask {
            assert!(mask_population(m, n).is_ok(), "mask does not hold {n} bits");
        }
        assert!(
            u.weight.is_finite() && u.weight >= 0.0,
            "weight must be non-negative and finite, got {}",
            u.weight
        );
        let w = u.weight;
        match u.param_mask {
            // One zipped pass with no index to bounds-check, which the
            // compiler vectorizes; each index still takes the same
            // multiply and adds in the same order.
            None => {
                let sums = self.acc.iter_mut().zip(&mut self.wsum);
                for ((acc, wsum), &p) in sums.zip(u.params) {
                    *acc += w * p as f64;
                    *wsum += w;
                }
            }
            // The population check above bounds every set bit below `n`.
            Some(words) => {
                for i in mask_ones(words) {
                    self.acc[i] += w * u.params[i] as f64;
                    self.wsum[i] += w;
                }
            }
        }
    }

    /// Writes the weighted means into `global`; indices no pushed update
    /// covered keep their previous global value.
    ///
    /// # Panics
    ///
    /// Panics if `global.len()` differs from the accumulator's model
    /// length.
    pub fn finish_into(self, global: &mut [f32]) {
        let n = self.acc.len();
        assert_eq!(global.len(), n, "global length {} vs {}", global.len(), n);
        for (i, g) in global.iter_mut().enumerate() {
            if self.wsum[i] > 0.0 {
                *g = (self.acc[i] / self.wsum[i]) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_tensor::{mask_bit, UnitMask};

    /// Streams `updates` through the production accumulator.
    fn aggregate(global: &mut [f32], updates: &[MaskedUpdate<'_>]) {
        let mut acc = OnlineAggregator::new(global.len());
        for u in updates {
            acc.push(u);
        }
        acc.finish_into(global);
    }

    /// Collect-then-average oracle: each index's weighted mean over the
    /// collected updates that cover it, summed in update order.
    fn collect_then_average(global: &mut [f32], updates: &[MaskedUpdate<'_>]) {
        for (i, g) in global.iter_mut().enumerate() {
            let (acc, wsum) = updates
                .iter()
                .filter(|u| u.param_mask.is_none_or(|m| mask_bit(m, i)))
                .fold((0.0f64, 0.0f64), |(acc, wsum), u| {
                    (acc + u.weight * u.params[i] as f64, wsum + u.weight)
                });
            if wsum > 0.0 {
                *g = (acc / wsum) as f32;
            }
        }
    }

    fn update(params: Vec<f32>, mask: Option<UnitMask>) -> LocalUpdate {
        LocalUpdate {
            client: 0,
            params,
            param_mask: mask.map(|m| m.words().to_vec()),
            train_loss: 0.0,
            num_samples: 1,
            keep_ratio: 1.0,
            based_on_cycle: 0,
        }
    }

    #[test]
    fn comm_bytes_counts_uploads_and_downloads() {
        // Full update of 10 params: upload 40 B + download 40 B.
        let full = update(vec![0.0; 10], None);
        let v1 = |u: &[LocalUpdate]| cycle_comm_bytes_with(u, &Default::default());
        assert_eq!(v1(std::slice::from_ref(&full)), 80.0);
        // Half-masked update: upload 20 B + download 40 B.
        let half = update(vec![0.0; 10], Some((0..10).map(|i| i % 2 == 0).collect()));
        assert_eq!(v1(std::slice::from_ref(&half)), 60.0);
        // Sums over participants.
        assert_eq!(v1(&[full, half]), 140.0);
        assert_eq!(v1(&[]), 0.0);
    }

    #[test]
    fn comm_bytes_with_compression_matches_v1_when_off() {
        use helios_net::{CompressionConfig, CompressionMode};
        let updates = [
            update(vec![0.0; 10], None),
            update(vec![0.0; 10], Some((0..10).map(|i| i % 2 == 0).collect())),
        ];
        // Off: 4 B per trained param up (10 + 5) and 4 B per param down.
        let off = cycle_comm_bytes_with(&updates, &CompressionConfig::default());
        assert_eq!(off, 140.0);
        // Top-k uploads (one kept entry of ten: a 4 B index + a 4 B
        // value each) bill fewer bytes than v1; downloads (4 B per param
        // per participant) are unchanged.
        let cfg = CompressionConfig {
            mode: CompressionMode::TopK,
            ..CompressionConfig::default()
        };
        assert_eq!(cycle_comm_bytes_with(&updates, &cfg), 2.0 * (8.0 + 40.0));
    }

    #[test]
    fn unmasked_average_is_plain_weighted_mean() {
        let mut global = vec![0.0f32; 3];
        let a = [1.0f32, 1.0, 1.0];
        let b = [4.0f32, 4.0, 4.0];
        aggregate(
            &mut global,
            &[
                MaskedUpdate {
                    params: &a,
                    param_mask: None,
                    weight: 1.0,
                },
                MaskedUpdate {
                    params: &b,
                    param_mask: None,
                    weight: 2.0,
                },
            ],
        );
        for &g in &global {
            assert!((g - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn uncovered_indices_keep_global_value() {
        let mut global = vec![7.0f32, 7.0];
        let a = [1.0f32, 99.0];
        let mask = [0b01];
        aggregate(
            &mut global,
            &[MaskedUpdate {
                params: &a,
                param_mask: Some(&mask),
                weight: 5.0,
            }],
        );
        assert_eq!(global, vec![1.0, 7.0]);
    }

    #[test]
    fn partial_overlap_normalizes_per_index() {
        let mut global = vec![0.0f32, 0.0];
        let a = [2.0f32, 2.0];
        let b = [6.0f32, 6.0];
        let mask_b = [0b10];
        aggregate(
            &mut global,
            &[
                MaskedUpdate {
                    params: &a,
                    param_mask: None,
                    weight: 1.0,
                },
                MaskedUpdate {
                    params: &b,
                    param_mask: Some(&mask_b),
                    weight: 1.0,
                },
            ],
        );
        assert_eq!(global[0], 2.0, "only a covers index 0");
        assert_eq!(global[1], 4.0, "a and b average at index 1");
    }

    #[test]
    fn zero_weight_update_is_ignored() {
        let mut global = vec![1.0f32];
        let a = [100.0f32];
        aggregate(
            &mut global,
            &[MaskedUpdate {
                params: &a,
                param_mask: None,
                weight: 0.0,
            }],
        );
        assert_eq!(global, vec![1.0]);
    }

    #[test]
    fn empty_update_set_is_identity() {
        let mut global = vec![3.0f32, 4.0];
        aggregate(&mut global, &[]);
        assert_eq!(global, vec![3.0, 4.0]);
    }

    #[test]
    fn streaming_matches_collect_then_average_bitwise() {
        // Random masked/weighted update sets, including "dropped" subsets:
        // pushing one update at a time must reproduce the batch fold
        // bit-for-bit.
        use helios_tensor::TensorRng;
        let mut rng = TensorRng::seed_from(0x5354_5245);
        for case in 0..200 {
            let n = 1 + rng.below(40);
            let mut global: Vec<f32> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let num_updates = rng.below(6);
            let storage: Vec<(Vec<f32>, Option<Vec<u64>>, f64)> = (0..num_updates)
                .map(|_| {
                    let params: Vec<f32> = (0..n).map(|_| rng.uniform(-3.0, 3.0)).collect();
                    let mask = if rng.unit_f64() < 0.5 {
                        let m: UnitMask = (0..n).map(|_| rng.unit_f64() < 0.6).collect();
                        Some(m.words().to_vec())
                    } else {
                        None
                    };
                    // Simulate a dropped update now and then via weight 0.
                    let weight = if rng.unit_f64() < 0.2 {
                        0.0
                    } else {
                        rng.unit_f64() * 10.0
                    };
                    (params, mask, weight)
                })
                .collect();
            let updates: Vec<MaskedUpdate<'_>> = storage
                .iter()
                .map(|(p, m, w)| MaskedUpdate {
                    params: p,
                    param_mask: m.as_deref(),
                    weight: *w,
                })
                .collect();
            let mut batch = global.clone();
            collect_then_average(&mut batch, &updates);
            aggregate(&mut global, &updates);
            let batch_bits: Vec<u32> = batch.iter().map(|x| x.to_bits()).collect();
            let stream_bits: Vec<u32> = global.iter().map(|x| x.to_bits()).collect();
            assert_eq!(batch_bits, stream_bits, "case {case} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "global length")]
    fn finish_into_rejects_wrong_length() {
        let acc = OnlineAggregator::new(3);
        let mut global = vec![0.0f32; 2];
        acc.finish_into(&mut global);
    }

    #[test]
    #[should_panic(expected = "update length")]
    fn length_mismatch_panics() {
        let mut global = vec![0.0f32; 2];
        let a = [1.0f32];
        aggregate(
            &mut global,
            &[MaskedUpdate {
                params: &a,
                param_mask: None,
                weight: 1.0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "weight must be non-negative")]
    fn bad_weight_panics() {
        let mut global = vec![0.0f32];
        let a = [1.0f32];
        aggregate(
            &mut global,
            &[MaskedUpdate {
                params: &a,
                param_mask: None,
                weight: f64::NAN,
            }],
        );
    }
}
