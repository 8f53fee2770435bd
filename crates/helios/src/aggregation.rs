//! Heterogeneity-weighted model aggregation (§VI.B, Eq 10).

/// Computes the paper's adjusting ratios `α_n = r_n / Σ r_n` from each
/// device's neuron keep ratio `r_n`: devices that trained a more complete
/// model structure contribute more to the global model.
///
/// The returned weights sum to 1 (uniform fallback when every ratio is
/// zero).
///
/// # Panics
///
/// Panics if a ratio is negative or not finite.
///
/// # Example
///
/// ```
/// use helios_core::aggregation::heterogeneity_weights;
///
/// let w = heterogeneity_weights(&[1.0, 1.0, 0.5]);
/// assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(w[0] > w[2]); // fuller model, larger weight
/// ```
pub fn heterogeneity_weights(keep_ratios: &[f64]) -> Vec<f64> {
    for &r in keep_ratios {
        assert!(
            r.is_finite() && r >= 0.0,
            "keep ratio must be non-negative and finite, got {r}"
        );
    }
    let total: f64 = keep_ratios.iter().sum();
    if total <= 0.0 {
        let n = keep_ratios.len().max(1);
        return vec![1.0 / n as f64; keep_ratios.len()];
    }
    keep_ratios.iter().map(|&r| r / total).collect()
}

/// Combines the heterogeneity ratio with FedAvg's sample weighting: the
/// aggregation weight of device `n` is `r_n · |D_n|`. Per-parameter
/// normalization happens inside [`helios_fl::OnlineAggregator`], so the weights
/// need not sum to 1.
pub fn combined_weights(keep_ratios: &[f64], sample_counts: &[usize]) -> Vec<f64> {
    assert_eq!(
        keep_ratios.len(),
        sample_counts.len(),
        "ratio and sample-count vectors must align"
    );
    heterogeneity_weights(keep_ratios)
        .into_iter()
        .zip(sample_counts)
        .map(|(a, &s)| a * s as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_normalized_and_proportional() {
        let w = heterogeneity_weights(&[1.0, 0.5, 0.25]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[0] / w[1] - 2.0).abs() < 1e-12);
        assert!((w[1] / w[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn equal_ratios_give_uniform_weights() {
        let w = heterogeneity_weights(&[0.4, 0.4, 0.4, 0.4]);
        for &x in &w {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_ratios_fall_back_to_uniform() {
        let w = heterogeneity_weights(&[0.0, 0.0]);
        assert_eq!(w, vec![0.5, 0.5]);
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(heterogeneity_weights(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "keep ratio must be non-negative")]
    fn negative_ratio_panics() {
        let _ = heterogeneity_weights(&[-0.1]);
    }

    #[test]
    fn combined_weights_multiply_samples() {
        let w = combined_weights(&[1.0, 0.5], &[100, 100]);
        assert!((w[0] / w[1] - 2.0).abs() < 1e-12);
        let w = combined_weights(&[1.0, 1.0], &[300, 100]);
        assert!((w[0] / w[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn combined_weights_validates_lengths() {
        let _ = combined_weights(&[1.0], &[1, 2]);
    }
}
