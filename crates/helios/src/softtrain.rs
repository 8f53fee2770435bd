//! Soft-training (§V): contribution-guided rotating neuron selection with
//! the skip-cycle regulator (§VI.A).

use crate::{HeliosError, Result};
use helios_nn::{MaskableUnits, ModelMask, NeuronLayout};
use helios_tensor::{TensorRng, UnitMask};

/// Per-layer contribution values `U^{ij}` (Eq 1) of a straggler's maskable
/// neurons: `contributions[i][j]` is the L1 parameter change of unit `j`
/// of maskable layer `i` over the last training cycle.
pub(crate) type Contributions = Vec<Vec<f32>>;

/// Computes the contribution metric `U^{ij} = |θ(S_k) − θ(S_{k−1})|`
/// (Eq 1) for every maskable neuron from two flat parameter vectors.
///
/// # Panics
///
/// Panics if the vectors are shorter than the layout's parameter count.
pub fn contributions_from_delta(
    layout: &NeuronLayout,
    units: &MaskableUnits,
    prev: &[f32],
    curr: &[f32],
) -> Contributions {
    let mut out: Contributions = units.0.iter().map(|&n| vec![0.0; n]).collect();
    for (gi, group) in layout.groups().iter().enumerate() {
        let Some(mid) = group.maskable_id() else {
            continue;
        };
        for (unit, slot) in out[mid].iter_mut().enumerate() {
            *slot = layout.neuron_delta_l1(helios_nn::NeuronId { group: gi, unit }, prev, curr);
        }
    }
    out
}

/// Selects one layer's active set: `forced` rejoins first, then the
/// `top_count` highest-contribution units, then a uniformly random fill to
/// `k` active units (Eq 2's `TopK(U) ∪ Rand(U)`).
///
/// This is the sorting-and-selection step whose overhead the paper's §V
/// footnote measures (18 ms vs 12 min of training); `paper_properties.rs`
/// checks the ratio against an AlexNet training step.
///
/// # Panics
///
/// Panics if `k` exceeds the layer width or a forced index is out of
/// range.
pub fn select_layer_mask(
    contributions: &[f32],
    k: usize,
    top_count: usize,
    forced: &[usize],
    rng: &mut TensorRng,
) -> UnitMask {
    let n = contributions.len();
    assert!(k <= n, "cannot keep {k} of {n} units");
    let mut active: UnitMask = std::iter::repeat_n(false, n).collect();
    let mut chosen = 0usize;
    // 1. Forced rejoins (skip-cycle regulator), capped at k.
    for &f in forced {
        assert!(f < n, "forced unit {f} out of range");
        if chosen == k {
            break;
        }
        if !active.get(f) {
            active.set(f, true);
            chosen += 1;
        }
    }
    // 2. Top contributors among the not-yet-chosen. Only units with a
    // strictly positive contribution compete for TopK slots: with an
    // all-equal table (all-zero at cold start, or all-NaN after
    // divergence — `NaN > 0.0` is false) the stable descending sort
    // would otherwise hand the slots to units `0..top_count` every
    // cycle, permanently starving the random rotation of them. Units
    // without evidence of contribution fall through to the rotation
    // fill instead, which covers every unit over time.
    if chosen < k && top_count > 0 {
        let mut order: Vec<usize> = (0..n)
            .filter(|&i| !active.get(i) && contributions[i] > 0.0)
            .collect();
        order.sort_by(|&a, &b| contributions[b].total_cmp(&contributions[a]));
        for &i in order.iter().take(top_count.min(k - chosen)) {
            active.set(i, true);
            chosen += 1;
        }
    }
    // 3. Random rotation fill from the remainder.
    if chosen < k {
        let rest: Vec<usize> = (0..n).filter(|&i| !active.get(i)).collect();
        for idx in rng.sample_indices(rest.len(), k - chosen) {
            active.set(rest[idx], true);
        }
    }
    active
}

/// The per-straggler soft-training scheduler: owns the straggler's volume,
/// the rotation RNG, and the server-side skip counters `C_s`.
///
/// # Example
///
/// ```
/// use helios_core::softtrain::SoftTrainer;
/// use helios_nn::MaskableUnits;
/// use helios_tensor::TensorRng;
///
/// let units = MaskableUnits(vec![8, 16]);
/// let mut st = SoftTrainer::new(units, 0.5, 0.1, true, TensorRng::seed_from(0))
///     .expect("valid parameters");
/// let mask = st.next_mask(None); // first cycle: random sub-model
/// st.observe(&mask);
/// assert_eq!(mask.active_counts(&MaskableUnits(vec![8, 16])), vec![4, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct SoftTrainer {
    units: MaskableUnits,
    keep: f64,
    p_s: f64,
    regulate: bool,
    skip_cycles: Vec<Vec<u32>>,
    rng: TensorRng,
}

impl SoftTrainer {
    /// Creates a scheduler for a straggler whose maskable layers have
    /// `units` widths, training a `keep` fraction with `p_s` of the kept
    /// set reserved for top contributors. `regulate` enables the §VI.A
    /// skip-cycle regulator.
    ///
    /// # Errors
    ///
    /// Returns [`HeliosError::InvalidConfig`] when `keep` is outside
    /// `(0, 1]` or `p_s` outside `[0, 1]`.
    pub fn new(
        units: MaskableUnits,
        keep: f64,
        p_s: f64,
        regulate: bool,
        rng: TensorRng,
    ) -> Result<Self> {
        if !(keep > 0.0 && keep <= 1.0) {
            return Err(HeliosError::InvalidConfig {
                what: format!("keep ratio {keep} outside (0, 1]"),
            });
        }
        if !(0.0..=1.0).contains(&p_s) {
            return Err(HeliosError::InvalidConfig {
                what: format!("P_s {p_s} outside [0, 1]"),
            });
        }
        let skip_cycles = units.0.iter().map(|&n| vec![0u32; n]).collect();
        Ok(SoftTrainer {
            units,
            keep,
            p_s,
            regulate,
            skip_cycles,
            rng,
        })
    }

    /// The maskable-layer widths this scheduler draws masks over.
    pub(crate) fn units(&self) -> &MaskableUnits {
        &self.units
    }

    /// Current keep ratio (the straggler's expected model volume).
    pub(crate) fn keep(&self) -> f64 {
        self.keep
    }

    /// Updates the keep ratio (dynamic volume adjustment).
    ///
    /// # Errors
    ///
    /// Returns [`HeliosError::InvalidConfig`] for a ratio outside `(0, 1]`.
    pub(crate) fn set_keep(&mut self, keep: f64) -> Result<()> {
        if !(keep > 0.0 && keep <= 1.0) {
            return Err(HeliosError::InvalidConfig {
                what: format!("keep ratio {keep} outside (0, 1]"),
            });
        }
        self.keep = keep;
        Ok(())
    }

    /// The paper's skip threshold `1 + m / Σ p_i n_i` (§VI.A): total
    /// maskable neurons over the selected count per cycle.
    pub fn skip_threshold(&self) -> f64 {
        let m = self.units.total() as f64;
        let selected: usize = crate::target::keep_counts(&self.units, self.keep)
            .iter()
            .sum();
        1.0 + m / (selected.max(1) as f64)
    }

    /// Units whose skip counter exceeds the threshold and must rejoin the
    /// next cycle, as `(layer, unit)` pairs.
    pub fn forced_rejoins(&self) -> Vec<(usize, usize)> {
        if !self.regulate {
            return Vec::new();
        }
        let threshold = self.skip_threshold();
        let mut out = Vec::new();
        for (layer, counts) in self.skip_cycles.iter().enumerate() {
            for (unit, &c) in counts.iter().enumerate() {
                if c as f64 > threshold {
                    out.push((layer, unit));
                }
            }
        }
        out
    }

    /// Produces the next cycle's mask.
    ///
    /// With `contributions` from the previous cycle, each layer keeps its
    /// top `P_s` contributors plus a rotating random remainder (Eq 2);
    /// without (the first cycle), the selection is uniformly random.
    /// Forced rejoins from the regulator always enter.
    ///
    /// # Panics
    ///
    /// Panics if `contributions` layer widths disagree with the scheduler's
    /// unit table.
    pub fn next_mask(&mut self, contributions: Option<&Contributions>) -> ModelMask {
        if let Some(c) = contributions {
            assert_eq!(c.len(), self.units.num_layers(), "layer count mismatch");
            for (i, layer) in c.iter().enumerate() {
                assert_eq!(layer.len(), self.units.0[i], "layer {i} width mismatch");
            }
        }
        let counts = crate::target::keep_counts(&self.units, self.keep);
        let forced = self.forced_rejoins();
        let mut mask = ModelMask::all_active(&self.units);
        for (i, (&n, &k)) in self.units.0.iter().zip(&counts).enumerate() {
            let layer_forced: Vec<usize> = forced
                .iter()
                .filter(|(l, _)| *l == i)
                .map(|&(_, u)| u)
                .collect();
            let layer = match contributions {
                Some(c) => {
                    // K = P_s · P_i · n_i top contributors (Eq 2).
                    let top_count = (self.p_s * k as f64).round() as usize;
                    select_layer_mask(&c[i], k, top_count, &layer_forced, &mut self.rng)
                }
                None => {
                    let zeros = vec![0.0f32; n];
                    select_layer_mask(&zeros, k, 0, &layer_forced, &mut self.rng)
                }
            };
            mask.set_layer(i, Some(layer));
        }
        mask
    }

    /// Records which units the cycle actually trained, updating the skip
    /// counters (`C_s = 0` for active units, `+1` for skipped ones).
    pub fn observe(&mut self, mask: &ModelMask) {
        for (layer, counts) in self.skip_cycles.iter_mut().enumerate() {
            for (unit, c) in counts.iter_mut().enumerate() {
                if mask.is_active(layer, unit) {
                    *c = 0;
                } else {
                    *c += 1;
                }
            }
        }
    }

    /// Records a cycle whose scheduled sub-model never arrived: the
    /// update was dropped in transit or missed the round deadline, so
    /// *no* unit trained. Every counter increments — the units that
    /// were scheduled wasted their cycle, and the idle ones skipped one
    /// more — keeping the §VI.A regulator honest under lossy links.
    pub(crate) fn observe_missed(&mut self) {
        for counts in &mut self.skip_cycles {
            for c in counts.iter_mut() {
                *c += 1;
            }
        }
    }

    /// Current skip counters (read-only, for inspection and tests).
    pub fn skip_cycles(&self) -> &[Vec<u32>] {
        &self.skip_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units() -> MaskableUnits {
        MaskableUnits(vec![10, 20])
    }

    fn trainer(keep: f64, p_s: f64, regulate: bool) -> SoftTrainer {
        SoftTrainer::new(units(), keep, p_s, regulate, TensorRng::seed_from(1)).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(SoftTrainer::new(units(), 0.0, 0.1, true, TensorRng::seed_from(0)).is_err());
        assert!(SoftTrainer::new(units(), 0.5, 1.5, true, TensorRng::seed_from(0)).is_err());
        assert!(SoftTrainer::new(units(), 0.5, 0.1, true, TensorRng::seed_from(0)).is_ok());
        let mut t = trainer(0.5, 0.1, true);
        assert!(t.set_keep(0.3).is_ok());
        assert!(t.set_keep(0.0).is_err());
        assert_eq!(t.keep(), 0.3);
    }

    #[test]
    fn select_layer_honours_topk_and_forced() {
        let mut rng = TensorRng::seed_from(2);
        let contribs = vec![0.1, 0.9, 0.5, 0.0, 0.8, 0.2];
        // k=3, top 2 by contribution are units 1 and 4; unit 3 forced.
        let mask = select_layer_mask(&contribs, 3, 2, &[3], &mut rng);
        assert_eq!(mask.count_ones(), 3);
        assert!(mask.get(3), "forced unit must join");
        assert!(mask.get(1), "top contributor must join");
        assert!(mask.get(4), "second contributor must join");
    }

    #[test]
    fn select_layer_random_fill_rotates() {
        let mut rng = TensorRng::seed_from(3);
        let zeros = vec![0.0f32; 12];
        let a = select_layer_mask(&zeros, 4, 0, &[], &mut rng);
        let b = select_layer_mask(&zeros, 4, 0, &[], &mut rng);
        assert_eq!(a.count_ones(), 4);
        assert_ne!(a, b, "pure random selection should rotate");
    }

    #[test]
    fn select_layer_forced_overflow_caps_at_k() {
        let mut rng = TensorRng::seed_from(4);
        let zeros = vec![0.0f32; 5];
        let mask = select_layer_mask(&zeros, 2, 0, &[0, 1, 2, 3], &mut rng);
        assert_eq!(mask.count_ones(), 2);
    }

    #[test]
    fn first_cycle_mask_is_random_with_exact_counts() {
        let mut t = trainer(0.4, 0.1, true);
        let m = t.next_mask(None);
        assert_eq!(m.active_counts(&units()), vec![4, 8]);
    }

    #[test]
    fn contribution_guided_mask_keeps_top_units() {
        let mut t = trainer(0.4, 0.5, false);
        // Layer 0: unit 9 dominates. Layer 1: units 0 and 1 dominate.
        let mut c: Contributions = vec![vec![0.0; 10], vec![0.0; 20]];
        c[0][9] = 5.0;
        c[1][0] = 3.0;
        c[1][1] = 2.0;
        let m = t.next_mask(Some(&c));
        assert!(m.is_active(0, 9));
        assert!(m.is_active(1, 0));
        assert!(m.is_active(1, 1));
        assert_eq!(m.active_counts(&units()), vec![4, 8]);
    }

    #[test]
    fn skip_threshold_matches_formula() {
        let t = trainer(0.5, 0.1, true);
        // m = 30, selected = 5 + 10 = 15 → 1 + 30/15 = 3.
        assert!((t.skip_threshold() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn regulator_forces_long_skipped_units_back() {
        let mut t = trainer(0.5, 0.0, true);
        // Craft a mask that always skips unit 0 of layer 0.
        let mut skip_first = ModelMask::all_active(&units());
        skip_first.set_layer(0, Some((0..10).map(|j| j != 0).collect()));
        skip_first.set_layer(1, Some(UnitMask::full(20)));
        // Observe enough cycles to cross the threshold (3).
        for _ in 0..4 {
            t.observe(&skip_first);
        }
        let forced = t.forced_rejoins();
        assert_eq!(forced, vec![(0, 0)]);
        // The next mask must include the forced unit.
        let m = t.next_mask(None);
        assert!(m.is_active(0, 0), "regulator must pull unit back in");
        // After training it, the counter resets.
        t.observe(&m);
        assert_eq!(t.skip_cycles()[0][0], 0);
    }

    #[test]
    fn regulator_disabled_never_forces() {
        let mut t = trainer(0.5, 0.0, false);
        let mut skip_first = ModelMask::all_active(&units());
        skip_first.set_layer(0, Some((0..10).map(|j| j != 0).collect()));
        for _ in 0..10 {
            t.observe(&skip_first);
        }
        assert!(t.forced_rejoins().is_empty());
    }

    #[test]
    fn rotation_eventually_covers_every_neuron() {
        // The paper's model-integrity claim: over enough cycles, every
        // neuron joins training at least once.
        let mut t = trainer(0.3, 0.1, true);
        let mut ever_active = [vec![false; 10], vec![false; 20]];
        let mut c: Contributions = vec![vec![0.0; 10], vec![0.0; 20]];
        for _ in 0..30 {
            let m = t.next_mask(Some(&c));
            t.observe(&m);
            for (layer, row) in ever_active.iter_mut().enumerate() {
                for (unit, seen) in row.iter_mut().enumerate() {
                    if m.is_active(layer, unit) {
                        *seen = true;
                        // Active neurons accrue fake contribution, making
                        // the test adversarial: high-U units dominate.
                        c[layer][unit] += 1.0;
                    }
                }
            }
        }
        for (layer, row) in ever_active.iter().enumerate() {
            for (unit, &seen) in row.iter().enumerate() {
                assert!(seen, "neuron ({layer}, {unit}) never trained in 30 cycles");
            }
        }
    }

    #[test]
    fn selection_survives_nan_contributions() {
        // Failure injection: a diverged client reports NaN deltas; the
        // scheduler must neither panic nor prioritize the NaNs.
        let mut rng = TensorRng::seed_from(9);
        let contribs = vec![f32::NAN, 5.0, f32::NAN, 1.0, 0.5, f32::NAN];
        let mask = select_layer_mask(&contribs, 2, 2, &[], &mut rng);
        assert_eq!(mask.count_ones(), 2);
        assert!(mask.get(1), "finite top contributor wins over NaNs");
        assert!(mask.get(3), "second finite contributor wins over NaNs");
    }

    #[test]
    fn trainer_survives_nan_contribution_table() {
        let mut t = trainer(0.4, 0.5, true);
        let c: Contributions = vec![vec![f32::NAN; 10], vec![f32::NAN; 20]];
        let m = t.next_mask(Some(&c));
        assert_eq!(m.active_counts(&units()), vec![4, 8]);
    }

    /// Regression for the TopK tie bias: with an all-equal contribution
    /// table the old stable descending sort handed the `top_count` slots
    /// to units `0..top_count` on every single cycle, so those units
    /// were permanently pinned active and the slots never rotated. With
    /// non-positive contributions excluded from TopK, an all-zero table
    /// must behave like pure random rotation — no unit selected in every
    /// cycle, exact keep counts preserved.
    #[test]
    fn all_zero_contributions_do_not_pin_topk_slots() {
        let mut rng = TensorRng::seed_from(7);
        let zeros = vec![0.0f32; 16];
        let mut always_active = [true; 16];
        for _ in 0..40 {
            let mask = select_layer_mask(&zeros, 4, 2, &[], &mut rng);
            assert_eq!(mask.count_ones(), 4);
            for (unit, seen) in always_active.iter_mut().enumerate() {
                *seen &= mask.get(unit);
            }
        }
        assert!(
            always_active.iter().all(|&pinned| !pinned),
            "an all-equal table must not pin any unit into every cycle's mask"
        );
    }

    /// Same pinning regression for an all-NaN table (diverged client):
    /// NaN fails `> 0.0`, so NaNs can neither win TopK slots nor bias
    /// which units the rotation covers.
    #[test]
    fn all_nan_contributions_do_not_pin_topk_slots() {
        let mut rng = TensorRng::seed_from(8);
        let nans = vec![f32::NAN; 16];
        let mut always_active = [true; 16];
        for _ in 0..40 {
            let mask = select_layer_mask(&nans, 4, 2, &[], &mut rng);
            assert_eq!(mask.count_ones(), 4);
            for (unit, seen) in always_active.iter_mut().enumerate() {
                *seen &= mask.get(unit);
            }
        }
        assert!(
            always_active.iter().all(|&pinned| !pinned),
            "NaN contributions must not pin any unit into every cycle's mask"
        );
    }

    #[test]
    fn observe_missed_increments_every_counter() {
        let mut t = trainer(0.5, 0.0, true);
        let m = t.next_mask(None);
        t.observe(&m);
        // A missed cycle wastes the scheduled units too: every counter
        // moves, including the ones `observe` just reset.
        t.observe_missed();
        t.observe_missed();
        for counts in t.skip_cycles() {
            for (unit, &c) in counts.iter().enumerate() {
                assert!(c >= 2, "unit {unit} skipped {c} < 2 cycles after 2 misses");
            }
        }
    }

    #[test]
    fn contributions_from_delta_maps_layout_to_layers() {
        use helios_nn::models;
        let mut rng = TensorRng::seed_from(5);
        let net = models::lenet(10, &mut rng);
        let layout = net.layout();
        let u = net.maskable_units();
        let prev = net.param_vector();
        let mut curr = prev.clone();
        // Perturb one conv-layer-0 unit's bias: group 0, unit 2.
        let idx = layout.neuron_param_indices(helios_nn::NeuronId { group: 0, unit: 2 });
        curr[*idx.last().unwrap()] += 0.5;
        let c = contributions_from_delta(&layout, &u, &prev, &curr);
        assert_eq!(c.len(), 3, "lenet has 3 maskable layers");
        assert!((c[0][2] - 0.5).abs() < 1e-6);
        assert_eq!(c[0][0], 0.0);
        assert!(c[1].iter().all(|&x| x == 0.0));
    }
}
