//! Concrete layer implementations.
//!
//! Every layer owns its parameters, its accumulated gradients, and whatever
//! forward-pass state its backward pass needs. Parameterized layers
//! ([`Dense`], [`Conv2d`]) additionally carry an optional **unit mask**:
//! the Helios soft-training mechanism that excludes individual output
//! neurons / channels from a training cycle. A masked-out unit produces
//! zero activation and receives zero gradient, exactly the sub-model
//! semantics of the paper's partial training (§V.A).

use crate::{NnError, Result};
use helios_tensor::{
    avg_pool2d, avg_pool2d_backward, conv2d, conv2d_backward, conv2d_backward_packed,
    gather_channels, gather_elems, gather_rows_cols, he_normal, max_pool2d, max_pool2d_backward,
    scatter_add_elems, scatter_add_rows_cols, scatter_channels, scatter_cols, xavier_uniform,
    ConvSpec, PoolIndices, PoolSpec, Tensor, TensorRng, UnitMask,
};

/// Common interface of layers whose output units can be masked.
///
/// Implemented by [`Dense`] (units are neurons) and [`Conv2d`] (units are
/// output channels). The Helios scheduler manipulates layers exclusively
/// through this trait.
pub(crate) trait UnitMaskable {
    /// Number of output units.
    fn units(&self) -> usize;

    /// Installs (or clears, with `None`) the unit mask.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MaskLengthMismatch`] when the mask length differs
    /// from [`UnitMaskable::units`].
    fn set_unit_mask(&mut self, mask: Option<UnitMask>) -> Result<()>;

    /// The current mask, if any.
    fn unit_mask(&self) -> Option<&UnitMask>;
}

fn validate_mask(units: usize, mask: Option<&UnitMask>) -> Result<()> {
    match mask {
        Some(m) if m.len() != units => Err(NnError::MaskLengthMismatch {
            units,
            mask_len: m.len(),
        }),
        _ => Ok(()),
    }
}

/// Active indices of `mask`, or `None` when every unit is active — an
/// all-true mask is equivalent to no mask, so packing it would only
/// copy data without saving work.
fn active_indices(mask: Option<&UnitMask>) -> Option<Vec<usize>> {
    mask.filter(|m| !m.is_full())
        .map(|m| m.iter_ones().collect())
}

/// A packed-execution dispatch, derived once per installed mask: the
/// active output units and active input positions, each `None` when
/// that axis is unmasked and stays full-width.
#[derive(Debug, Clone)]
struct PackedPlan {
    out_idx: Option<Vec<usize>>,
    in_idx: Option<Vec<usize>>,
    /// [`Conv2d`] only: the weight columns of the active input
    /// channels, each channel's contiguous `K·K` block.
    col_idx: Option<Vec<usize>>,
}

/// The plan for a layer's `(mask, input_mask)`, or `None` when the
/// zeroing path must run: packed execution is off, neither axis is
/// masked, or an axis is masked down to nothing (fully-masked layers
/// keep the zeroing path, which is trivially correct for degenerate
/// shapes).
fn packed_plan(
    packed: bool,
    mask: Option<&UnitMask>,
    input_mask: Option<&UnitMask>,
) -> Option<PackedPlan> {
    if !packed {
        return None;
    }
    let out_idx = active_indices(mask);
    let in_idx = active_indices(input_mask);
    let packable = (out_idx.is_some() || in_idx.is_some())
        && out_idx.as_ref().is_none_or(|v| !v.is_empty())
        && in_idx.as_ref().is_none_or(|v| !v.is_empty());
    packable.then_some(PackedPlan {
        out_idx,
        in_idx,
        col_idx: None,
    })
}

/// The zeroing path's masking: clears every entry of a row-major
/// `[N, units, inner]` block whose unit is masked out (`inner` is 1 for
/// dense columns and `H·W` for conv planes).
fn zero_inactive(data: &mut [f32], mask: &UnitMask, inner: usize) {
    for (i, block) in data.chunks_mut(inner.max(1)).enumerate() {
        if !mask.get(i % mask.len()) {
            block.fill(0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = x · W + b` with `W: [in, out]`.
///
/// Output unit `j` (a *neuron* in the paper's vocabulary) owns weight
/// column `j` and bias element `j`.
///
/// Alongside its own unit `mask`, the layer carries an optional
/// `input_mask`: a per-input-feature guarantee, installed by
/// [`Network::set_masks`](crate::Network::set_masks) from the *upstream*
/// layer's unit mask, that the marked input positions are exactly zero.
/// With either mask installed, the layer runs **packed execution**:
/// active rows/columns are gathered into compact tensors, the GEMMs run
/// on the packed shapes, and the results are scattered back — bitwise
/// identical to full-width execution (the matmul kernel already skips
/// zero operands term-by-term) but proportionally cheaper.
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    mask: Option<UnitMask>,
    input_mask: Option<UnitMask>,
    maskable: bool,
    /// See [`Network::set_packed_execution`](crate::Network::set_packed_execution).
    packed: bool,
    plan: Option<PackedPlan>,
    /// Set by every mask and packed-execution setter; cleared when
    /// `plan` is re-derived.
    plan_stale: bool,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        Dense {
            in_features,
            out_features,
            weight: xavier_uniform(&[in_features, out_features], in_features, out_features, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            mask: None,
            input_mask: None,
            maskable: true,
            packed: true,
            plan: None,
            plan_stale: false,
            cached_input: None,
        }
    }

    /// Marks the layer as exempt from masking (used for classifier heads,
    /// whose class outputs must never be dropped).
    pub fn non_maskable(mut self) -> Self {
        self.maskable = false;
        self
    }

    /// Whether the soft-training scheduler may mask this layer.
    pub(crate) fn is_maskable(&self) -> bool {
        self.maskable
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Installs the upstream-derived input-feature mask (`true` = the
    /// feature may be nonzero, `false` = guaranteed exactly zero). An
    /// input mask is an optimization hint, never a requirement, so a
    /// length mismatch conservatively clears it.
    pub(crate) fn set_input_mask(&mut self, mask: Option<UnitMask>) {
        self.input_mask = mask.filter(|m| m.len() == self.in_features);
        self.plan_stale = true;
    }

    /// See [`Network::set_packed_execution`](crate::Network::set_packed_execution).
    pub(crate) fn set_packed(&mut self, enabled: bool) {
        self.packed = enabled;
        self.plan_stale = true;
    }

    /// Derives the packed plan from the installed masks if a setter has
    /// changed them since the last derivation: once per installed mask
    /// that runs, never for one that is only costed.
    fn refresh_plan(&mut self) {
        if std::mem::take(&mut self.plan_stale) {
            self.plan = packed_plan(self.packed, self.mask.as_ref(), self.input_mask.as_ref());
        }
    }

    pub(crate) fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        self.refresh_plan();
        let y = match &self.plan {
            Some(plan) => self.forward_packed(x, plan)?,
            None => {
                let mut y = x.matmul(&self.weight)?.add_row_broadcast(&self.bias)?;
                if let Some(mask) = &self.mask {
                    zero_inactive(y.as_mut_slice(), mask, 1);
                }
                y
            }
        };
        self.cached_input = Some(x.clone());
        Ok(y)
    }

    /// Packed forward: gather the active input columns of `x` and the
    /// active `[in × out]` sub-grid of the weight, run the GEMM on the
    /// packed shapes, scatter into a full-width output (exact `+0.0` in
    /// masked columns). The masked input columns of `x` hold exact
    /// zeros, which the matmul kernel would have skipped term-by-term,
    /// so dropping them preserves every accumulation order.
    fn forward_packed(&self, x: &Tensor, plan: &PackedPlan) -> Result<Tensor> {
        let (out_idx, in_idx) = (plan.out_idx.as_deref(), plan.in_idx.as_deref());
        let xp_store;
        let x_p = match in_idx {
            Some(idx) => {
                xp_store = gather_rows_cols(x, None, Some(idx))?;
                &xp_store
            }
            None => x,
        };
        let w_p = gather_rows_cols(&self.weight, in_idx, out_idx)?;
        let bp_store;
        let b_p = match out_idx {
            Some(idx) => {
                bp_store = gather_elems(&self.bias, idx)?;
                &bp_store
            }
            None => &self.bias,
        };
        let y_p = x_p.matmul(&w_p)?.add_row_broadcast(b_p)?;
        match out_idx {
            Some(idx) => Ok(scatter_cols(&y_p, idx, self.out_features)?),
            None => Ok(y_p),
        }
    }

    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.refresh_plan();
        // Moved out for the call so the packed path can borrow it beside
        // `&mut self`; restored before the result is returned.
        if let Some(plan) = self.plan.take() {
            let g = self.backward_packed(grad_out, &plan);
            self.plan = Some(plan);
            return g;
        }
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Dense" })?;
        let mut g = grad_out.clone();
        if let Some(mask) = &self.mask {
            zero_inactive(g.as_mut_slice(), mask, 1);
        }
        // dW = xᵀ·g and dX = g·Wᵀ via the transposed-operand GEMM entry
        // points: the kernel reads `x` and `weight` where they lie, no
        // materialized `transpose()` copies on the training path.
        self.grad_weight.axpy(1.0, &x.matmul_tn(&g)?)?;
        self.grad_bias.axpy(1.0, &g.sum_rows()?)?;
        Ok(g.matmul_nt(&self.weight)?)
    }

    /// Packed backward: masked output gradients are definitionally
    /// zeroed, so gather only the active columns and scatter-add the
    /// packed weight/bias gradients into the active sub-grid (masked
    /// entries accumulate exactly nothing either way). The input axis
    /// of the returned gradient stays **full-width**: `grad_input` must
    /// be bitwise identical everywhere, including masked input
    /// positions, whose values come out of the same GEMM terms the
    /// full-width kernel would have used.
    fn backward_packed(&mut self, grad_out: &Tensor, plan: &PackedPlan) -> Result<Tensor> {
        let (out_idx, in_idx) = (plan.out_idx.as_deref(), plan.in_idx.as_deref());
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Dense" })?;
        let gp_store;
        let g_p = match out_idx {
            Some(idx) => {
                gp_store = gather_rows_cols(grad_out, None, Some(idx))?;
                &gp_store
            }
            None => grad_out,
        };
        let xp_store;
        let x_p = match in_idx {
            Some(idx) => {
                xp_store = gather_rows_cols(x, None, Some(idx))?;
                &xp_store
            }
            None => x,
        };
        let gw_p = x_p.matmul_tn(g_p)?;
        scatter_add_rows_cols(&mut self.grad_weight, &gw_p, in_idx, out_idx)?;
        let gb_p = g_p.sum_rows()?;
        match out_idx {
            Some(idx) => scatter_add_elems(&mut self.grad_bias, &gb_p, idx)?,
            None => self.grad_bias.axpy(1.0, &gb_p)?,
        }
        let wr_store;
        let w_rows = match out_idx {
            Some(idx) => {
                wr_store = gather_rows_cols(&self.weight, None, Some(idx))?;
                &wr_store
            }
            None => &self.weight,
        };
        Ok(g_p.matmul_nt(w_rows)?)
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    pub(crate) fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    pub(crate) fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    pub(crate) fn for_each_param_grad_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

impl UnitMaskable for Dense {
    fn units(&self) -> usize {
        self.out_features
    }

    fn set_unit_mask(&mut self, mask: Option<UnitMask>) -> Result<()> {
        validate_mask(self.out_features, mask.as_ref())?;
        self.mask = mask;
        self.plan_stale = true;
        Ok(())
    }

    fn unit_mask(&self) -> Option<&UnitMask> {
        self.mask.as_ref()
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution layer over `[N, C, H, W]` tensors.
///
/// Output unit `o` (a *channel*) owns weight row `o` of the
/// `[O, C·K·K]` weight matrix and bias element `o`.
/// Like [`Dense`], the layer carries an optional `input_mask` of
/// guaranteed-zero input channels (derived from the upstream layer's
/// unit mask by [`Network::set_masks`](crate::Network::set_masks)) and
/// runs packed execution over the active output channels × active input
/// channels whenever either mask is installed.
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: ConvSpec,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    mask: Option<UnitMask>,
    input_mask: Option<UnitMask>,
    maskable: bool,
    /// See [`Network::set_packed_execution`](crate::Network::set_packed_execution).
    packed: bool,
    plan: Option<PackedPlan>,
    /// Set by every mask and packed-execution setter; cleared when
    /// `plan` is re-derived.
    plan_stale: bool,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    pub fn new(spec: ConvSpec, rng: &mut TensorRng) -> Self {
        let wd = spec.weight_dims();
        let fan_in = wd[1];
        Conv2d {
            spec,
            weight: he_normal(&wd, fan_in, rng),
            bias: Tensor::zeros(&[spec.out_channels]),
            grad_weight: Tensor::zeros(&wd),
            grad_bias: Tensor::zeros(&[spec.out_channels]),
            mask: None,
            input_mask: None,
            maskable: true,
            packed: true,
            plan: None,
            plan_stale: false,
            cached_input: None,
        }
    }

    /// Marks the layer as exempt from masking.
    pub(crate) fn non_maskable(mut self) -> Self {
        self.maskable = false;
        self
    }

    /// Whether the soft-training scheduler may mask this layer.
    pub(crate) fn is_maskable(&self) -> bool {
        self.maskable
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Installs the upstream-derived input-channel mask (`true` = the
    /// channel may be nonzero, `false` = guaranteed exactly zero). An
    /// input mask is an optimization hint, never a requirement, so a
    /// length mismatch conservatively clears it.
    pub(crate) fn set_input_mask(&mut self, mask: Option<UnitMask>) {
        self.input_mask = mask.filter(|m| m.len() == self.spec.in_channels);
        self.plan_stale = true;
    }

    /// See [`Network::set_packed_execution`](crate::Network::set_packed_execution).
    pub(crate) fn set_packed(&mut self, enabled: bool) {
        self.packed = enabled;
        self.plan_stale = true;
    }

    /// Derives the packed plan as [`Dense`] does. The `[O, C·K·K]`
    /// weight layout is input-channel-major, so each active input
    /// channel owns one contiguous `K·K` block of weight columns.
    fn refresh_plan(&mut self) {
        if !std::mem::take(&mut self.plan_stale) {
            return;
        }
        let kk = self.spec.kernel * self.spec.kernel;
        self.plan =
            packed_plan(self.packed, self.mask.as_ref(), self.input_mask.as_ref()).map(|plan| {
                PackedPlan {
                    col_idx: plan
                        .in_idx
                        .as_ref()
                        .map(|idx| idx.iter().flat_map(|&ci| ci * kk..(ci + 1) * kk).collect()),
                    ..plan
                }
            });
    }

    /// The convolution geometry restricted to the active channels.
    fn packed_spec(&self, out_idx: Option<&[usize]>, in_idx: Option<&[usize]>) -> ConvSpec {
        ConvSpec::new(
            in_idx.map_or(self.spec.in_channels, <[usize]>::len),
            out_idx.map_or(self.spec.out_channels, <[usize]>::len),
            self.spec.kernel,
            self.spec.stride,
            self.spec.padding,
        )
    }

    pub(crate) fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        self.refresh_plan();
        let y = match &self.plan {
            Some(plan) => self.forward_packed(x, plan)?,
            None => {
                let mut y = conv2d(x, &self.weight, &self.bias, &self.spec)?;
                self.mask_channels(&mut y);
                y
            }
        };
        self.cached_input = Some(x.clone());
        Ok(y)
    }

    /// The zeroing path: clears the masked-out output-channel planes.
    fn mask_channels(&self, t: &mut Tensor) {
        if let Some(mask) = &self.mask {
            let plane = t.dims()[2] * t.dims()[3];
            zero_inactive(t.as_mut_slice(), mask, plane);
        }
    }

    /// Packed forward: gather the active input-channel planes, the
    /// active weight sub-grid (rows = active output channels, columns =
    /// the active channels' `K·K` blocks), run the convolution on the
    /// packed geometry, and scatter the output planes back (exact
    /// `+0.0` in masked channels). Masked input planes hold exact
    /// zeros, so dropping their patch columns removes only terms the
    /// GEMM kernel would have skipped anyway.
    fn forward_packed(&self, x: &Tensor, plan: &PackedPlan) -> Result<Tensor> {
        let (out_idx, in_idx) = (plan.out_idx.as_deref(), plan.in_idx.as_deref());
        let xp_store;
        let x_p = match in_idx {
            Some(idx) => {
                xp_store = gather_channels(x, idx)?;
                &xp_store
            }
            None => x,
        };
        let w_p = gather_rows_cols(&self.weight, out_idx, plan.col_idx.as_deref())?;
        let bp_store;
        let b_p = match out_idx {
            Some(idx) => {
                bp_store = gather_elems(&self.bias, idx)?;
                &bp_store
            }
            None => &self.bias,
        };
        let y_p = conv2d(x_p, &w_p, b_p, &self.packed_spec(out_idx, in_idx))?;
        match out_idx {
            Some(idx) => Ok(scatter_channels(&y_p, idx, self.spec.out_channels)?),
            None => Ok(y_p),
        }
    }

    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.refresh_plan();
        // Moved out for the call so the packed path can borrow it beside
        // `&mut self`; restored before the result is returned.
        if let Some(plan) = self.plan.take() {
            let g = self.backward_packed(grad_out, &plan);
            self.plan = Some(plan);
            return g;
        }
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Conv2d" })?;
        let mut g = grad_out.clone();
        self.mask_channels(&mut g);
        let grads = conv2d_backward(x, &self.weight, &g, &self.spec)?;
        self.grad_weight.axpy(1.0, &grads.grad_weight)?;
        self.grad_bias.axpy(1.0, &grads.grad_bias)?;
        Ok(grads.grad_input)
    }

    /// Packed backward: masked output-channel gradients are
    /// definitionally zeroed, so only the active planes are gathered;
    /// the packed weight/bias gradients scatter-add into the active
    /// sub-grid (masked entries accumulate exactly nothing either way).
    /// [`conv2d_backward_packed`] keeps the weight's input-column axis
    /// whole so `grad_input` comes back full-shape and bit-exact.
    fn backward_packed(&mut self, grad_out: &Tensor, plan: &PackedPlan) -> Result<Tensor> {
        let (out_idx, in_idx) = (plan.out_idx.as_deref(), plan.in_idx.as_deref());
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Conv2d" })?;
        let gp_store;
        let g_p = match out_idx {
            Some(idx) => {
                gp_store = gather_channels(grad_out, idx)?;
                &gp_store
            }
            None => grad_out,
        };
        let xp_store;
        let x_p = match in_idx {
            Some(idx) => {
                xp_store = gather_channels(x, idx)?;
                &xp_store
            }
            None => x,
        };
        let wr_store;
        let w_rows = match out_idx {
            Some(idx) => {
                wr_store = gather_rows_cols(&self.weight, Some(idx), None)?;
                &wr_store
            }
            None => &self.weight,
        };
        let grads = conv2d_backward_packed(x_p, w_rows, g_p, &self.spec)?;
        scatter_add_rows_cols(
            &mut self.grad_weight,
            &grads.grad_weight,
            out_idx,
            plan.col_idx.as_deref(),
        )?;
        match out_idx {
            Some(idx) => scatter_add_elems(&mut self.grad_bias, &grads.grad_bias, idx)?,
            None => self.grad_bias.axpy(1.0, &grads.grad_bias)?,
        }
        Ok(grads.grad_input)
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    pub(crate) fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    pub(crate) fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    pub(crate) fn for_each_param_grad_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

impl UnitMaskable for Conv2d {
    fn units(&self) -> usize {
        self.spec.out_channels
    }

    fn set_unit_mask(&mut self, mask: Option<UnitMask>) -> Result<()> {
        validate_mask(self.spec.out_channels, mask.as_ref())?;
        self.mask = mask;
        self.plan_stale = true;
        Ok(())
    }

    fn unit_mask(&self) -> Option<&UnitMask> {
        self.mask.as_ref()
    }
}

// ---------------------------------------------------------------------------
// Relu
// ---------------------------------------------------------------------------

/// Rectified linear activation, `max(0, x)`, applied elementwise.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_positive: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu::default()
    }

    pub(crate) fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        self.cached_positive = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        Ok(x.map(|v| v.max(0.0)))
    }

    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let pos = self
            .cached_positive
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Relu" })?;
        let mut g = grad_out.clone();
        for (v, &p) in g.as_mut_slice().iter_mut().zip(pos) {
            if !p {
                *v = 0.0;
            }
        }
        Ok(g)
    }
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

/// Max pooling over `[N, C, H, W]` tensors.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    spec: PoolSpec,
    cached_indices: Option<PoolIndices>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with the given window and stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: PoolSpec::new(kernel, stride),
            cached_indices: None,
        }
    }

    /// The pooling geometry.
    pub fn spec(&self) -> &PoolSpec {
        &self.spec
    }

    pub(crate) fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let (y, idx) = max_pool2d(x, &self.spec)?;
        self.cached_indices = Some(idx);
        Ok(y)
    }

    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let idx = self
            .cached_indices
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "MaxPool2d" })?;
        Ok(max_pool2d_backward(grad_out, idx)?)
    }
}

/// Average pooling over `[N, C, H, W]` tensors.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    spec: PoolSpec,
    cached_input_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer with the given window and stride.
    pub(crate) fn new(kernel: usize, stride: usize) -> Self {
        AvgPool2d {
            spec: PoolSpec::new(kernel, stride),
            cached_input_dims: None,
        }
    }

    /// The pooling geometry.
    pub(crate) fn spec(&self) -> &PoolSpec {
        &self.spec
    }

    pub(crate) fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        self.cached_input_dims = Some(x.dims().to_vec());
        Ok(avg_pool2d(x, &self.spec)?)
    }

    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_input_dims
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "AvgPool2d" })?;
        Ok(avg_pool2d_backward(grad_out, &self.spec, dims)?)
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Collapses `[N, …]` into `[N, prod(…)]` for the transition from
/// convolutional to dense layers.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }

    pub(crate) fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let dims = x.dims().to_vec();
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        self.cached_dims = Some(dims);
        Ok(x.reshape(&[n, rest])?)
    }

    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Flatten" })?;
        Ok(grad_out.reshape(dims)?)
    }
}

// ---------------------------------------------------------------------------
// Residual
// ---------------------------------------------------------------------------

/// Residual block: `y = relu(body(x) + shortcut(x))`.
///
/// `body` is an arbitrary stack of layers; `shortcut` is an optional 1×1
/// projection used when the body changes channel count or stride (as in
/// ResNet downsampling stages). Without a projection the identity shortcut
/// is used.
#[derive(Debug, Clone)]
pub struct Residual {
    body: Vec<crate::Layer>,
    shortcut: Option<Box<Conv2d>>,
    cached_sum_positive: Option<Vec<bool>>,
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub(crate) fn new(body: Vec<crate::Layer>) -> Self {
        Residual {
            body,
            shortcut: None,
            cached_sum_positive: None,
        }
    }

    /// Creates a residual block with a 1×1 convolution projection shortcut.
    pub(crate) fn with_projection(body: Vec<crate::Layer>, projection: Conv2d) -> Self {
        Residual {
            body,
            shortcut: Some(Box::new(projection)),
            cached_sum_positive: None,
        }
    }

    /// The layers of the residual body.
    pub(crate) fn body(&self) -> &[crate::Layer] {
        &self.body
    }

    /// Mutable access to the body layers (used by the mask visitor).
    pub(crate) fn body_mut(&mut self) -> &mut [crate::Layer] {
        &mut self.body
    }

    /// The projection shortcut, if present.
    pub(crate) fn shortcut(&self) -> Option<&Conv2d> {
        self.shortcut.as_deref()
    }

    pub(crate) fn shortcut_mut(&mut self) -> Option<&mut Conv2d> {
        self.shortcut.as_deref_mut()
    }

    pub(crate) fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut h = x.clone();
        for layer in &mut self.body {
            h = layer.forward(&h)?;
        }
        let s = match &mut self.shortcut {
            Some(conv) => conv.forward(x)?,
            None => x.clone(),
        };
        let sum = h.add(&s)?;
        self.cached_sum_positive = Some(sum.as_slice().iter().map(|&v| v > 0.0).collect());
        Ok(sum.map(|v| v.max(0.0)))
    }

    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let pos = self
            .cached_sum_positive
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Residual" })?;
        let mut g = grad_out.clone();
        for (v, &p) in g.as_mut_slice().iter_mut().zip(pos) {
            if !p {
                *v = 0.0;
            }
        }
        let mut gb = g.clone();
        for layer in self.body.iter_mut().rev() {
            gb = layer.backward(&gb)?;
        }
        let gs = match &mut self.shortcut {
            Some(conv) => conv.backward(&g)?,
            None => g,
        };
        Ok(gb.add(&gs)?)
    }

    pub(crate) fn zero_grad(&mut self) {
        for layer in &mut self.body {
            layer.zero_grad();
        }
        if let Some(conv) = &mut self.shortcut {
            conv.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    fn rng() -> TensorRng {
        TensorRng::seed_from(11)
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, &mut rng());
        d.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        d.bias = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = d.forward(&x).unwrap();
        // [1*1+1*3+0.5, 1*2+1*4-0.5] = [4.5, 5.5]
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_mask_zeroes_output_and_freezes_unit() {
        let mut d = Dense::new(3, 4, &mut rng());
        d.set_unit_mask(Some((0..4).map(|j| j % 2 == 0).collect()))
            .unwrap();
        let x = Tensor::full(&[2, 3], 1.0);
        let y = d.forward(&x).unwrap();
        for i in 0..2 {
            assert_eq!(y.get(&[i, 1]).unwrap(), 0.0);
            assert_eq!(y.get(&[i, 3]).unwrap(), 0.0);
        }
        // Backward: masked units accumulate zero gradient.
        d.backward(&Tensor::full(&[2, 4], 1.0)).unwrap();
        for k in 0..3 {
            assert_eq!(d.grad_weight.get(&[k, 1]).unwrap(), 0.0);
            assert_ne!(d.grad_weight.get(&[k, 0]).unwrap(), 0.0);
        }
        assert_eq!(d.grad_bias.get(&[1]).unwrap(), 0.0);
        assert_eq!(d.grad_bias.get(&[0]).unwrap(), 2.0);
    }

    #[test]
    fn dense_mask_validation() {
        let mut d = Dense::new(3, 4, &mut rng());
        assert!(d.set_unit_mask(Some(UnitMask::full(3))).is_err());
        assert!(d.set_unit_mask(Some(UnitMask::full(4))).is_ok());
        assert!(d.set_unit_mask(None).is_ok());
        assert!(d.unit_mask().is_none());
    }

    #[test]
    fn dense_backward_before_forward_errors() {
        let mut d = Dense::new(2, 2, &mut rng());
        assert!(matches!(
            d.backward(&Tensor::full(&[1, 2], 1.0)),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut d = Dense::new(3, 2, &mut rng());
        let x = helios_tensor::uniform_init(&[4, 3], -1.0, 1.0, &mut rng());
        // Loss = sum of outputs.
        let _ = d.forward(&x).unwrap();
        let gin = d.backward(&Tensor::full(&[4, 2], 1.0)).unwrap();
        let eps = 1e-3f32;
        // Weight gradient check.
        for &i in &[0usize, 3, 5] {
            let mut dp = d.clone();
            dp.weight.as_mut_slice()[i] += eps;
            let mut dm = d.clone();
            dm.weight.as_mut_slice()[i] -= eps;
            let num = (dp.forward(&x).unwrap().sum() - dm.forward(&x).unwrap().sum()) / (2.0 * eps);
            let ana = d.grad_weight.as_slice()[i];
            assert!((num - ana).abs() < 1e-2, "weight {i}: {num} vs {ana}");
        }
        // Input gradient check via directional derivative.
        let dir = helios_tensor::uniform_init(&[4, 3], -1.0, 1.0, &mut rng());
        let analytic: f32 = gin
            .as_slice()
            .iter()
            .zip(dir.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let mut xp = x.clone();
        xp.axpy(eps, &dir).unwrap();
        let mut xm = x.clone();
        xm.axpy(-eps, &dir).unwrap();
        let num = (d.clone().forward(&xp).unwrap().sum() - d.clone().forward(&xm).unwrap().sum())
            / (2.0 * eps);
        assert!((num - analytic).abs() < 1e-2);
    }

    #[test]
    fn conv_mask_zeroes_channels() {
        let spec = ConvSpec::new(1, 3, 3, 1, 1);
        let mut c = Conv2d::new(spec, &mut rng());
        c.set_unit_mask(Some((0..3).map(|j| j != 1).collect()))
            .unwrap();
        let x = Tensor::full(&[1, 1, 4, 4], 1.0);
        let y = c.forward(&x).unwrap();
        for h in 0..4 {
            for w in 0..4 {
                assert_eq!(y.get(&[0, 1, h, w]).unwrap(), 0.0);
            }
        }
        c.backward(&Tensor::full(&[1, 3, 4, 4], 1.0)).unwrap();
        // Channel 1's weight row stays untrained.
        for k in 0..9 {
            assert_eq!(c.grad_weight.get(&[1, k]).unwrap(), 0.0);
        }
        assert_eq!(c.grad_bias.get(&[1]).unwrap(), 0.0);
        assert_ne!(c.grad_bias.get(&[0]).unwrap(), 0.0);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0, 3.0], &[1, 4]).unwrap();
        let y = r.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = r.backward(&Tensor::full(&[1, 4], 1.0)).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::full(&[2, 3, 4, 4], 1.0);
        let y = f.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
        let g = f.backward(&y).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn residual_identity_shortcut_doubles_positive_signal() {
        // Body = identity 1x1 conv with weight 1 → y = relu(x + x) = 2x for x > 0.
        let spec = ConvSpec::new(1, 1, 1, 1, 0);
        let mut conv = Conv2d::new(spec, &mut rng());
        conv.weight = Tensor::full(&[1, 1], 1.0);
        conv.bias = Tensor::zeros(&[1]);
        let mut block = Residual::new(vec![Layer::Conv2d(conv)]);
        let x = Tensor::full(&[1, 1, 2, 2], 1.5);
        let y = block.forward(&x).unwrap();
        assert!(y.as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-6));
        // Backward: gradient flows through both paths, so dx = 2·g.
        let g = block.backward(&Tensor::full(&[1, 1, 2, 2], 1.0)).unwrap();
        assert!(g.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn residual_projection_changes_channels() {
        let body_spec = ConvSpec::new(2, 4, 3, 1, 1);
        let proj_spec = ConvSpec::new(2, 4, 1, 1, 0);
        let mut r = rng();
        let block = Residual::with_projection(
            vec![Layer::Conv2d(Conv2d::new(body_spec, &mut r))],
            Conv2d::new(proj_spec, &mut r),
        );
        let mut block = block;
        let x = Tensor::full(&[1, 2, 4, 4], 1.0);
        let y = block.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        let g = block.backward(&Tensor::full(&[1, 4, 4, 4], 1.0)).unwrap();
        assert_eq!(g.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn maskable_flag_defaults_and_builder() {
        let d = Dense::new(2, 2, &mut rng());
        assert!(d.is_maskable());
        let d = d.non_maskable();
        assert!(!d.is_maskable());
        let c = Conv2d::new(ConvSpec::new(1, 1, 1, 1, 0), &mut rng()).non_maskable();
        assert!(!c.is_maskable());
    }
}
