//! Concrete layer implementations.
//!
//! Every layer owns its parameters, its accumulated gradients, and whatever
//! forward-pass state its backward pass needs. [`Dense`] and [`Conv2d`]
//! keep the operand of their weight-gradient GEMM (the input, the patch
//! matrix), and their backward pass takes it: a second backward without
//! a forward is [`NnError::BackwardBeforeForward`], and a network
//! between steps holds no layer input or patch matrix. They keep their
//! parameters in one [`MaskedCore`], which also carries an optional
//! **unit mask**: the Helios soft-training
//! mechanism that excludes individual output neurons / channels from a
//! training cycle. A masked-out unit produces zero activation and receives
//! zero gradient, exactly the sub-model semantics of the paper's partial
//! training (§V.A).

use crate::{NnError, Result};
use helios_tensor::{
    avg_pool2d, avg_pool2d_backward, conv2d, conv2d_backward_with_patches, conv2d_with_patches,
    gather_channels, gather_elems, gather_rows_cols, he_normal, max_pool2d, max_pool2d_backward,
    max_pool2d_values, scatter_add_elems, scatter_add_rows_cols, scatter_channels, scatter_cols,
    xavier_uniform, ConvPatches, ConvSpec, PoolIndices, PoolSpec, Tensor, TensorError, TensorRng,
    UnitMask,
};
use std::borrow::Cow;

/// Restricts an activation or gradient to the listed units or inputs
/// along its unit axis (dense columns, conv channels).
type Gather = fn(&Tensor, &[usize]) -> std::result::Result<Tensor, TensorError>;

/// Spreads a packed output back to `n` units along the unit axis,
/// exact `+0.0` in the units it does not list.
type Scatter = fn(&Tensor, &[usize], usize) -> std::result::Result<Tensor, TensorError>;

/// A parameter of a [`MaskedCore`].
#[derive(Clone, Copy)]
enum Param {
    Weight,
    Bias,
}

/// Adds a backward kernel's gradient of one parameter into the layer's.
/// Kernels hand each over as soon as it is computed, so it is freed
/// before the next one is allocated, which keeps the peak heap down.
type Accumulate<'a> = &'a mut dyn FnMut(Param, &Tensor) -> Result<()>;

/// `t` gathered down to `idx`, or `t` itself when the axis is whole.
fn gathered<'a>(t: &'a Tensor, idx: Option<&[usize]>, gather: Gather) -> Result<Cow<'a, Tensor>> {
    Ok(match idx {
        Some(idx) => Cow::Owned(gather(t, idx)?),
        None => Cow::Borrowed(t),
    })
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
    /// `in_idx` as entries of the weight's input axis, when each input
    /// owns a block of several (`K·K` columns per conv channel); `None`
    /// when an input owns one entry and `in_idx` serves as is.
    in_weight_idx: Option<Vec<usize>>,
}

impl PackedPlan {
    /// Row and column indices of the weight sub-grid the active units
    /// and inputs span, for a weight whose units lie along `unit_axis`.
    fn weight_grid(&self, unit_axis: usize) -> [Option<&[usize]>; 2] {
        let inputs = self.in_weight_idx.as_deref().or(self.in_idx.as_deref());
        let mut grid = [inputs; 2];
        grid[unit_axis] = self.out_idx.as_deref();
        grid
    }
}

/// The state [`Dense`] and [`Conv2d`] share: a `[rows, cols]` weight
/// matrix whose output units lie along one axis, a bias per unit, their
/// gradients, the unit and input masks, and the packed plan derived from
/// them. The layer types keep their kernel geometry and what their
/// forward pass hands to their backward pass.
///
/// Alongside its own unit `mask`, a core carries an optional
/// `input_mask`: a per-input guarantee, installed by
/// [`Network::set_masks`](crate::Network::set_masks) from the *upstream*
/// layer's unit mask, that the marked input positions are exactly zero.
/// With either mask installed the core runs **packed execution**: active
/// inputs and units are gathered into compact tensors, the kernel runs on
/// the packed shapes, and the results are scattered back — bitwise
/// identical to full-width execution (each dropped term multiplies an
/// exact zero: the GEMM's reference chain skips it, and the kernel skips
/// it too or, when B is finite, adds it without moving a bit; DESIGN.md
/// §4j) but proportionally cheaper. The full-width branch runs when
/// neither axis is masked, or when a mask leaves an axis empty
/// (trivially correct for degenerate shapes); masked units are then
/// zeroed in the output and in the incoming gradient.
#[derive(Debug, Clone)]
pub(crate) struct MaskedCore {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// Weight axis that indexes output units: 1 for a dense `[in, out]`
    /// weight, 0 for a conv `[O, C·K·K]` one.
    unit_axis: usize,
    /// Input positions (dense features, conv channels) the other weight
    /// axis is split into, one block of entries each.
    inputs: usize,
    mask: Option<UnitMask>,
    input_mask: Option<UnitMask>,
    maskable: bool,
    plan: Option<PackedPlan>,
}

impl MaskedCore {
    /// A maskable core around `weight`, zero bias and zero gradients.
    fn new(weight: Tensor, unit_axis: usize, inputs: usize) -> Self {
        let units = weight.dims()[unit_axis];
        MaskedCore {
            grad_weight: Tensor::zeros(weight.dims()),
            weight,
            bias: Tensor::zeros(&[units]),
            grad_bias: Tensor::zeros(&[units]),
            unit_axis,
            inputs,
            mask: None,
            input_mask: None,
            maskable: true,
            plan: None,
        }
    }

    /// Number of output units.
    pub(crate) fn units(&self) -> usize {
        self.bias.len()
    }

    /// `[rows, cols]` of the weight matrix.
    pub(crate) fn weight_dims(&self) -> [usize; 2] {
        [self.weight.dims()[0], self.weight.dims()[1]]
    }

    /// Weight axis that indexes output units (see [`MaskedCore`]).
    pub(crate) fn unit_axis(&self) -> usize {
        self.unit_axis
    }

    /// Whether the soft-training scheduler may mask this layer. Heads
    /// and projection shortcuts are not maskable.
    pub(crate) fn is_maskable(&self) -> bool {
        self.maskable
    }

    /// Checks that `mask` fits this layer's units.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MaskLengthMismatch`] when the mask length
    /// differs from [`MaskedCore::units`].
    pub(crate) fn validate_mask(&self, mask: Option<&UnitMask>) -> Result<()> {
        match mask {
            Some(m) if m.len() != self.units() => Err(NnError::MaskLengthMismatch {
                units: self.units(),
                mask_len: m.len(),
            }),
            _ => Ok(()),
        }
    }

    /// Installs (or clears, with `None`) the unit mask, which the caller
    /// has checked with [`MaskedCore::validate_mask`].
    pub(crate) fn set_unit_mask(&mut self, mask: Option<UnitMask>) {
        self.mask = mask;
    }

    /// The current unit mask, if any.
    pub(crate) fn unit_mask(&self) -> Option<&UnitMask> {
        self.mask.as_ref()
    }

    /// Installs the input mask implied by `prev`, the unit mask of the
    /// layer producing this one's input (`false` = that unit's outputs
    /// are exactly zero). Each unit covers `inputs / prev.len()`
    /// consecutive inputs: one for a conv channel or dense neuron, the
    /// `H·W` features of a channel for a dense layer after a flatten
    /// (the flatten of a row-major `[N, C, H, W]` tensor is
    /// channel-major). An input mask is an optimization hint, never a
    /// requirement, so one that does not divide the inputs is dropped.
    pub(crate) fn set_input_mask(&mut self, prev: Option<&UnitMask>) {
        let inputs = self.inputs;
        self.input_mask = prev
            .filter(|p| p.len() > 0 && inputs.is_multiple_of(p.len()))
            .map(|p| {
                let per = inputs / p.len();
                (0..inputs).map(|i| p.get(i / per)).collect()
            });
    }

    /// Derives the packed plan from the installed unit and input masks;
    /// [`Network::set_masks`](crate::Network::set_masks) and
    /// `clear_masks` call it once per install, after both masks are in
    /// place. No plan (the full-width branch) when neither axis is
    /// masked or an axis is masked down to nothing.
    pub(crate) fn derive_plan(&mut self) {
        let out_idx = active_indices(self.mask.as_ref());
        let in_idx = active_indices(self.input_mask.as_ref());
        let packable = (out_idx.is_some() || in_idx.is_some())
            && out_idx.as_ref().is_none_or(|v| !v.is_empty())
            && in_idx.as_ref().is_none_or(|v| !v.is_empty());
        let block = self.weight.dims()[1 - self.unit_axis] / self.inputs;
        self.plan = packable.then(|| PackedPlan {
            in_weight_idx: in_idx.as_ref().filter(|_| block > 1).map(|idx| {
                idx.iter()
                    .flat_map(|&i| i * block..(i + 1) * block)
                    .collect()
            }),
            out_idx,
            in_idx,
        });
    }

    /// Zeroes every masked unit's block of `t`, a row-major
    /// `[N, units, …]` output or output gradient.
    fn zero_masked(&self, t: &mut Tensor) {
        if let Some(mask) = &self.mask {
            let inner = t.dims()[1..].iter().product::<usize>() / mask.len().max(1);
            for (i, block) in t.as_mut_slice().chunks_mut(inner.max(1)).enumerate() {
                if !mask.get(i % mask.len()) {
                    block.fill(0.0);
                }
            }
        }
    }

    /// The forward pass. `kernel(x, weight, bias)` is the layer's
    /// computation, returning its output and what the layer keeps for
    /// backward. With a plan it runs on packed operands — `x` gathered
    /// to the active inputs by `gather`, the weight to the active
    /// sub-grid, the bias to the active units — and its output is
    /// scattered back to full width by `scatter`. The masked inputs of
    /// `x` hold exact zeros, whose terms the reference chain skips, so
    /// dropping them preserves every accumulation order. Without a plan
    /// it runs full-width and the masked units are zeroed, as in
    /// [`MaskedCore::infer`].
    fn forward<K>(
        &mut self,
        x: Cow<'_, Tensor>,
        gather: Gather,
        scatter: Scatter,
        kernel: impl FnOnce(Cow<'_, Tensor>, &Tensor, &Tensor) -> Result<(Tensor, K)>,
    ) -> Result<(Tensor, K)> {
        match &self.plan {
            Some(plan) => {
                let out_idx = plan.out_idx.as_deref();
                let x_p = match plan.in_idx.as_deref() {
                    Some(idx) => Cow::Owned(gather(&x, idx)?),
                    None => x,
                };
                let [rows, cols] = plan.weight_grid(self.unit_axis);
                let w_p = gather_rows_cols(&self.weight, rows, cols)?;
                let b_p = gathered(&self.bias, out_idx, gather_elems)?;
                let (y_p, kept) = kernel(x_p, &w_p, &b_p)?;
                let y = match out_idx {
                    Some(idx) => scatter(&y_p, idx, self.units())?,
                    None => y_p,
                };
                Ok((y, kept))
            }
            None => {
                let (mut y, kept) = kernel(x, &self.weight, &self.bias)?;
                self.zero_masked(&mut y);
                Ok((y, kept))
            }
        }
    }

    /// The full-width forward pass alone, caching nothing: `kernel` over
    /// the whole weight, then the masked units zeroed. Bitwise what
    /// [`MaskedCore::forward`] computes with or without a plan.
    fn infer(
        &self,
        x: &Tensor,
        kernel: impl FnOnce(&Tensor, &Tensor, &Tensor) -> Result<Tensor>,
    ) -> Result<Tensor> {
        let mut y = kernel(x, &self.weight, &self.bias)?;
        self.zero_masked(&mut y);
        Ok(y)
    }

    /// The backward pass. `kernel(weight_rows, grad, accumulate)` —
    /// holding what the layer kept from forward, which was computed
    /// under the same plan — hands the weight and bias gradients to
    /// `accumulate`, then returns the input gradient. With a plan the
    /// masked output gradients are definitionally zero, so only the
    /// active units' gradient planes are gathered, and the packed
    /// weight/bias gradients scatter-add into the active sub-grid
    /// (masked entries accumulate exactly nothing either way).
    /// `weight_rows` keeps the weight's input axis **whole**:
    /// `grad_input` must be bitwise identical everywhere, including
    /// masked input positions, whose values come out of the same GEMM
    /// terms the full-width kernel would have used.
    fn backward(
        &mut self,
        grad_out: Tensor,
        gather: Gather,
        kernel: impl FnOnce(&Tensor, &Tensor, Accumulate<'_>) -> Result<Tensor>,
    ) -> Result<Tensor> {
        let (g, w) = match &self.plan {
            Some(plan) => {
                let out_idx = plan.out_idx.as_deref();
                let g_p = gathered(&grad_out, out_idx, gather)?;
                let mut grid = [None; 2];
                grid[self.unit_axis] = out_idx;
                let w_rows = match out_idx {
                    Some(_) => Cow::Owned(gather_rows_cols(&self.weight, grid[0], grid[1])?),
                    None => Cow::Borrowed(&self.weight),
                };
                (g_p, w_rows)
            }
            None => {
                let mut g = grad_out;
                self.zero_masked(&mut g);
                (Cow::Owned(g), Cow::Borrowed(&self.weight))
            }
        };
        let (plan, unit_axis) = (self.plan.as_ref(), self.unit_axis);
        let (grad_weight, grad_bias) = (&mut self.grad_weight, &mut self.grad_bias);
        kernel(&w, &g, &mut |param, grad| {
            match (plan, param) {
                (None, Param::Weight) => grad_weight.axpy(1.0, grad)?,
                (None, Param::Bias) => grad_bias.axpy(1.0, grad)?,
                (Some(plan), Param::Weight) => {
                    let [rows, cols] = plan.weight_grid(unit_axis);
                    scatter_add_rows_cols(grad_weight, grad, rows, cols)?;
                }
                (Some(plan), Param::Bias) => match plan.out_idx.as_deref() {
                    Some(idx) => scatter_add_elems(grad_bias, grad, idx)?,
                    None => grad_bias.axpy(1.0, grad)?,
                },
            }
            Ok(())
        })
    }

    /// Resets the accumulated gradients to zero.
    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    /// Visits the weight, then the bias.
    pub(crate) fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    /// Visits the weight, then the bias, mutably.
    pub(crate) fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    /// Visits `(parameter, gradient)` pairs in the same order: the
    /// optimizer's entry point.
    pub(crate) fn for_each_param_grad_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = x · W + b` with `W: [in, out]`.
///
/// Output unit `j` (a *neuron* in the paper's vocabulary) owns weight
/// column `j` and bias element `j`; input feature `i` owns weight row
/// `i`.
#[derive(Debug, Clone)]
pub struct Dense {
    pub(crate) core: MaskedCore,
    /// The forward input, gathered to the active inputs: the operand of
    /// the weight-gradient GEMM.
    kept_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        let weight = xavier_uniform(&[in_features, out_features], in_features, out_features, rng);
        Dense {
            core: MaskedCore::new(weight, 1, in_features),
            kept_input: None,
        }
    }

    /// Marks the layer as exempt from masking (used for classifier heads,
    /// whose class outputs must never be dropped).
    pub fn non_maskable(mut self) -> Self {
        self.core.maskable = false;
        self
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.core.inputs
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.core.units()
    }

    /// Keeps the (gathered) input, taking it over when it is owned.
    pub(crate) fn forward(&mut self, x: Cow<'_, Tensor>) -> Result<Tensor> {
        let (y, x) = self
            .core
            .forward(x, dense_columns, scatter_cols, |x, w, b| {
                Ok((dense_kernel(&x, w, b)?, x.into_owned()))
            })?;
        self.kept_input = Some(x);
        Ok(y)
    }

    pub(crate) fn infer(&self, x: &Tensor) -> Result<Tensor> {
        self.core.infer(x, dense_kernel)
    }

    /// dW = xᵀ·g and dX = g·Wᵀ via the transposed-operand GEMM entry
    /// points: the kernel reads `x` and the weight where they lie, no
    /// materialized `transpose()` copies on the training path.
    pub(crate) fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let x = self
            .kept_input
            .take()
            .ok_or(NnError::BackwardBeforeForward { layer: "Dense" })?;
        self.core
            .backward(grad_out, dense_columns, |w, g, accumulate| {
                accumulate(Param::Weight, &x.matmul_tn(g)?)?;
                // Freed before the input gradient is allocated.
                drop(x);
                accumulate(Param::Bias, &g.sum_rows()?)?;
                Ok(g.matmul_nt(w)?)
            })
    }
}

/// `x · W + b`, the dense layer's computation.
fn dense_kernel(x: &Tensor, w: &Tensor, b: &Tensor) -> Result<Tensor> {
    Ok(x.matmul(w)?.add_row_broadcast(b)?)
}

/// The columns `idx` of a `[N, features]` activation.
fn dense_columns(t: &Tensor, idx: &[usize]) -> std::result::Result<Tensor, TensorError> {
    gather_rows_cols(t, None, Some(idx))
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution layer over `[N, C, H, W]` tensors.
///
/// Output unit `o` (a *channel*) owns weight row `o` of the
/// `[O, C·K·K]` weight matrix and bias element `o`; input channel `c`
/// owns the contiguous `K·K` block of columns `c·K·K..(c+1)·K·K`, so
/// packed execution runs over active output × active input channels.
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: ConvSpec,
    pub(crate) core: MaskedCore,
    /// The patch matrix the forward unrolled its (gathered) input into:
    /// the operand of the weight-gradient GEMM.
    kept_patches: Option<ConvPatches>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    pub fn new(spec: ConvSpec, rng: &mut TensorRng) -> Self {
        let wd = spec.weight_dims();
        Conv2d {
            spec,
            core: MaskedCore::new(he_normal(&wd, wd[1], rng), 0, spec.in_channels),
            kept_patches: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Keeps the patch matrix it unrolls, not the input.
    pub(crate) fn forward(&mut self, x: Cow<'_, Tensor>) -> Result<Tensor> {
        let spec = self.spec;
        let (y, patches) = self
            .core
            .forward(x, gather_channels, scatter_channels, |x, w, b| {
                Ok(conv2d_with_patches(&x, w, b, &packed_spec(&spec, w))?)
            })?;
        self.kept_patches = Some(patches);
        Ok(y)
    }

    pub(crate) fn infer(&self, x: &Tensor) -> Result<Tensor> {
        self.core.infer(x, |x, w, b| {
            Ok(conv2d(x, w, b, &packed_spec(&self.spec, w))?)
        })
    }

    /// [`conv2d_backward_with_patches`] keeps the weight's input-column
    /// axis whole so `grad_input` comes back full-shape and bit-exact;
    /// one call serves the packed and the full-width branch.
    pub(crate) fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let patches = self
            .kept_patches
            .take()
            .ok_or(NnError::BackwardBeforeForward { layer: "Conv2d" })?;
        let spec = self.spec;
        self.core
            .backward(grad_out, gather_channels, |w, g, accumulate| {
                let grads = conv2d_backward_with_patches(patches, w, g, &spec)?;
                accumulate(Param::Weight, &grads.grad_weight)?;
                accumulate(Param::Bias, &grads.grad_bias)?;
                Ok(grads.grad_input)
            })
    }
}

/// `spec` with the channel counts of `w`, the whole weight or its packed
/// sub-grid of active rows and channel blocks.
fn packed_spec(spec: &ConvSpec, w: &Tensor) -> ConvSpec {
    ConvSpec {
        in_channels: w.dims()[1] / (spec.kernel * spec.kernel),
        out_channels: w.dims()[0],
        ..*spec
    }
}

// ---------------------------------------------------------------------------
// Relu
// ---------------------------------------------------------------------------

/// Rectified linear activation, `max(0, x)`, applied elementwise.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// One bit per input element: whether it was positive.
    cached_positive: Option<UnitMask>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu::default()
    }

    pub(crate) fn forward(&mut self, x: Cow<'_, Tensor>) -> Result<Tensor> {
        self.cached_positive = Some(positive(&x));
        Ok(relu(x))
    }

    pub(crate) fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let pos = self
            .cached_positive
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Relu" })?;
        Ok(pass_positive(grad_out, pos))
    }
}

/// `max(0, x)` elementwise, in `x`'s own buffer when it is owned.
pub(crate) fn relu(x: Cow<'_, Tensor>) -> Tensor {
    let mut y = x.into_owned();
    for v in y.as_mut_slice() {
        *v = v.max(0.0);
    }
    y
}

/// The sign cache of a ReLU over `x`: which elements are positive.
fn positive(x: &Tensor) -> UnitMask {
    UnitMask::from_values(x.as_slice(), |v| v > 0.0)
}

/// `grad_out` with exact `+0.0` wherever the ReLU input was not
/// positive, other bits unchanged.
fn pass_positive(mut grad_out: Tensor, positive: &UnitMask) -> Tensor {
    positive.zero_inactive(grad_out.as_mut_slice());
    grad_out
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

    pub(crate) fn infer(&self, x: &Tensor) -> Result<Tensor> {
        Ok(max_pool2d_values(x, &self.spec)?)
    }

    pub(crate) fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let idx = self
            .cached_indices
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "MaxPool2d" })?;
        Ok(max_pool2d_backward(&grad_out, idx)?)
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
        self.infer(x)
    }

    pub(crate) fn infer(&self, x: &Tensor) -> Result<Tensor> {
        Ok(avg_pool2d(x, &self.spec)?)
    }

    pub(crate) fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let dims = self
            .cached_input_dims
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "AvgPool2d" })?;
        Ok(avg_pool2d_backward(&grad_out, &self.spec, dims)?)
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

    pub(crate) fn forward(&mut self, x: Cow<'_, Tensor>) -> Result<Tensor> {
        self.cached_dims = Some(x.dims().to_vec());
        Flatten::infer(x)
    }

    /// The flattened `x`, in `x`'s own buffer when it is owned.
    pub(crate) fn infer(x: Cow<'_, Tensor>) -> Result<Tensor> {
        let dims = [x.dims()[0], x.dims()[1..].iter().product()];
        Ok(x.into_owned().reshape(&dims)?)
    }

    pub(crate) fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
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
    /// One bit per element of the residual sum: whether it was positive.
    cached_sum_positive: Option<UnitMask>,
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

    /// Creates a residual block with a 1×1 convolution projection
    /// shortcut. The projection is never maskable: it keeps the residual
    /// sum shape-compatible.
    pub(crate) fn with_projection(body: Vec<crate::Layer>, mut projection: Conv2d) -> Self {
        projection.core.maskable = false;
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

    /// Mutable access to the body layers.
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

    pub(crate) fn forward(&mut self, x: Cow<'_, Tensor>) -> Result<Tensor> {
        let mut h = Cow::Borrowed(&*x);
        for layer in &mut self.body {
            h = Cow::Owned(layer.forward(h)?);
        }
        let sum = match &mut self.shortcut {
            Some(conv) => h.add(&conv.forward(Cow::Borrowed(&x))?)?,
            None => h.add(&x)?,
        };
        self.cached_sum_positive = Some(positive(&sum));
        Ok(relu(Cow::Owned(sum)))
    }

    pub(crate) fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let mut h = Cow::Borrowed(x);
        for layer in &self.body {
            h = Cow::Owned(layer.infer(h)?);
        }
        let sum = match &self.shortcut {
            Some(conv) => h.add(&conv.infer(x)?)?,
            None => h.add(x)?,
        };
        Ok(relu(Cow::Owned(sum)))
    }

    pub(crate) fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let pos = self
            .cached_sum_positive
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Residual" })?;
        let g = pass_positive(grad_out, pos);
        let mut gb = g.clone();
        for layer in self.body.iter_mut().rev() {
            gb = layer.backward(gb)?;
        }
        Ok(match &mut self.shortcut {
            Some(conv) => gb.add(&conv.backward(g)?)?,
            None => gb.add(&g)?,
        })
    }
}

#[cfg(test)]
impl MaskedCore {
    /// Drops the plan derived from the installed masks, so the next
    /// passes take the full-width branch whatever the masks: the zeroing
    /// oracle the packed-parity suite compares packed execution against.
    /// The next mask install derives a plan again.
    pub(crate) fn force_full_width(&mut self) {
        self.plan = None;
    }
}

#[cfg(test)]
impl crate::Layer {
    /// Whether a Dense or Conv2d layer (for a residual block, one in it)
    /// holds the operand its forward pass kept for backward.
    pub(crate) fn holds_kept_operand(&self) -> bool {
        use crate::Layer;
        match self {
            Layer::Dense(l) => l.kept_input.is_some(),
            Layer::Conv2d(l) => l.kept_patches.is_some(),
            Layer::Residual(l) => {
                l.body.iter().any(Layer::holds_kept_operand)
                    || l.shortcut
                        .as_ref()
                        .is_some_and(|s| s.kept_patches.is_some())
            }
            _ => false,
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
        d.core.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        d.core.bias = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = d.forward(Cow::Borrowed(&x)).unwrap();
        // [1*1+1*3+0.5, 1*2+1*4-0.5] = [4.5, 5.5]
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_mask_zeroes_output_and_freezes_unit() {
        let mut d = Dense::new(3, 4, &mut rng());
        d.core
            .set_unit_mask(Some((0..4).map(|j| j % 2 == 0).collect()));
        d.core.derive_plan();
        let x = Tensor::full(&[2, 3], 1.0);
        let y = d.forward(Cow::Borrowed(&x)).unwrap();
        for i in 0..2 {
            assert_eq!(y.get(&[i, 1]).unwrap(), 0.0);
            assert_eq!(y.get(&[i, 3]).unwrap(), 0.0);
        }
        // Backward: masked units accumulate zero gradient.
        d.backward(Tensor::full(&[2, 4], 1.0)).unwrap();
        for k in 0..3 {
            assert_eq!(d.core.grad_weight.get(&[k, 1]).unwrap(), 0.0);
            assert_ne!(d.core.grad_weight.get(&[k, 0]).unwrap(), 0.0);
        }
        assert_eq!(d.core.grad_bias.get(&[1]).unwrap(), 0.0);
        assert_eq!(d.core.grad_bias.get(&[0]).unwrap(), 2.0);
    }

    #[test]
    fn dense_mask_validation() {
        let d = Dense::new(3, 4, &mut rng());
        assert!(d.core.validate_mask(Some(&UnitMask::full(3))).is_err());
        assert!(d.core.validate_mask(Some(&UnitMask::full(4))).is_ok());
        assert!(d.core.validate_mask(None).is_ok());
        assert!(d.core.unit_mask().is_none());
    }

    #[test]
    fn dense_backward_before_forward_errors() {
        let mut d = Dense::new(2, 2, &mut rng());
        assert!(matches!(
            d.backward(Tensor::full(&[1, 2], 1.0)),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn a_second_backward_without_a_forward_is_an_error() {
        // The layer named in the error: a residual block's own sign cache
        // survives, so its second backward fails in its body's conv.
        let second_backward = |layer: &mut Layer, x: &Tensor| {
            let y = layer.forward(Cow::Borrowed(x)).unwrap();
            let g = Tensor::full(y.dims(), 1.0);
            layer.backward(g.clone()).unwrap();
            assert!(!layer.holds_kept_operand());
            match layer.backward(g) {
                Err(NnError::BackwardBeforeForward { layer }) => Some(layer),
                _ => None,
            }
        };
        let mut r = rng();
        let spec = ConvSpec::new(2, 3, 3, 1, 1);
        let body = vec![
            Layer::Conv2d(Conv2d::new(ConvSpec::new(2, 2, 3, 1, 1), &mut r)),
            Layer::Relu(Relu::new()),
        ];
        let image = Tensor::full(&[1, 2, 4, 4], 0.5);
        for (mut layer, x, want) in [
            (
                Layer::Dense(Dense::new(3, 2, &mut r)),
                Tensor::full(&[2, 3], 0.5),
                "Dense",
            ),
            (
                Layer::Conv2d(Conv2d::new(spec, &mut r)),
                image.clone(),
                "Conv2d",
            ),
            (Layer::Residual(Residual::new(body)), image, "Conv2d"),
        ] {
            assert_eq!(second_backward(&mut layer, &x), Some(want));
        }
    }

    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut d = Dense::new(3, 2, &mut rng());
        let x = helios_tensor::uniform_init(&[4, 3], -1.0, 1.0, &mut rng());
        // Loss = sum of outputs.
        let _ = d.forward(Cow::Borrowed(&x)).unwrap();
        let gin = d.backward(Tensor::full(&[4, 2], 1.0)).unwrap();
        let eps = 1e-3f32;
        // Weight gradient check.
        for &i in &[0usize, 3, 5] {
            let mut dp = d.clone();
            dp.core.weight.as_mut_slice()[i] += eps;
            let mut dm = d.clone();
            dm.core.weight.as_mut_slice()[i] -= eps;
            let num = (dp.forward(Cow::Borrowed(&x)).unwrap().sum()
                - dm.forward(Cow::Borrowed(&x)).unwrap().sum())
                / (2.0 * eps);
            let ana = d.core.grad_weight.as_slice()[i];
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
        let num = (d.clone().forward(Cow::Borrowed(&xp)).unwrap().sum()
            - d.clone().forward(Cow::Borrowed(&xm)).unwrap().sum())
            / (2.0 * eps);
        assert!((num - analytic).abs() < 1e-2);
    }

    #[test]
    fn conv_mask_zeroes_channels() {
        let spec = ConvSpec::new(1, 3, 3, 1, 1);
        let mut c = Conv2d::new(spec, &mut rng());
        c.core.set_unit_mask(Some((0..3).map(|j| j != 1).collect()));
        c.core.derive_plan();
        let x = Tensor::full(&[1, 1, 4, 4], 1.0);
        let y = c.forward(Cow::Borrowed(&x)).unwrap();
        for h in 0..4 {
            for w in 0..4 {
                assert_eq!(y.get(&[0, 1, h, w]).unwrap(), 0.0);
            }
        }
        c.backward(Tensor::full(&[1, 3, 4, 4], 1.0)).unwrap();
        // Channel 1's weight row stays untrained.
        for k in 0..9 {
            assert_eq!(c.core.grad_weight.get(&[1, k]).unwrap(), 0.0);
        }
        assert_eq!(c.core.grad_bias.get(&[1]).unwrap(), 0.0);
        assert_ne!(c.core.grad_bias.get(&[0]).unwrap(), 0.0);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0, 3.0], &[1, 4]).unwrap();
        let y = r.forward(Cow::Borrowed(&x)).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = r.backward(Tensor::full(&[1, 4], 1.0)).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::full(&[2, 3, 4, 4], 1.0);
        let y = f.forward(Cow::Borrowed(&x)).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
        let g = f.backward(y).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn residual_identity_shortcut_doubles_positive_signal() {
        // Body = identity 1x1 conv with weight 1 → y = relu(x + x) = 2x for x > 0.
        let spec = ConvSpec::new(1, 1, 1, 1, 0);
        let mut conv = Conv2d::new(spec, &mut rng());
        conv.core.weight = Tensor::full(&[1, 1], 1.0);
        conv.core.bias = Tensor::zeros(&[1]);
        let mut block = Residual::new(vec![Layer::Conv2d(conv)]);
        let x = Tensor::full(&[1, 1, 2, 2], 1.5);
        let y = block.forward(Cow::Borrowed(&x)).unwrap();
        assert!(y.as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-6));
        // Backward: gradient flows through both paths, so dx = 2·g.
        let g = block.backward(Tensor::full(&[1, 1, 2, 2], 1.0)).unwrap();
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
        let y = block.forward(Cow::Borrowed(&x)).unwrap();
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        let g = block.backward(Tensor::full(&[1, 4, 4, 4], 1.0)).unwrap();
        assert_eq!(g.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn maskable_flag_defaults_and_builder() {
        let d = Dense::new(2, 2, &mut rng());
        assert!(d.core.is_maskable());
        let d = d.non_maskable();
        assert!(!d.core.is_maskable());
        let spec = ConvSpec::new(1, 1, 1, 1, 0);
        let block = Residual::with_projection(vec![], Conv2d::new(spec, &mut rng()));
        assert!(!block.shortcut().unwrap().core.is_maskable());
    }
}
