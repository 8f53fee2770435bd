//! 2-D convolution (via `im2col`) and pooling primitives.
//!
//! All spatial operators work on rank-4 tensors in `[N, C, H, W]` layout
//! (batch, channels, height, width). Convolution weights are stored as a
//! rank-2 `[out_channels, in_channels * kh * kw]` matrix so the forward
//! pass is a single matrix product over the unrolled patches.

use crate::gemm::{gemm_into, Layout};
use crate::parallel::{for_each_block, for_each_block2};
use crate::workspace::Scratch;
use crate::{Result, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Configuration of a 2-D convolution: channel counts, square kernel,
/// stride, and symmetric zero padding.
///
/// # Example
///
/// ```
/// use helios_tensor::ConvSpec;
///
/// let spec = ConvSpec::new(3, 16, 3, 1, 1);
/// assert_eq!(spec.output_hw(16, 16), (16, 16));
/// assert_eq!(spec.weight_dims(), [16, 27]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (feature maps / "neurons" in Helios terms).
    pub out_channels: usize,
    /// Side length of the square kernel.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub padding: usize,
}

impl ConvSpec {
    /// Creates a convolution spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero, or either channel count is
    /// zero — these are programming errors, not runtime conditions.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel must be nonzero");
        assert!(stride > 0, "stride must be nonzero");
        assert!(
            in_channels > 0 && out_channels > 0,
            "channels must be nonzero"
        );
        ConvSpec {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Dimensions of the rank-2 weight matrix this spec expects.
    pub fn weight_dims(&self) -> [usize; 2] {
        [
            self.out_channels,
            self.in_channels * self.kernel * self.kernel,
        ]
    }

    /// Number of columns in the unrolled patch matrix.
    fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Gradients produced by [`conv2d_backward`], [`conv2d_backward_packed`]
/// and [`conv2d_backward_with_patches`].
///
/// After a packed backward the weight and bias gradients are in *packed*
/// coordinates (active output rows, active input-channel column blocks)
/// and must be scatter-added into the full gradient tensors by the
/// caller; `grad_input` is always full-shape, and bitwise identical to
/// the unpacked backward's.
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the full input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weight matrix, `[O, C*K*K]`, or
    /// `[Oa, Ca*K*K]` packed.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[O]`, or `[Oa]` packed.
    pub grad_bias: Tensor,
}

/// The patch matrix a convolution's forward pass unrolled from its input,
/// kept for the backward pass: its weight gradient is a product with
/// exactly this matrix, so the backward need not unroll the input again.
///
/// Returned by [`conv2d_with_patches`] and consumed by
/// [`conv2d_backward_with_patches`]. The matrix lives in a workspace
/// buffer, which returns to the pool of the thread that drops it.
#[derive(Debug, Clone)]
pub struct ConvPatches {
    /// `[N*OH*OW, Ca*K*K]`, row-major.
    cols: Scratch,
    /// The geometry it was unrolled with; `in_channels` is `Ca`, the
    /// input's channel count (fewer than the layer's when packed).
    spec: ConvSpec,
    /// `N`, `H` and `W` of the input.
    n: usize,
    h: usize,
    w: usize,
}

impl ConvPatches {
    /// Unrolls `input` (`[N, spec.in_channels, H, W]`) into a patch
    /// matrix checked out of the workspace.
    fn unroll(input: &Tensor, spec: &ConvSpec) -> Result<ConvPatches> {
        let (n, _c, h, w) = check_nchw("im2col", input.dims())?;
        let (oh, ow) = spec.output_hw(h, w);
        let mut cols = Scratch::checkout(n * oh * ow * spec.patch_len());
        im2col_into(&mut cols, input, spec)?;
        Ok(ConvPatches {
            cols,
            spec: *spec,
            n,
            h,
            w,
        })
    }
}

fn check_nchw(op: &'static str, d: &[usize]) -> Result<(usize, usize, usize, usize)> {
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: d.len(),
        });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// [`check_nchw`] for a convolution input, which must also cover the
/// kernel once padded — otherwise [`ConvSpec::output_hw`] underflows.
fn check_conv_input(
    op: &'static str,
    input: &Tensor,
    spec: &ConvSpec,
) -> Result<(usize, usize, usize, usize)> {
    let (n, c, h, w) = check_nchw(op, input.dims())?;
    if h + 2 * spec.padding < spec.kernel || w + 2 * spec.padding < spec.kernel {
        return Err(TensorError::InvalidArgument {
            what: format!(
                "{op}: kernel {} exceeds input {h}x{w} padded by {}",
                spec.kernel, spec.padding
            ),
        });
    }
    Ok((n, c, h, w))
}

/// The loop geometry [`im2col_into`] and [`col2im_into`] share. Output
/// column `ox`'s window starts at input column `ox·stride − padding`;
/// `interior` is the range of `ox` whose whole window lies inside the
/// input, so each of its kernel rows moves as one contiguous copy.
struct Unroll {
    spec: ConvSpec,
    h: usize,
    w: usize,
    ow: usize,
    interior: std::ops::Range<usize>,
}

impl Unroll {
    fn new(spec: &ConvSpec, h: usize, w: usize) -> Self {
        let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
        let ow = spec.output_hw(h, w).1;
        let lo = p.div_ceil(s).min(ow);
        let hi = (w + p).checked_sub(k).map_or(0, |r| (r / s + 1).min(ow));
        let (spec, interior) = (*spec, lo..hi);
        Unroll {
            spec,
            h,
            w,
            ow,
            interior,
        }
    }

    /// First input column of output column `ox`'s window when the whole
    /// window lies inside the input, `None` when it reaches the padding.
    fn interior_start(&self, ox: usize) -> Option<usize> {
        self.interior
            .contains(&ox)
            .then(|| ox * self.spec.stride - self.spec.padding)
    }

    /// Input row (or column) of kernel offset `kk` at output position
    /// `o`, or `None` where it falls in the padding.
    fn src(&self, o: usize, kk: usize, len: usize) -> Option<usize> {
        (o * self.spec.stride + kk)
            .checked_sub(self.spec.padding)
            .filter(|&i| i < len)
    }
}

/// Unrolls `[N, C, H, W]` input patches into the `[N*OH*OW, C*K*K]`
/// matrix `cols`, writing every element: `+0.0` at the padding
/// positions, so `cols` may arrive holding anything. Callers check
/// `cols` out of the workspace arena ([`Scratch`]), so the steady-state
/// training path reuses one buffer cycle after cycle instead of
/// allocating a multi-megabyte `Vec` per forward.
fn im2col_into(cols: &mut [f32], input: &Tensor, spec: &ConvSpec) -> Result<()> {
    let (n, c, h, w) = check_nchw("im2col", input.dims())?;
    if c != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: input.dims().to_vec(),
            rhs: vec![spec.in_channels],
        });
    }
    let (oh, ow) = spec.output_hw(h, w);
    let g = Unroll::new(spec, h, w);
    let item_len = oh * ow * spec.patch_len();
    debug_assert_eq!(cols.len(), n * item_len, "cols must be [N*OH*OW, C*K*K]");
    let x = input.as_slice();
    // Only 3×3, the kernel every conv of AlexNet and LeNet uses, gets a
    // compile-time `K`: the small runtime-length copies of `::<0>` cost
    // more than the data they move. Other sizes run the runtime-`K` body.
    let fill = match spec.kernel {
        3 => im2col_item::<3>,
        _ => im2col_item::<0>,
    };
    // Parallel over batch items: each item's rows live in a disjoint
    // slice of `cols`, so workers never share output elements.
    for_each_block(cols, item_len, item_len, |first, chunk| {
        for (bi, item) in chunk.chunks_mut(item_len).enumerate() {
            let ni = first + bi;
            fill(item, &x[ni * c * h * w..(ni + 1) * c * h * w], &g);
        }
    });
    Ok(())
}

/// One batch item of [`im2col_into`]: walks each output row `(oy, ox)`
/// → `ci` → `ky` and moves the `K` inputs of one kernel row as one copy,
/// or writes its zeros where it reaches the padding.
/// `K == 0` reads the kernel size from `g` at run time; any other `K`
/// must equal it, so every kernel row is a slice of compile-time length.
fn im2col_item<const K: usize>(item: &mut [f32], x: &[f32], g: &Unroll) {
    let (k, pl) = (if K == 0 { g.spec.kernel } else { K }, g.spec.patch_len());
    for (oy, out_rows) in item.chunks_exact_mut(g.ow * pl).enumerate() {
        for (ox, row) in out_rows.chunks_exact_mut(pl).enumerate() {
            let ix0 = g.interior_start(ox);
            for (ci, patch) in row.chunks_exact_mut(k * k).enumerate() {
                for (ky, dst) in patch.chunks_exact_mut(k).enumerate() {
                    let Some(iy) = g.src(oy, ky, g.h) else {
                        dst.fill(0.0);
                        continue;
                    };
                    let src = &x[(ci * g.h + iy) * g.w..][..g.w];
                    match ix0 {
                        Some(ix0) => dst.copy_from_slice(&src[ix0..ix0 + k]),
                        None => {
                            for (kx, d) in dst.iter_mut().enumerate() {
                                *d = g.src(ox, kx, g.w).map_or(0.0, |ix| src[ix]);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-adds a `[N*OH*OW, C*K*K]` column matrix into the
/// `[N, C, H, W]` buffer `out` (which the caller supplies zero-filled).
///
/// Every input element receives its terms in ascending `(oy, ox)` order,
/// as in the scalar reference: the loops run `oy → ox → ci → ky → kx`
/// as it did, only moving a kernel row's `K` terms at once, and one
/// output position `(oy, ox)` adds at most one term to each element.
fn col2im_into(out: &mut [f32], cs: &[f32], spec: &ConvSpec, n: usize, h: usize, w: usize) {
    let (oh, ow) = spec.output_hw(h, w);
    let g = Unroll::new(spec, h, w);
    let (item_in, item_out) = (oh * ow * spec.patch_len(), spec.in_channels * h * w);
    debug_assert_eq!(cs.len(), n * item_in, "cols must be [N*OH*OW, C*K*K]");
    debug_assert_eq!(out.len(), n * item_out, "out must be [N, C, H, W]");
    // Compile-time `K` for 3×3 only, as in `im2col_into`.
    let add = match spec.kernel {
        3 => col2im_item::<3>,
        _ => col2im_item::<0>,
    };
    // Parallel over batch items: the scatter-add for item `ni` only
    // touches `out[ni * c*h*w ..]`, so per-item chunks are disjoint.
    for_each_block(out, item_out, item_in, |first, chunk| {
        for (bi, item) in chunk.chunks_mut(item_out).enumerate() {
            let ni = first + bi;
            add(item, &cs[ni * item_in..(ni + 1) * item_in], &g);
        }
    });
}

/// One batch item of [`col2im_into`], the transpose of [`im2col_item`]:
/// the `K` terms of one kernel row add onto one input row as one slice
/// (of compile-time length for `K != 0`).
fn col2im_item<const K: usize>(item: &mut [f32], cs: &[f32], g: &Unroll) {
    let (k, pl) = (if K == 0 { g.spec.kernel } else { K }, g.spec.patch_len());
    for (oy, rows) in cs.chunks_exact(g.ow * pl).enumerate() {
        for (ox, row) in rows.chunks_exact(pl).enumerate() {
            let ix0 = g.interior_start(ox);
            for (ci, patch) in row.chunks_exact(k * k).enumerate() {
                for (ky, src) in patch.chunks_exact(k).enumerate() {
                    let Some(iy) = g.src(oy, ky, g.h) else {
                        continue;
                    };
                    let dst = &mut item[(ci * g.h + iy) * g.w..][..g.w];
                    match ix0 {
                        Some(ix0) => {
                            for (d, &v) in dst[ix0..ix0 + k].iter_mut().zip(src) {
                                *d += v;
                            }
                        }
                        None => {
                            for (kx, &v) in src.iter().enumerate() {
                                if let Some(ix) = g.src(ox, kx, g.w) {
                                    dst[ix] += v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// 2-D convolution forward pass.
///
/// `input` is `[N, C, H, W]`, `weight` is `[O, C*K*K]`, `bias` is `[O]`;
/// the result is `[N, O, OH, OW]`.
///
/// # Errors
///
/// Returns a [`TensorError`] when the operand shapes do not match `spec`
/// or the padded input is smaller than the kernel.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use helios_tensor::{conv2d, ConvSpec, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let spec = ConvSpec::new(1, 2, 3, 1, 1);
/// let input = Tensor::full(&[1, 1, 4, 4], 1.0);
/// let weight = Tensor::zeros(&[2, 9]);
/// let bias = Tensor::from_vec(vec![0.5, -0.5], &[2])?;
/// let out = conv2d(&input, &weight, &bias, &spec)?;
/// assert_eq!(out.dims(), &[1, 2, 4, 4]);
/// assert_eq!(out.get(&[0, 0, 0, 0])?, 0.5);
/// # Ok(())
/// # }
/// ```
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Result<Tensor> {
    Ok(conv2d_with_patches(input, weight, bias, spec)?.0)
}

/// [`conv2d`], also returning the patch matrix it unrolled `input` into,
/// for [`conv2d_backward_with_patches`]. The output is [`conv2d`]'s, bit
/// for bit: it is the same computation.
///
/// # Errors
///
/// As [`conv2d`].
pub fn conv2d_with_patches(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
) -> Result<(Tensor, ConvPatches)> {
    let (n, _c, h, w) = check_conv_input("conv2d", input, spec)?;
    if weight.dims() != spec.weight_dims() {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: weight.dims().to_vec(),
            rhs: spec.weight_dims().to_vec(),
        });
    }
    if bias.dims() != [spec.out_channels] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: bias.dims().to_vec(),
            rhs: vec![spec.out_channels],
        });
    }
    let (oh, ow) = spec.output_hw(h, w);
    let o = spec.out_channels;
    let pl = spec.patch_len();
    let rows_n = n * oh * ow;
    let b = bias.as_slice();
    let patches = ConvPatches::unroll(input, spec)?;
    // The GEMM product is transient workspace, overwritten in full.
    let mut prod = Scratch::checkout(rows_n * o);
    // [N*OH*OW, CKK] × [CKK, O] → [N*OH*OW, O]. The weight is stored
    // `[O, CKK]` — the logical B transposed — and the kernel reads it in
    // place; no materialized `transpose()`.
    gemm_into(
        &mut prod,
        rows_n,
        pl,
        o,
        &patches.cols,
        Layout::Normal,
        weight.as_slice(),
        Layout::Transposed,
    );
    // Parallel over batch items: relayout rows → NCHW plus bias, one
    // contiguous output plane at a time.
    let ohw = oh * ow;
    let mut out = vec![0.0f32; n * o * ohw];
    for_each_block(&mut out, o * ohw, o * ohw, |first, chunk| {
        for (bi, item) in chunk.chunks_mut(o * ohw).enumerate() {
            let rows = &prod[(first + bi) * ohw * o..][..ohw * o];
            for (oc, plane) in item.chunks_exact_mut(ohw).enumerate() {
                for (v, row) in plane.iter_mut().zip(rows.chunks_exact(o)) {
                    *v = row[oc] + b[oc];
                }
            }
        }
    });
    Ok((Tensor::from_vec(out, &[n, o, oh, ow])?, patches))
}

/// 2-D convolution backward pass.
///
/// Given the forward `input`, the `weight` matrix, and `grad_output` of
/// shape `[N, O, OH, OW]`, computes gradients with respect to input,
/// weight, and bias. It unrolls `input` again; a caller that kept the
/// forward's [`ConvPatches`] runs [`conv2d_backward_with_patches`]
/// instead, with the same result bit for bit.
///
/// # Errors
///
/// Returns a [`TensorError`] when shapes are inconsistent with `spec` or
/// the padded input is smaller than the kernel.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: &ConvSpec,
) -> Result<Conv2dGrads> {
    const OP: &str = "conv2d_backward";
    let (n, _c, h, w) = check_conv_input(OP, input, spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    if grad_output.dims() != [n, spec.out_channels, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: OP,
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, spec.out_channels, oh, ow],
        });
    }
    backward_body(
        OP,
        ConvPatches::unroll(input, spec)?,
        weight,
        grad_output,
        spec,
    )
}

/// 2-D convolution backward pass over a *packed* sub-model.
///
/// `input_packed` is `[N, Ca, H, W]` — the forward input gathered down
/// to its `Ca` active channels (every dropped channel must have been
/// exactly zero). `weight_rows` is `[Oa, C*K*K]` — the `Oa` active rows
/// of the full weight matrix, with the input-column axis left **whole**.
/// `grad_output_packed` is `[N, Oa, OH, OW]`. `spec` describes the full
/// (unpacked) geometry; the packed channel counts are read from the
/// operands.
///
/// The input-column axis stays whole because `grad_input` must be
/// produced at full shape with bit-exact values everywhere, including
/// the masked channels — the `dcols × col2im` scatter accumulates in the
/// same per-element order as [`conv2d_backward`], and the masked rows of
/// `weight_rows`'s column blocks contribute the same terms they would in
/// the unpacked GEMM. The weight/bias gradients, by contrast, are packed
/// on both axes: their masked entries are definitionally untouched, so
/// the caller scatter-adds only the active sub-grid.
///
/// # Errors
///
/// Returns a [`TensorError`] when operand shapes are inconsistent with
/// `spec` or with each other, or the padded input is smaller than the
/// kernel.
pub fn conv2d_backward_packed(
    input_packed: &Tensor,
    weight_rows: &Tensor,
    grad_output_packed: &Tensor,
    spec: &ConvSpec,
) -> Result<Conv2dGrads> {
    const OP: &str = "conv2d_backward_packed";
    let (_n, ca, _h, _w) = check_conv_input(OP, input_packed, spec)?;
    if ca == 0 || ca > spec.in_channels {
        return Err(packed_channels_error(OP, ca, grad_output_packed, spec));
    }
    // Patch matrix over the *active* input channels only: identical
    // entries to the active column blocks of the full im2col, in the
    // same relative order, because the column layout is channel-major.
    let cols_spec = ConvSpec {
        in_channels: ca,
        ..*spec
    };
    let patches = ConvPatches::unroll(input_packed, &cols_spec)?;
    backward_body(OP, patches, weight_rows, grad_output_packed, spec)
}

/// The backward pass from the patch matrix [`conv2d_with_patches`] kept,
/// which it consumes: the workspace buffer is released as soon as the
/// weight gradient has read it.
///
/// `patches` may come from a packed forward — an input gathered to its
/// `Ca` active channels, with `spec`'s kernel, stride and padding — and
/// `weight_rows` and `grad_output` are then as in
/// [`conv2d_backward_packed`]; the result is that function's on the same
/// gathered input, bit for bit, and [`conv2d_backward`]'s when nothing is
/// packed.
///
/// # Errors
///
/// Returns a [`TensorError`] when the operands are inconsistent with
/// `spec`, with `patches` or with each other.
pub fn conv2d_backward_with_patches(
    patches: ConvPatches,
    weight_rows: &Tensor,
    grad_output: &Tensor,
    spec: &ConvSpec,
) -> Result<Conv2dGrads> {
    backward_body(
        "conv2d_backward_with_patches",
        patches,
        weight_rows,
        grad_output,
        spec,
    )
}

/// The error for packed channel counts outside `1..=` the full spec's.
fn packed_channels_error(
    op: &'static str,
    ca: usize,
    grad_output: &Tensor,
    spec: &ConvSpec,
) -> TensorError {
    let oa = grad_output.dims().get(1).copied().unwrap_or(0);
    TensorError::InvalidArgument {
        what: format!(
            "{op}: packed channels ({ca} in, {oa} out) must be nonzero and within the \
             full spec ({} in, {} out)",
            spec.in_channels, spec.out_channels
        ),
    }
}

/// The one backward pass behind every public entry point: `patches`
/// holds the `Ca`-channel patch matrix (`Ca == C` unpacked),
/// `weight_rows` is `[Oa, C*K*K]` and `grad_output` `[N, Oa, OH, OW]`.
/// One body is what keeps them bitwise comparable — every sum runs in
/// the same per-element order at any channel count.
fn backward_body(
    op: &'static str,
    patches: ConvPatches,
    weight_rows: &Tensor,
    grad_output: &Tensor,
    spec: &ConvSpec,
) -> Result<Conv2dGrads> {
    let (n, h, w) = (patches.n, patches.h, patches.w);
    let ca = patches.spec.in_channels;
    let (gn, oa, goh, gow) = check_nchw(op, grad_output.dims())?;
    let (oh, ow) = spec.output_hw(h, w);
    let ps = &patches.spec;
    if (ps.kernel, ps.stride, ps.padding) != (spec.kernel, spec.stride, spec.padding) {
        return Err(TensorError::InvalidArgument {
            what: format!("{op}: patches unrolled with {ps:?}, not {spec:?}"),
        });
    }
    if gn != n || goh != oh || gow != ow {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, oa, oh, ow],
        });
    }
    if weight_rows.dims() != [oa, spec.patch_len()] {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: weight_rows.dims().to_vec(),
            rhs: vec![oa, spec.patch_len()],
        });
    }
    if ca == 0 || ca > spec.in_channels || oa == 0 || oa > spec.out_channels {
        return Err(packed_channels_error(op, ca, grad_output, spec));
    }
    let pl = spec.patch_len();
    let pl_p = ps.patch_len();
    let rows_n = n * oh * ow;
    let g = grad_output.as_slice();
    // Re-layout grad_output from NCHW to rows [N*OH*OW, Oa], parallel
    // over batch items (disjoint row blocks per item), reading one
    // contiguous input plane at a time. It writes every slot.
    let mut rows = Scratch::checkout(rows_n * oa);
    let ohw = oh * ow;
    for_each_block(&mut rows, ohw * oa, ohw * oa, |first, chunk| {
        for (bi, item) in chunk.chunks_mut(ohw * oa).enumerate() {
            let planes = &g[(first + bi) * oa * ohw..][..oa * ohw];
            for (oc, plane) in planes.chunks_exact(ohw).enumerate() {
                for (row, &v) in item.chunks_exact_mut(oa).zip(plane) {
                    row[oc] = v;
                }
            }
        }
    });
    // Bias gradient: the rows run in ascending (ni, oy, ox) order, so
    // each channel's sum is that chain, added across channels.
    let mut grad_bias = vec![0.0f32; oa];
    for row in rows.chunks_exact(oa) {
        for (acc, &v) in grad_bias.iter_mut().zip(row) {
            *acc += v;
        }
    }
    // dW = gradᵀ × cols : [Oa, N*OH*OW] × [N*OH*OW, Ca*KK] → [Oa, Ca*KK].
    // `rows` stores the logical Aᵀ; read in place.
    let mut grad_weight = vec![0.0f32; oa * pl_p];
    gemm_into(
        &mut grad_weight,
        oa,
        rows_n,
        pl_p,
        &rows,
        Layout::Transposed,
        &patches.cols,
        Layout::Normal,
    );
    // The patch matrix has served its one reader; its buffer is free
    // for `dcols`, which has its size when nothing is packed.
    drop(patches);
    // dcols = grad × W_rows : [N*OH*OW, Oa] × [Oa, C*KK] — full input
    // columns, so col2im produces the full-shape grad_input.
    let mut dcols = Scratch::checkout(rows_n * pl);
    gemm_into(
        &mut dcols,
        rows_n,
        oa,
        pl,
        &rows,
        Layout::Normal,
        weight_rows.as_slice(),
        Layout::Normal,
    );
    let mut grad_input = vec![0.0f32; n * spec.in_channels * h * w];
    col2im_into(&mut grad_input, &dcols, spec, n, h, w);
    Ok(Conv2dGrads {
        grad_input: Tensor::from_vec(grad_input, &[n, spec.in_channels, h, w])?,
        grad_weight: Tensor::from_vec(grad_weight, &[oa, pl_p])?,
        grad_bias: Tensor::from_vec(grad_bias, &[oa])?,
    })
}

/// Configuration of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolSpec {
    /// Side length of the square pooling window.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a pooling spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0, "kernel must be nonzero");
        assert!(stride > 0, "stride must be nonzero");
        PoolSpec { kernel, stride }
    }

    /// Output spatial size for an `h × w` input no smaller than the
    /// window.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        (oh, ow)
    }
}

/// [`check_nchw`] for a pooling input, which must cover the window —
/// otherwise [`PoolSpec::output_hw`] underflows.
fn check_pool_input(
    op: &'static str,
    dims: &[usize],
    spec: &PoolSpec,
) -> Result<(usize, usize, usize, usize)> {
    let (n, c, h, w) = check_nchw(op, dims)?;
    if h < spec.kernel || w < spec.kernel {
        return Err(TensorError::InvalidArgument {
            what: format!("{op}: pool kernel {} exceeds input {h}x{w}", spec.kernel),
        });
    }
    Ok((n, c, h, w))
}

/// Flat input indices of the maxima chosen by [`max_pool2d`], needed by the
/// backward pass to route gradients.
#[derive(Debug, Clone)]
pub struct PoolIndices {
    indices: Vec<usize>,
    input_dims: Vec<usize>,
}

/// Max pooling forward pass on a `[N, C, H, W]` tensor.
///
/// Returns the pooled tensor and the argmax indices consumed by
/// [`max_pool2d_backward`]. Each window's search is seeded with its
/// first element and takes a later element that is strictly greater or
/// NaN, so a NaN wins (the last NaN of the window) and ties keep the
/// first maximum.
///
/// # Errors
///
/// Returns a [`TensorError`] when the input is not rank 4 or smaller than
/// the pooling window.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<(Tensor, PoolIndices)> {
    let (n, c, h, w) = check_pool_input("max_pool2d", input.dims(), spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    let x = input.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut idx = vec![0usize; n * c * oh * ow];
    let window = spec.kernel * spec.kernel;
    // One comparison per window element, counted once from the shapes.
    crate::instrument::record_kernel((n * c * oh * ow * window) as u64, (n * c * oh * ow) as u64);
    // Parallel over `N*C` planes; values and argmax indices are
    // partitioned in lockstep so each worker fills both for its planes.
    let pool = max_pool_plane_fn(spec);
    for_each_block2(
        &mut out,
        oh * ow,
        &mut idx,
        oh * ow,
        oh * ow * window,
        |first, out_chunk, idx_chunk| {
            let planes = out_chunk
                .chunks_mut(oh * ow)
                .zip(idx_chunk.chunks_mut(oh * ow));
            for (bi, (out_plane, idx_plane)) in planes.enumerate() {
                let plane = first + bi; // == ni * c + ci
                pool(x, plane * h * w, [h, w], spec, out_plane, Some(idx_plane));
            }
        },
    );
    Ok((
        Tensor::from_vec(out, &[n, c, oh, ow])?,
        PoolIndices {
            indices: idx,
            input_dims: vec![n, c, h, w],
        },
    ))
}

/// [`max_pool2d`]'s pooled values alone, for inference: the same values
/// bit for bit, without recording the argmax indices a backward pass
/// would need.
///
/// # Errors
///
/// As [`max_pool2d`].
pub fn max_pool2d_values(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    let (n, c, h, w) = check_pool_input("max_pool2d", input.dims(), spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    let x = input.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let window = spec.kernel * spec.kernel;
    crate::instrument::record_kernel((n * c * oh * ow * window) as u64, (n * c * oh * ow) as u64);
    let pool = max_pool_plane_fn(spec);
    for_each_block(&mut out, oh * ow, oh * ow * window, |first, chunk| {
        for (bi, out_plane) in chunk.chunks_mut(oh * ow).enumerate() {
            pool(x, (first + bi) * h * w, [h, w], spec, out_plane, None);
        }
    });
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Pools one `[H, W]` input plane starting at `x[base]` into
/// `out` (`[OH, OW]`), writing each maximum's flat input index into
/// `idx` when given one.
type MaxPoolPlane = fn(&[f32], usize, [usize; 2], &PoolSpec, &mut [f32], Option<&mut [usize]>);

/// The plane body for `spec`: the 2×2 / stride-2 fast path for that
/// shape (every pool of LeNet and AlexNet), the generic body otherwise.
fn max_pool_plane_fn(spec: &PoolSpec) -> MaxPoolPlane {
    if spec.kernel == 2 && spec.stride == 2 {
        max_pool_plane_2x2
    } else {
        max_pool_plane
    }
}

/// The generic [`MaxPoolPlane`]: any window and stride, one element at a
/// time in row-major window order.
fn max_pool_plane(
    x: &[f32],
    base: usize,
    [h, w]: [usize; 2],
    spec: &PoolSpec,
    out: &mut [f32],
    mut idx: Option<&mut [usize]>,
) {
    let (oh, ow) = spec.output_hw(h, w);
    for oy in 0..oh {
        for ox in 0..ow {
            // Seeded with the window's first element, so the argmax
            // stays inside the window even when no element beats -inf;
            // a NaN wins and propagates.
            let mut best_i = base + oy * spec.stride * w + ox * spec.stride;
            let mut best_v = x[best_i];
            for ky in 0..spec.kernel {
                for kx in 0..spec.kernel {
                    let iy = oy * spec.stride + ky;
                    let ix = ox * spec.stride + kx;
                    let fi = base + iy * w + ix;
                    if x[fi] > best_v || x[fi].is_nan() {
                        best_v = x[fi];
                        best_i = fi;
                    }
                }
            }
            out[oy * ow + ox] = best_v;
            if let Some(idx) = idx.as_deref_mut() {
                idx[oy * ow + ox] = best_i;
            }
        }
    }
}

/// The 2×2 / stride-2 [`MaxPoolPlane`]: each output row reads its two
/// input rows directly and picks each window's maximum with selects, no
/// branches (a pooled maximum's position is a coin flip to a branch
/// predictor). Selecting the winner's offset from a table, rather than
/// computing it from its position, is what keeps the compiled scalar
/// loop, which rows too short to vectorize run, free of branches. The
/// selection rule is [`max_pool_plane`]'s, taken in the same order:
/// seeded with the window's first element, which the generic body
/// compares with itself to no effect, then the other three, each taken
/// when strictly greater or NaN. An odd last row or column is covered by
/// no window, as there.
fn max_pool_plane_2x2(
    x: &[f32],
    base: usize,
    [h, w]: [usize; 2],
    spec: &PoolSpec,
    out: &mut [f32],
    idx: Option<&mut [usize]>,
) {
    let ow = spec.output_hw(h, w).1;
    // Window element `k` (row-major) lies `offsets[k]` past the window's
    // first element.
    let offsets = [0, 1, w, w + 1];
    let window_max = |window: [f32; 4]| {
        let (mut best, mut offset) = (window[0], 0);
        for k in 1..4 {
            let take = window[k] > best || window[k].is_nan();
            best = if take { window[k] } else { best };
            offset = if take { offsets[k] } else { offset };
        }
        (best, offset)
    };
    // The windows of output row `oy`, as `[top-left, top-right,
    // bottom-left, bottom-right]`, and the index of its first element.
    let windows = |oy: usize| {
        let first = base + 2 * oy * w;
        let (top, bottom) = (&x[first..][..2 * ow], &x[first + w..][..2 * ow]);
        let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
        (first, pairs.map(|(t, b)| [t[0], t[1], b[0], b[1]]))
    };
    let rows = out.chunks_exact_mut(ow).enumerate();
    match idx {
        Some(idx) => {
            for ((oy, out_row), idx_row) in rows.zip(idx.chunks_exact_mut(ow)) {
                let (first, windows) = windows(oy);
                let outs = out_row.iter_mut().zip(idx_row);
                for (ox, ((v, i), window)) in outs.zip(windows).enumerate() {
                    let (best, offset) = window_max(window);
                    *v = best;
                    *i = first + 2 * ox + offset;
                }
            }
        }
        None => {
            for (oy, out_row) in rows {
                for (v, window) in out_row.iter_mut().zip(windows(oy).1) {
                    *v = window_max(window).0;
                }
            }
        }
    }
}

/// Max pooling backward pass: routes each output gradient to the input
/// position that produced the maximum.
///
/// # Errors
///
/// Returns a [`TensorError`] when `grad_output` does not match the index
/// record from the forward pass.
pub fn max_pool2d_backward(grad_output: &Tensor, indices: &PoolIndices) -> Result<Tensor> {
    if grad_output.len() != indices.indices.len() {
        return Err(TensorError::SizeMismatch {
            elements: grad_output.len(),
            expected: indices.indices.len(),
        });
    }
    let d = &indices.input_dims;
    let (h, w) = (d[2], d[3]);
    let out_per_plane = indices.indices.len() / (d[0] * d[1]);
    let g = grad_output.as_slice();
    // One scatter-add per recorded argmax.
    crate::instrument::record_kernel(indices.indices.len() as u64, (d[0] * d[1] * h * w) as u64);
    let mut grad = Tensor::zeros(d);
    // Parallel over `N*C` planes: every argmax index recorded for a
    // plane points inside that plane of the input, so the scatter-adds
    // of different workers never collide.
    for_each_block(grad.as_mut_slice(), h * w, out_per_plane, |first, chunk| {
        for (bi, plane) in chunk.chunks_mut(h * w).enumerate() {
            let p = first + bi;
            let base = p * h * w;
            let span = p * out_per_plane..(p + 1) * out_per_plane;
            for (&src, &gv) in indices.indices[span.clone()].iter().zip(&g[span]) {
                plane[src - base] += gv;
            }
        }
    });
    Ok(grad)
}

/// Average pooling forward pass on a `[N, C, H, W]` tensor.
///
/// # Errors
///
/// Returns a [`TensorError`] when the input is not rank 4 or smaller than
/// the pooling window.
pub fn avg_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    let (n, c, h, w) = check_pool_input("avg_pool2d", input.dims(), spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    let x = input.as_slice();
    let area = (spec.kernel * spec.kernel) as f32;
    // One add per window element plus the final divide, per output.
    crate::instrument::record_kernel(
        (n * c * oh * ow * (spec.kernel * spec.kernel + 1)) as u64,
        (n * c * oh * ow) as u64,
    );
    let mut out = vec![0.0f32; n * c * oh * ow];
    // Parallel over `N*C` planes.
    for_each_block(
        &mut out,
        oh * ow,
        oh * ow * spec.kernel * spec.kernel,
        |first, chunk| {
            for (bi, plane_out) in chunk.chunks_mut(oh * ow).enumerate() {
                let plane = first + bi;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..spec.kernel {
                            for kx in 0..spec.kernel {
                                let iy = oy * spec.stride + ky;
                                let ix = ox * spec.stride + kx;
                                acc += x[(plane * h + iy) * w + ix];
                            }
                        }
                        plane_out[oy * ow + ox] = acc / area;
                    }
                }
            }
        },
    );
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Average pooling backward pass: spreads each output gradient uniformly
/// over its pooling window.
///
/// # Errors
///
/// Returns a [`TensorError`] when `grad_output` is inconsistent with the
/// given input geometry, or the input is smaller than the pooling window.
pub fn avg_pool2d_backward(
    grad_output: &Tensor,
    spec: &PoolSpec,
    input_dims: &[usize],
) -> Result<Tensor> {
    let (n, c, h, w) = check_pool_input("avg_pool2d_backward", input_dims, spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    if grad_output.dims() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool2d_backward",
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, c, oh, ow],
        });
    }
    let g = grad_output.as_slice();
    let area = (spec.kernel * spec.kernel) as f32;
    // One divide per window plus one add per spread entry.
    crate::instrument::record_kernel(
        (n * c * oh * ow * (spec.kernel * spec.kernel + 1)) as u64,
        (n * c * h * w) as u64,
    );
    let mut out = vec![0.0f32; n * c * h * w];
    // Parallel over `N*C` planes: each window of a plane spreads its
    // gradient only within that plane's slice.
    for_each_block(
        &mut out,
        h * w,
        oh * ow * spec.kernel * spec.kernel,
        |first, chunk| {
            for (bi, plane_out) in chunk.chunks_mut(h * w).enumerate() {
                let plane = first + bi;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let gv = g[(plane * oh + oy) * ow + ox] / area;
                        for ky in 0..spec.kernel {
                            for kx in 0..spec.kernel {
                                let iy = oy * spec.stride + ky;
                                let ix = ox * spec.stride + kx;
                                plane_out[iy * w + ix] += gv;
                            }
                        }
                    }
                }
            }
        },
    );
    Tensor::from_vec(out, &[n, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_spec_output_geometry() {
        let s = ConvSpec::new(3, 8, 3, 1, 1);
        assert_eq!(s.output_hw(16, 16), (16, 16));
        let s2 = ConvSpec::new(3, 8, 3, 2, 1);
        assert_eq!(s2.output_hw(16, 16), (8, 8));
        let s3 = ConvSpec::new(1, 1, 2, 2, 0);
        assert_eq!(s3.output_hw(4, 4), (2, 2));
    }

    #[test]
    fn kernel_larger_than_padded_input_is_rejected() {
        // A 3×3 kernel without padding does not fit a 2×2 input (nor a
        // 3×2 one); `output_hw` would underflow.
        let spec = ConvSpec::new(1, 1, 3, 1, 0);
        let weight = Tensor::zeros(&[1, 9]);
        let grad = Tensor::zeros(&[1, 1, 1, 1]);
        let rejected = |r: Result<()>| matches!(r, Err(TensorError::InvalidArgument { .. }));
        for dims in [[1, 1, 2, 2], [1, 1, 3, 2]] {
            let x = Tensor::zeros(&dims);
            assert!(rejected(
                conv2d(&x, &weight, &Tensor::zeros(&[1]), &spec).map(drop)
            ));
            assert!(rejected(
                conv2d_backward(&x, &weight, &grad, &spec).map(drop)
            ));
            assert!(rejected(
                conv2d_backward_packed(&x, &weight, &grad, &spec).map(drop)
            ));
        }
        // Padding 1 makes the same input cover the kernel.
        let padded = ConvSpec::new(1, 1, 3, 1, 1);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(conv2d(&x, &weight, &Tensor::zeros(&[1]), &padded).is_ok());
    }

    #[test]
    fn conv2d_identity_kernel_reproduces_input() {
        // A 1x1 kernel with weight 1 and bias 0 is the identity map.
        let spec = ConvSpec::new(1, 1, 1, 1, 0);
        let input = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let weight = Tensor::full(&[1, 1], 1.0);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv2d_sum_kernel_known_value() {
        // 3x3 all-ones kernel, no padding: each output is the 3x3 patch sum.
        let spec = ConvSpec::new(1, 1, 3, 1, 0);
        let input = Tensor::full(&[1, 1, 4, 4], 1.0);
        let weight = Tensor::full(&[1, 9], 1.0);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert!(out.as_slice().iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn conv2d_padding_zeroes_border_contributions() {
        let spec = ConvSpec::new(1, 1, 3, 1, 1);
        let input = Tensor::full(&[1, 1, 3, 3], 1.0);
        let weight = Tensor::full(&[1, 9], 1.0);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        // Corner output sees only a 2x2 live patch.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 4.0);
        // Center output sees the full 3x3.
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 9.0);
    }

    #[test]
    fn conv2d_rejects_mismatched_weight() {
        let spec = ConvSpec::new(1, 2, 3, 1, 1);
        let input = Tensor::full(&[1, 1, 4, 4], 1.0);
        let bad_weight = Tensor::zeros(&[2, 8]);
        let bias = Tensor::zeros(&[2]);
        assert!(conv2d(&input, &bad_weight, &bias, &spec).is_err());
    }

    /// Finite-difference check of the full conv2d backward pass.
    #[test]
    fn conv2d_backward_matches_finite_differences() {
        let spec = ConvSpec::new(2, 3, 3, 1, 1);
        let n = 2;
        let (h, w) = (4, 4);
        let mk = |seed: u32, len: usize| -> Vec<f32> {
            // Small deterministic pseudo-random values.
            (0..len)
                .map(|i| {
                    let v = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                    ((v >> 16) & 0xff) as f32 / 255.0 - 0.5
                })
                .collect()
        };
        let input = Tensor::from_vec(mk(1, n * 2 * h * w), &[n, 2, h, w]).unwrap();
        let weight = Tensor::from_vec(mk(2, 3 * 18), &[3, 18]).unwrap();
        let bias = Tensor::from_vec(mk(3, 3), &[3]).unwrap();
        // Loss = sum of outputs, so grad_output = ones.
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        let grad_out = Tensor::full(out.dims(), 1.0);
        let grads = conv2d_backward(&input, &weight, &grad_out, &spec).unwrap();

        let eps = 1e-2f32;
        let loss = |inp: &Tensor, wt: &Tensor, bs: &Tensor| -> f32 {
            conv2d(inp, wt, bs, &spec).unwrap().sum()
        };
        // Check a sample of weight gradients.
        for &i in &[0usize, 7, 20, 53] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[i] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            let ana = grads.grad_weight.as_slice()[i];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "weight grad {i}: numeric {num} vs analytic {ana}"
            );
        }
        // Check a sample of input gradients.
        for &i in &[0usize, 13, 31, 60] {
            let mut ip = input.clone();
            ip.as_mut_slice()[i] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[i] -= eps;
            let num = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            let ana = grads.grad_input.as_slice()[i];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "input grad {i}: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient of a sum loss is the number of output positions.
        let (oh, ow) = spec.output_hw(h, w);
        let expected_bias = (n * oh * ow) as f32;
        for &g in grads.grad_bias.as_slice() {
            assert!((g - expected_bias).abs() < 1e-3);
        }
    }

    #[test]
    fn max_pool_picks_maxima_and_routes_gradient() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, //
                3.0, 0.0, 1.0, 1.0, //
                0.0, 0.0, 9.0, 1.0, //
                0.0, 7.0, 1.0, 1.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let spec = PoolSpec::new(2, 2);
        let (out, idx) = max_pool2d(&input, &spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[3.0, 5.0, 7.0, 9.0]);
        let grad = max_pool2d_backward(&Tensor::full(&[1, 1, 2, 2], 1.0), &idx).unwrap();
        // Exactly the four argmax positions receive gradient 1.
        assert_eq!(grad.sum(), 4.0);
        assert_eq!(grad.get(&[0, 0, 1, 0]).unwrap(), 1.0); // 3.0
        assert_eq!(grad.get(&[0, 0, 0, 2]).unwrap(), 1.0); // 5.0
        assert_eq!(grad.get(&[0, 0, 3, 1]).unwrap(), 1.0); // 7.0
        assert_eq!(grad.get(&[0, 0, 2, 2]).unwrap(), 1.0); // 9.0
    }

    #[test]
    fn avg_pool_forward_and_backward_are_consistent() {
        let input = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let spec = PoolSpec::new(2, 2);
        let out = avg_pool2d(&input, &spec).unwrap();
        assert_eq!(out.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
        let grad =
            avg_pool2d_backward(&Tensor::full(&[1, 1, 2, 2], 1.0), &spec, &[1, 1, 4, 4]).unwrap();
        // Each input cell belongs to exactly one window; gradient 1/4 each.
        assert!(grad.as_slice().iter().all(|&g| (g - 0.25).abs() < 1e-6));
    }

    #[test]
    fn max_pool_window_without_a_finite_maximum_stays_in_its_plane() {
        // Plane 1 is one window that is all NaN, then all -inf: it must
        // pool to that value and route its gradient inside plane 1.
        let spec = PoolSpec::new(2, 2);
        for fill in [f32::NAN, f32::NEG_INFINITY] {
            let mut x = vec![1.0, 2.0, 4.0, 3.0];
            x.extend([fill; 4]);
            let input = Tensor::from_vec(x, &[1, 2, 2, 2]).unwrap();
            let (out, idx) = max_pool2d(&input, &spec).unwrap();
            assert_eq!(out.as_slice()[0], 4.0);
            assert_eq!(out.as_slice()[1].to_bits(), fill.to_bits());
            let grad = max_pool2d_backward(&Tensor::full(&[1, 2, 1, 1], 1.0), &idx).unwrap();
            assert_eq!(grad.as_slice()[..4], [0.0, 0.0, 1.0, 0.0]);
            assert_eq!(grad.as_slice()[4..].iter().sum::<f32>(), 1.0);
        }
    }

    #[test]
    fn avg_pool_backward_rejects_a_window_larger_than_its_input() {
        let spec = PoolSpec::new(3, 1);
        for dims in [[1, 1, 2, 2], [1, 1, 3, 2]] {
            let r = avg_pool2d_backward(&Tensor::zeros(&[1, 1, 1, 1]), &spec, &dims);
            assert!(
                matches!(r, Err(TensorError::InvalidArgument { .. })),
                "{dims:?}: {r:?}"
            );
        }
    }

    #[test]
    fn pool_rejects_oversized_kernel() {
        let input = Tensor::full(&[1, 1, 2, 2], 1.0);
        let spec = PoolSpec::new(3, 1);
        assert!(max_pool2d(&input, &spec).is_err());
        assert!(avg_pool2d(&input, &spec).is_err());
    }
}

/// The scalar im2col/col2im the row-copy versions replaced, kept as the
/// bitwise oracle for them: one element per step, every index checked.
#[cfg(test)]
mod unroll_oracle {
    use super::*;
    use crate::ParallelismConfig;
    use proptest::prelude::*;

    fn im2col_scalar(cols: &mut [f32], x: &[f32], spec: &ConvSpec, n: usize, h: usize, w: usize) {
        let (oh, ow) = spec.output_hw(h, w);
        let (c, k, pl) = (spec.in_channels, spec.kernel, spec.patch_len());
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * pl;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let iy = iy as usize;
                            for kx in 0..k {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let ix = ix as usize;
                                cols[row + (ci * k + ky) * k + kx] =
                                    x[((ni * c + ci) * h + iy) * w + ix];
                            }
                        }
                    }
                }
            }
        }
    }

    fn col2im_scalar(out: &mut [f32], cs: &[f32], spec: &ConvSpec, n: usize, h: usize, w: usize) {
        let (oh, ow) = spec.output_hw(h, w);
        let (c, k, pl) = (spec.in_channels, spec.kernel, spec.patch_len());
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * pl;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let iy = iy as usize;
                            for kx in 0..k {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let ix = ix as usize;
                                out[((ni * c + ci) * h + iy) * w + ix] +=
                                    cs[row + (ci * k + ky) * k + kx];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Ordinary values mixed with ±0, subnormals of both signs, ±∞ and
    /// NaN.
    fn element() -> impl Strategy<Value = f32> {
        (0u32..u32::MAX).prop_map(|r| {
            let payload = r >> 4;
            match r % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(payload % 0x007f_ffff + 1),
                3 => -f32::from_bits(payload % 0x007f_ffff + 1),
                4 => f32::INFINITY,
                5 => f32::NEG_INFINITY,
                6 => f32::NAN,
                _ => payload as f32 / (1u32 << 28) as f32 * 4.0 - 2.0,
            }
        })
    }

    /// A spec with kernel 1–7, stride 1–3 and padding 0–3, a batch of
    /// 1–3 non-square inputs covering the padded kernel, and values for
    /// both the input and the column matrix.
    fn case() -> impl Strategy<Value = (ConvSpec, [usize; 4], Vec<f32>, Vec<f32>)> {
        (1..=7usize, 1..=3usize, 0..=3usize, 1..=3usize, 1..=3usize)
            .prop_flat_map(|(k, s, p, n, c)| {
                let min = k.saturating_sub(2 * p).max(1);
                (min..min + 7, min..min + 7)
                    .prop_map(move |(h, w)| (ConvSpec::new(c, 1, k, s, p), [n, c, h, w]))
            })
            .prop_flat_map(|(spec, dims)| {
                let [n, c, h, w] = dims;
                let (oh, ow) = spec.output_hw(h, w);
                let x = proptest::collection::vec(element(), n * c * h * w);
                let cs = proptest::collection::vec(element(), n * oh * ow * spec.patch_len());
                (x, cs).prop_map(move |(x, cs)| (spec, dims, x, cs))
            })
    }

    /// Bit for bit, except that any NaN matches any NaN when `nan_as_nan`:
    /// col2im adds, and Rust leaves the sign and payload of an arithmetic
    /// NaN unspecified (`∞ + -∞` and a drawn NaN may meet in either
    /// operand order). im2col only copies, so it is compared strictly.
    fn same_bits(a: &[f32], b: &[f32], nan_as_nan: bool) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.to_bits() == y.to_bits() || (nan_as_nan && x.is_nan() && y.is_nan())
            })
    }

    #[test]
    fn im2col_overwrites_a_poisoned_buffer() {
        // K = 3 (the compile-time body) and K = 2 / 5 (runtime K), each
        // with and without padding, at stride 1 and 2: every position of
        // a NaN-filled buffer ends as the scalar unroll into zeros.
        for (k, s, p) in [
            (3, 1, 1),
            (3, 2, 1),
            (3, 1, 0),
            (2, 2, 0),
            (5, 1, 2),
            (5, 2, 2),
        ] {
            let (n, c, h, w) = (2, 3, 7, 6);
            let spec = ConvSpec::new(c, 1, k, s, p);
            let x: Vec<f32> = (0..n * c * h * w).map(|i| i as f32 * 0.5 - 9.0).collect();
            let input = Tensor::from_vec(x.clone(), &[n, c, h, w]).unwrap();
            let (oh, ow) = spec.output_hw(h, w);
            let mut want = vec![0.0; n * oh * ow * spec.patch_len()];
            im2col_scalar(&mut want, &x, &spec, n, h, w);
            for threads in [1, 2, 4, 8] {
                let _guard = ParallelismConfig::with_threads(threads).scoped();
                let mut cols = vec![f32::NAN; want.len()];
                im2col_into(&mut cols, &input, &spec).unwrap();
                assert!(same_bits(&cols, &want, false), "{spec:?} threads={threads}");
            }
        }
    }

    proptest! {
        #[test]
        fn row_copies_are_bitwise_the_scalar_unroll(cases in proptest::collection::vec(case(), 8)) {
            for (spec, dims, x, cs) in cases {
                let [n, _, h, w] = dims;
                let input = Tensor::from_vec(x.clone(), &dims).unwrap();
                let mut want_cols = vec![0.0; cs.len()];
                im2col_scalar(&mut want_cols, &x, &spec, n, h, w);
                let mut want_img = vec![0.0; x.len()];
                col2im_scalar(&mut want_img, &cs, &spec, n, h, w);
                for threads in [1, 2, 4, 8] {
                    let _guard = ParallelismConfig::with_threads(threads).scoped();
                    // A stale buffer: im2col must write every element.
                    let mut cols = vec![f32::NAN; cs.len()];
                    im2col_into(&mut cols, &input, &spec).unwrap();
                    let tag = format!("{spec:?} {dims:?} threads={threads}");
                    prop_assert!(same_bits(&cols, &want_cols, false), "im2col {tag}");
                    let mut img = vec![0.0; x.len()];
                    col2im_into(&mut img, &cs, &spec, n, h, w);
                    prop_assert!(same_bits(&img, &want_img, true), "col2im {tag}");
                }
            }
        }
    }
}

/// The backward pass from the patch matrix the forward kept against the
/// public entry points that unroll the input again: the same three
/// gradients, bit for bit, full-width and packed.
#[cfg(test)]
mod patches_oracle {
    use super::*;
    use crate::ParallelismConfig;
    use proptest::prelude::*;

    /// Ordinary values mixed with ±0, ±∞ and NaN.
    fn element() -> impl Strategy<Value = f32> {
        (0u32..u32::MAX).prop_map(|r| match r % 24 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            _ => (r >> 5) as f32 / (1u32 << 27) as f32 * 2.0 - 1.0,
        })
    }

    fn tensor(dims: &[usize]) -> impl Strategy<Value = Tensor> {
        let dims = dims.to_vec();
        proptest::collection::vec(element(), dims.iter().product::<usize>())
            .prop_map(move |v| Tensor::from_vec(v, &dims).unwrap())
    }

    /// A full spec (kernel 1–3 or 5, stride 1–2, padding 0–2, 1–4
    /// channels each way), packed channel counts `ca ≤ C` and
    /// `oa ≤ O`, and operands: the packed input, the forward's packed
    /// weight and bias, the backward's weight rows and the packed output
    /// gradient.
    #[allow(clippy::type_complexity)]
    fn case() -> impl Strategy<Value = (ConvSpec, usize, [Tensor; 5])> {
        (
            (
                (0..4usize).prop_map(|i| [1usize, 2, 3, 5][i]),
                1..=2usize,
                0..=2usize,
            ),
            (1..=4usize, 1..=4usize, 1..=2usize),
        )
            .prop_flat_map(|((k, s, p), (c, o, n))| {
                let min = k.saturating_sub(2 * p).max(1);
                (1..=c, 1..=o, min..min + 5, min..min + 5)
                    .prop_map(move |(ca, oa, h, w)| (ConvSpec::new(c, o, k, s, p), ca, oa, n, h, w))
            })
            .prop_flat_map(|(spec, ca, oa, n, h, w)| {
                let (oh, ow) = spec.output_hw(h, w);
                let kk = spec.kernel * spec.kernel;
                (
                    tensor(&[n, ca, h, w]),
                    tensor(&[oa, ca * kk]),
                    tensor(&[oa]),
                    tensor(&[oa, spec.patch_len()]),
                    tensor(&[n, oa, oh, ow]),
                )
                    .prop_map(move |(x, w_p, b_p, w_rows, g)| (spec, ca, [x, w_p, b_p, w_rows, g]))
            })
    }

    fn assert_same(a: &Conv2dGrads, b: &Conv2dGrads, tag: &str) {
        for (name, x, y) in [
            ("input", &a.grad_input, &b.grad_input),
            ("weight", &a.grad_weight, &b.grad_weight),
            ("bias", &a.grad_bias, &b.grad_bias),
        ] {
            assert_eq!(x.dims(), y.dims(), "{name} {tag}");
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(y), "grad_{name} {tag}");
        }
    }

    proptest! {
        #[test]
        fn kept_patches_backward_is_bitwise_the_recomputing_one(
            cases in proptest::collection::vec(case(), 6)
        ) {
            for (spec, ca, [x, w_p, b_p, w_rows, g]) in cases {
                let oa = g.dims()[1];
                let fwd_spec = ConvSpec { in_channels: ca, out_channels: oa, ..spec };
                let full = ca == spec.in_channels && oa == spec.out_channels;
                for threads in [1, 2, 4, 8] {
                    let _guard = ParallelismConfig::with_threads(threads).scoped();
                    let tag = format!("{spec:?} ca={ca} oa={oa} threads={threads}");
                    let (y, patches) = conv2d_with_patches(&x, &w_p, &b_p, &fwd_spec).unwrap();
                    let y_ref = conv2d(&x, &w_p, &b_p, &fwd_spec).unwrap();
                    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&y), bits(&y_ref), "forward {}", &tag);
                    let kept = conv2d_backward_with_patches(patches, &w_rows, &g, &spec).unwrap();
                    let packed = conv2d_backward_packed(&x, &w_rows, &g, &spec).unwrap();
                    assert_same(&kept, &packed, &format!("packed {tag}"));
                    if full {
                        let plain = conv2d_backward(&x, &w_rows, &g, &spec).unwrap();
                        assert_same(&kept, &plain, &format!("full {tag}"));
                    }
                }
            }
        }
    }

    #[test]
    fn patches_from_another_geometry_are_rejected() {
        let spec = ConvSpec::new(2, 3, 3, 1, 1);
        let x = Tensor::full(&[1, 2, 5, 5], 1.0);
        let (y, patches) =
            conv2d_with_patches(&x, &Tensor::zeros(&[3, 18]), &Tensor::zeros(&[3]), &spec).unwrap();
        let strided = ConvSpec { stride: 2, ..spec };
        let g = Tensor::zeros(y.dims());
        let r = conv2d_backward_with_patches(patches, &Tensor::zeros(&[3, 18]), &g, &strided);
        assert!(matches!(r, Err(TensorError::InvalidArgument { .. })));
    }
}

/// The 2×2 / stride-2 max-pool fast path against the generic body, which
/// is the oracle for that shape: same values bit for bit, same argmax.
#[cfg(test)]
mod pool_oracle {
    use super::*;
    use crate::ParallelismConfig;
    use proptest::prelude::*;

    /// Few distinct values, so windows tie often, mixed with ±0, ±∞ and
    /// NaNs of two payloads and both signs, so a window can hold several
    /// NaNs that only their bits tell apart.
    fn element() -> impl Strategy<Value = f32> {
        (0u32..14).prop_map(|r| match r {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            5 => f32::from_bits(0xffc0_0001),
            r => r as f32 / 4.0 - 2.0,
        })
    }

    /// A batch of 1–3 items of 1–3 planes, 2–9 high and wide (odd sizes
    /// leave a row or column no window covers), with its values.
    fn case() -> impl Strategy<Value = ([usize; 4], Vec<f32>)> {
        (1..=3usize, 1..=3usize, 2..=9usize, 2..=9usize).prop_flat_map(|(n, c, h, w)| {
            proptest::collection::vec(element(), n * c * h * w).prop_map(move |x| ([n, c, h, w], x))
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn fast_2x2_path_is_bitwise_the_generic_body(cases in proptest::collection::vec(case(), 8)) {
            let spec = PoolSpec::new(2, 2);
            for (dims, x) in cases {
                let [n, c, h, w] = dims;
                let (oh, ow) = spec.output_hw(h, w);
                let mut want = vec![0.0; n * c * oh * ow];
                let mut want_idx = vec![0; want.len()];
                let planes = want.chunks_mut(oh * ow).zip(want_idx.chunks_mut(oh * ow));
                for (p, (out, idx)) in planes.enumerate() {
                    max_pool_plane(&x, p * h * w, [h, w], &spec, out, Some(idx));
                }
                let input = Tensor::from_vec(x, &dims).unwrap();
                for threads in [1, 2, 4, 8] {
                    let _guard = ParallelismConfig::with_threads(threads).scoped();
                    let tag = format!("{dims:?} threads={threads}");
                    let (got, idx) = max_pool2d(&input, &spec).unwrap();
                    prop_assert_eq!(bits(got.as_slice()), bits(&want), "values {}", &tag);
                    prop_assert_eq!(&idx.indices, &want_idx, "argmax {}", &tag);
                    let values = max_pool2d_values(&input, &spec).unwrap();
                    prop_assert_eq!(bits(values.as_slice()), bits(&want), "values only {}", &tag);
                }
            }
        }
    }

    /// The selection rule, spelled out on single windows: ties keep the
    /// first maximum, a NaN beats every number, and of several NaNs the
    /// last one wins.
    #[test]
    fn fast_path_keeps_the_selection_rule() {
        let other_nan = f32::from_bits(0xffc0_0001);
        let cases: [([f32; 4], usize); 5] = [
            ([1.0, 3.0, 3.0, 2.0], 1),
            ([f32::NEG_INFINITY; 4], 0),
            ([5.0, f32::NAN, 9.0, f32::INFINITY], 1),
            ([f32::NAN, 1.0, other_nan, 2.0], 2),
            ([-0.0, 0.0, -0.0, 0.0], 0),
        ];
        for (window, at) in cases {
            let input = Tensor::from_vec(window.to_vec(), &[1, 1, 2, 2]).unwrap();
            let (out, idx) = max_pool2d(&input, &PoolSpec::new(2, 2)).unwrap();
            assert_eq!(idx.indices, [at], "{window:?}");
            assert_eq!(
                out.as_slice()[0].to_bits(),
                window[at].to_bits(),
                "{window:?}"
            );
        }
    }
}
