//! 2-D convolution (via `im2col`) and pooling primitives.
//!
//! All spatial operators work on rank-4 tensors in `[N, C, H, W]` layout
//! (batch, channels, height, width). Convolution weights are stored as a
//! rank-2 `[out_channels, in_channels * kh * kw]` matrix so the forward
//! pass is a single matrix product over the unrolled patches.

use crate::gemm::{gemm_into, Layout};
use crate::parallel::{for_each_block, for_each_block2};
use crate::workspace::{with_scratch, with_scratch_dirty};
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

/// Gradients produced by [`conv2d_backward`] and
/// [`conv2d_backward_packed`].
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

fn check_nchw(op: &'static str, t: &Tensor) -> Result<(usize, usize, usize, usize)> {
    if t.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: t.shape().rank(),
        });
    }
    let d = t.dims();
    Ok((d[0], d[1], d[2], d[3]))
}

/// [`check_nchw`] for a convolution input, which must also cover the
/// kernel once padded — otherwise [`ConvSpec::output_hw`] underflows.
fn check_conv_input(
    op: &'static str,
    input: &Tensor,
    spec: &ConvSpec,
) -> Result<(usize, usize, usize, usize)> {
    let (n, c, h, w) = check_nchw(op, input)?;
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

/// Unrolls `[N, C, H, W]` input patches into the `[N*OH*OW, C*K*K]`
/// matrix `cols`, which must arrive zero-filled — the padding positions
/// of each patch are simply never written. Callers check `cols` out of
/// the workspace arena ([`with_scratch`]), so the steady-state training
/// path reuses one buffer cycle after cycle instead of allocating a
/// multi-megabyte `Vec` per forward/backward.
fn im2col_into(cols: &mut [f32], input: &Tensor, spec: &ConvSpec) -> Result<()> {
    let (n, c, h, w) = check_nchw("im2col", input)?;
    if c != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: input.dims().to_vec(),
            rhs: vec![spec.in_channels],
        });
    }
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let pl = spec.patch_len();
    let x = input.as_slice();
    debug_assert_eq!(
        cols.len(),
        n * oh * ow * pl,
        "cols must be [N*OH*OW, C*K*K]"
    );
    // Parallel over batch items: each item's rows live in a disjoint
    // slice of `cols`, so workers never share output elements.
    for_each_block(cols, oh * ow * pl, oh * ow * pl, |first, chunk| {
        for (bi, item) in chunk.chunks_mut(oh * ow * pl).enumerate() {
            let ni = first + bi;
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (oy * ow + ox) * pl;
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
                                item[row + (ci * k + ky) * k + kx] =
                                    x[((ni * c + ci) * h + iy) * w + ix];
                            }
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

/// Scatter-adds a `[N*OH*OW, C*K*K]` column matrix into the
/// `[N, C, H, W]` buffer `out` (which the caller supplies zero-filled).
fn col2im_into(out: &mut [f32], cs: &[f32], spec: &ConvSpec, n: usize, h: usize, w: usize) {
    let (oh, ow) = spec.output_hw(h, w);
    let c = spec.in_channels;
    let k = spec.kernel;
    let pl = spec.patch_len();
    debug_assert_eq!(cs.len(), n * oh * ow * pl, "cols must be [N*OH*OW, C*K*K]");
    debug_assert_eq!(out.len(), n * c * h * w, "out must be [N, C, H, W]");
    // Parallel over batch items: the scatter-add for item `ni` only
    // touches `out[ni * c*h*w ..]`, so per-item chunks are disjoint and
    // the within-item accumulation order matches the serial loop.
    for_each_block(out, c * h * w, oh * ow * pl, |first, chunk| {
        for (bi, item) in chunk.chunks_mut(c * h * w).enumerate() {
            let ni = first + bi;
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
                                item[(ci * h + iy) * w + ix] += cs[row + (ci * k + ky) * k + kx];
                            }
                        }
                    }
                }
            }
        }
    });
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
    let mut out = vec![0.0f32; n * o * oh * ow];
    // Both the patch matrix and the GEMM product are transient: they
    // come from the workspace arena, so steady-state training reuses the
    // same buffers every cycle.
    with_scratch(rows_n * pl, |cols| -> Result<()> {
        im2col_into(cols, input, spec)?;
        with_scratch(rows_n * o, |prod| {
            // [N*OH*OW, CKK] × [CKK, O] → [N*OH*OW, O]. The weight is
            // stored `[O, CKK]` — the logical B transposed — and the
            // kernel reads it in place; no materialized `transpose()`.
            gemm_into(
                prod,
                rows_n,
                pl,
                o,
                cols,
                Layout::Normal,
                weight.as_slice(),
                Layout::Transposed,
            );
            // Parallel over batch items: relayout rows → NCHW plus bias.
            for_each_block(&mut out, o * oh * ow, o * oh * ow, |first, chunk| {
                for (bi, item) in chunk.chunks_mut(o * oh * ow).enumerate() {
                    let ni = first + bi;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let row = ((ni * oh + oy) * ow + ox) * o;
                            for oc in 0..o {
                                item[(oc * oh + oy) * ow + ox] = prod[row + oc] + b[oc];
                            }
                        }
                    }
                }
            });
        });
        Ok(())
    })?;
    Tensor::from_vec(out, &[n, o, oh, ow])
}

/// 2-D convolution backward pass.
///
/// Given the forward `input`, the `weight` matrix, and `grad_output` of
/// shape `[N, O, OH, OW]`, computes gradients with respect to input,
/// weight, and bias.
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
    let (n, _c, h, w) = check_conv_input("conv2d_backward", input, spec)?;
    let (gn, go, goh, gow) = check_nchw("conv2d_backward", grad_output)?;
    let (oh, ow) = spec.output_hw(h, w);
    if gn != n || go != spec.out_channels || goh != oh || gow != ow {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, spec.out_channels, oh, ow],
        });
    }
    backward_body(input, weight, grad_output, spec, spec)
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
    let (n, ca, h, w) = check_conv_input("conv2d_backward_packed", input_packed, spec)?;
    let (gn, oa, goh, gow) = check_nchw("conv2d_backward_packed", grad_output_packed)?;
    let (oh, ow) = spec.output_hw(h, w);
    if gn != n || goh != oh || gow != ow {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_packed",
            lhs: grad_output_packed.dims().to_vec(),
            rhs: vec![n, oa, oh, ow],
        });
    }
    if weight_rows.dims() != [oa, spec.patch_len()] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_packed",
            lhs: weight_rows.dims().to_vec(),
            rhs: vec![oa, spec.patch_len()],
        });
    }
    if ca == 0 || ca > spec.in_channels || oa == 0 || oa > spec.out_channels {
        return Err(TensorError::InvalidArgument {
            what: format!(
                "conv2d_backward_packed: packed channels ({ca} in, {oa} out) must be \
                 nonzero and within the full spec ({} in, {} out)",
                spec.in_channels, spec.out_channels
            ),
        });
    }
    // Patch matrix over the *active* input channels only: identical
    // entries to the active column blocks of the full im2col, in the
    // same relative order, because the column layout is channel-major.
    let cols_spec = ConvSpec {
        in_channels: ca,
        out_channels: oa,
        ..*spec
    };
    backward_body(
        input_packed,
        weight_rows,
        grad_output_packed,
        &cols_spec,
        spec,
    )
}

/// The backward pass behind [`conv2d_backward`] (`cols_spec == spec`)
/// and [`conv2d_backward_packed`] (`cols_spec` narrowed to the active
/// channels), whose callers have checked the operand shapes: `input` is
/// `[N, Ca, H, W]`, `weight_rows` `[Oa, C*K*K]`, `grad_output`
/// `[N, Oa, OH, OW]`. One body is what keeps the two bitwise
/// comparable — every sum runs in the same per-element order at any
/// channel count.
fn backward_body(
    input: &Tensor,
    weight_rows: &Tensor,
    grad_output: &Tensor,
    cols_spec: &ConvSpec,
    spec: &ConvSpec,
) -> Result<Conv2dGrads> {
    let (n, h, w) = (input.dims()[0], input.dims()[2], input.dims()[3]);
    let oa = grad_output.dims()[1];
    let (oh, ow) = spec.output_hw(h, w);
    let pl = spec.patch_len();
    let pl_p = cols_spec.patch_len();
    let rows_n = n * oh * ow;
    let g = grad_output.as_slice();
    // Bias gradient, parallel over output channels. For each channel the
    // additions run in ascending (ni, oy, ox) order, so sums are bitwise
    // stable.
    let mut grad_bias = vec![0.0f32; oa];
    for_each_block(&mut grad_bias, 1, n * oh * ow, |first, chunk| {
        for (bi, acc) in chunk.iter_mut().enumerate() {
            let oc = first + bi;
            for ni in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        *acc += g[((ni * oa + oc) * oh + oy) * ow + ox];
                    }
                }
            }
        }
    });
    let mut grad_weight = vec![0.0f32; oa * pl_p];
    let mut grad_input = vec![0.0f32; n * spec.in_channels * h * w];
    // The relayouted gradient, the patch matrix, and `dcols` are all
    // transient workspace; `rows` is written in full by the relayout, so
    // it skips even the zero-fill.
    with_scratch_dirty(rows_n * oa, |rows| -> Result<()> {
        // Re-layout grad_output from NCHW to rows [N*OH*OW, Oa], parallel
        // over batch items (disjoint row blocks per item).
        for_each_block(rows, oh * ow * oa, oh * ow * oa, |first, chunk| {
            for (bi, item) in chunk.chunks_mut(oh * ow * oa).enumerate() {
                let ni = first + bi;
                for oc in 0..oa {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            item[(oy * ow + ox) * oa + oc] =
                                g[((ni * oa + oc) * oh + oy) * ow + ox];
                        }
                    }
                }
            }
        });
        with_scratch(rows_n * pl_p, |cols| -> Result<()> {
            im2col_into(cols, input, cols_spec)?;
            // dW = gradᵀ × cols : [Oa, N*OH*OW] × [N*OH*OW, Ca*KK] →
            // [Oa, Ca*KK]. `rows` stores the logical Aᵀ; read in place.
            gemm_into(
                &mut grad_weight,
                oa,
                rows_n,
                pl_p,
                rows,
                Layout::Transposed,
                cols,
                Layout::Normal,
            );
            Ok(())
        })?;
        with_scratch(rows_n * pl, |dcols| {
            // dcols = grad × W_rows : [N*OH*OW, Oa] × [Oa, C*KK] — full
            // input columns, so col2im produces the full-shape
            // grad_input.
            gemm_into(
                dcols,
                rows_n,
                oa,
                pl,
                rows,
                Layout::Normal,
                weight_rows.as_slice(),
                Layout::Normal,
            );
            col2im_into(&mut grad_input, dcols, spec, n, h, w);
        });
        Ok(())
    })?;
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

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        (oh, ow)
    }
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
/// [`max_pool2d_backward`].
///
/// # Errors
///
/// Returns a [`TensorError`] when the input is not rank 4 or smaller than
/// the pooling window.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<(Tensor, PoolIndices)> {
    let (n, c, h, w) = check_nchw("max_pool2d", input)?;
    if h < spec.kernel || w < spec.kernel {
        return Err(TensorError::InvalidArgument {
            what: format!("pool kernel {} exceeds input {h}x{w}", spec.kernel),
        });
    }
    let (oh, ow) = spec.output_hw(h, w);
    let x = input.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut idx = vec![0usize; n * c * oh * ow];
    let window = spec.kernel * spec.kernel;
    // One comparison per window element, counted once from the shapes.
    crate::instrument::record_kernel((n * c * oh * ow * window) as u64, (n * c * oh * ow) as u64);
    // Parallel over `N*C` planes; values and argmax indices are
    // partitioned in lockstep so each worker fills both for its planes.
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
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_v = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for ky in 0..spec.kernel {
                            for kx in 0..spec.kernel {
                                let iy = oy * spec.stride + ky;
                                let ix = ox * spec.stride + kx;
                                let fi = (plane * h + iy) * w + ix;
                                if x[fi] > best_v {
                                    best_v = x[fi];
                                    best_i = fi;
                                }
                            }
                        }
                        out_plane[oy * ow + ox] = best_v;
                        idx_plane[oy * ow + ox] = best_i;
                    }
                }
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
    let (n, c, h, w) = check_nchw("avg_pool2d", input)?;
    if h < spec.kernel || w < spec.kernel {
        return Err(TensorError::InvalidArgument {
            what: format!("pool kernel {} exceeds input {h}x{w}", spec.kernel),
        });
    }
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
/// given input geometry.
pub fn avg_pool2d_backward(
    grad_output: &Tensor,
    spec: &PoolSpec,
    input_dims: &[usize],
) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "avg_pool2d_backward",
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
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
    fn pool_rejects_oversized_kernel() {
        let input = Tensor::full(&[1, 1, 2, 2], 1.0);
        let spec = PoolSpec::new(3, 1);
        assert!(max_pool2d(&input, &spec).is_err());
        assert!(avg_pool2d(&input, &spec).is_err());
    }
}
