//! Gather/scatter primitives for mask-aware **packed execution**.
//!
//! When a soft-training unit mask is installed, the masked rows/columns
//! of a `Dense` weight (or channels of a `Conv2d`) contribute nothing:
//! their activations are definitionally zero and their gradients are
//! definitionally zeroed. Packed execution gathers the *active*
//! coordinates into compact tensors, runs the expensive GEMM/conv
//! kernels on the packed shapes, and scatters results back into
//! full-shape tensors (zeros elsewhere).
//!
//! Everything in this module is pure data movement: no arithmetic, no
//! flops recorded, and no reordering of the surviving elements. That is
//! what makes packed execution **bitwise identical** to the legacy
//! zeroing path — [`Tensor::matmul`](crate::Tensor::matmul) skips
//! zero-valued left-operand entries inside its accumulation loop, so the
//! zeroing path already omits exactly the terms packing removes, and the
//! per-element accumulation order of the remaining terms is unchanged.
//! The blocked kernel behind `matmul` (see [`crate::gemm`]) preserves
//! that `a_ik == 0.0` skip and the strictly-ascending-`k` term order in
//! every tile path — checked, unchecked, and packed-tail alike — which
//! is why cache blocking did not disturb this equivalence.
//!
//! Index lists must be strictly increasing subsets of the packed axis
//! (the layer code derives them from boolean masks, which guarantees
//! this); duplicates or out-of-range indices are rejected.

use crate::error::TensorError;
use crate::parallel::for_each_block;
use crate::tensor::Tensor;
use crate::Result;

/// Validates that `idx` is strictly increasing and within `bound`.
fn check_indices(idx: &[usize], bound: usize, what: &'static str) -> Result<()> {
    let mut prev: Option<usize> = None;
    for &i in idx {
        if i >= bound {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: vec![bound],
            });
        }
        if prev.is_some_and(|p| p >= i) {
            return Err(TensorError::InvalidArgument {
                what: format!("{what}: index list must be strictly increasing"),
            });
        }
        prev = Some(i);
    }
    Ok(())
}

fn check_rank2(x: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    let d = x.dims();
    if d.len() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: d.len(),
        });
    }
    Ok((d[0], d[1]))
}

fn check_rank4(x: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    let d = x.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: d.len(),
        });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// Gathers a rank-2 tensor down to `rows × cols`, where `None` keeps an
/// axis whole. The packed tensor holds the selected elements in their
/// original relative order.
pub fn gather_rows_cols(
    x: &Tensor,
    rows: Option<&[usize]>,
    cols: Option<&[usize]>,
) -> Result<Tensor> {
    let (m, n) = check_rank2(x, "gather_rows_cols")?;
    if let Some(r) = rows {
        check_indices(r, m, "gather_rows_cols rows")?;
    }
    if let Some(c) = cols {
        check_indices(c, n, "gather_rows_cols cols")?;
    }
    let mp = rows.map_or(m, <[usize]>::len);
    let np = cols.map_or(n, <[usize]>::len);
    let src = x.as_slice();
    let mut out = Tensor::zeros(&[mp, np]);
    for_each_block(out.as_mut_slice(), np, n, |first_row, chunk| {
        for (ri, dst_row) in chunk.chunks_mut(np.max(1)).enumerate() {
            let sr = rows.map_or(first_row + ri, |r| r[first_row + ri]);
            let src_row = &src[sr * n..(sr + 1) * n];
            match cols {
                Some(c) => {
                    for (dst, &sc) in dst_row.iter_mut().zip(c) {
                        *dst = src_row[sc];
                    }
                }
                None => dst_row.copy_from_slice(src_row),
            }
        }
    });
    Ok(out)
}

/// Adds a packed rank-2 tensor back into the `rows × cols` sub-grid of
/// `dst` (`None` keeps an axis whole). The inverse of
/// [`gather_rows_cols`] for gradient accumulation: untouched positions
/// of `dst` keep their exact bit patterns.
pub fn scatter_add_rows_cols(
    dst: &mut Tensor,
    src: &Tensor,
    rows: Option<&[usize]>,
    cols: Option<&[usize]>,
) -> Result<()> {
    let (m, n) = check_rank2(dst, "scatter_add_rows_cols")?;
    let (mp, np) = check_rank2(src, "scatter_add_rows_cols")?;
    if let Some(r) = rows {
        check_indices(r, m, "scatter_add_rows_cols rows")?;
    }
    if let Some(c) = cols {
        check_indices(c, n, "scatter_add_rows_cols cols")?;
    }
    if rows.map_or(m, <[usize]>::len) != mp || cols.map_or(n, <[usize]>::len) != np {
        return Err(TensorError::ShapeMismatch {
            op: "scatter_add_rows_cols",
            lhs: dst.dims().to_vec(),
            rhs: src.dims().to_vec(),
        });
    }
    let s = src.as_slice();
    let d = dst.as_mut_slice();
    for (ri, src_row) in s.chunks(np.max(1)).enumerate() {
        let dr = rows.map_or(ri, |r| r[ri]);
        let dst_row = &mut d[dr * n..(dr + 1) * n];
        match cols {
            Some(c) => {
                for (&v, &dc) in src_row.iter().zip(c) {
                    dst_row[dc] += v;
                }
            }
            None => {
                for (dv, &v) in dst_row.iter_mut().zip(src_row) {
                    *dv += v;
                }
            }
        }
    }
    Ok(())
}

/// Expands a packed rank-2 tensor of `cols.len()` columns into a
/// `rows × out_cols` tensor, placing column `j` of `src` at column
/// `cols[j]` and exact `+0.0` everywhere else.
pub fn scatter_cols(src: &Tensor, cols: &[usize], out_cols: usize) -> Result<Tensor> {
    let (m, np) = check_rank2(src, "scatter_cols")?;
    check_indices(cols, out_cols, "scatter_cols")?;
    if cols.len() != np {
        return Err(TensorError::ShapeMismatch {
            op: "scatter_cols",
            lhs: vec![m, np],
            rhs: vec![cols.len()],
        });
    }
    let s = src.as_slice();
    let mut out = Tensor::zeros(&[m, out_cols]);
    for_each_block(out.as_mut_slice(), out_cols, np, |first_row, chunk| {
        for (ri, dst_row) in chunk.chunks_mut(out_cols.max(1)).enumerate() {
            let src_row = &s[(first_row + ri) * np..(first_row + ri + 1) * np];
            for (&v, &dc) in src_row.iter().zip(cols) {
                dst_row[dc] = v;
            }
        }
    });
    Ok(out)
}

/// Gathers the selected entries of a rank-1 tensor (e.g. a bias vector).
pub fn gather_elems(x: &Tensor, idx: &[usize]) -> Result<Tensor> {
    let d = x.dims();
    if d.len() != 1 {
        return Err(TensorError::RankMismatch {
            op: "gather_elems",
            expected: 1,
            actual: d.len(),
        });
    }
    check_indices(idx, d[0], "gather_elems")?;
    let src = x.as_slice();
    Tensor::from_vec(idx.iter().map(|&i| src[i]).collect(), &[idx.len()])
}

/// Adds a packed rank-1 tensor back into the selected entries of `dst`.
pub fn scatter_add_elems(dst: &mut Tensor, src: &Tensor, idx: &[usize]) -> Result<()> {
    if dst.dims().len() != 1 || src.dims().len() != 1 {
        return Err(TensorError::RankMismatch {
            op: "scatter_add_elems",
            expected: 1,
            actual: dst.dims().len().max(src.dims().len()),
        });
    }
    check_indices(idx, dst.len(), "scatter_add_elems")?;
    if idx.len() != src.len() {
        return Err(TensorError::ShapeMismatch {
            op: "scatter_add_elems",
            lhs: vec![dst.len()],
            rhs: vec![src.len()],
        });
    }
    let d = dst.as_mut_slice();
    for (&v, &di) in src.as_slice().iter().zip(idx) {
        d[di] += v;
    }
    Ok(())
}

/// Gathers the selected channel planes of an `[N, C, H, W]` tensor into
/// `[N, channels.len(), H, W]`, preserving plane order.
pub fn gather_channels(x: &Tensor, channels: &[usize]) -> Result<Tensor> {
    let (n, c, h, w) = check_rank4(x, "gather_channels")?;
    check_indices(channels, c, "gather_channels")?;
    let plane = h * w;
    let ca = channels.len();
    let src = x.as_slice();
    let mut out = Tensor::zeros(&[n, ca, h, w]);
    for_each_block(out.as_mut_slice(), ca * plane, c * plane, |first, chunk| {
        for (ni, item) in chunk.chunks_mut((ca * plane).max(1)).enumerate() {
            let src_item = &src[(first + ni) * c * plane..(first + ni + 1) * c * plane];
            for (pi, &ci) in channels.iter().enumerate() {
                item[pi * plane..(pi + 1) * plane]
                    .copy_from_slice(&src_item[ci * plane..(ci + 1) * plane]);
            }
        }
    });
    Ok(out)
}

/// Expands an `[N, channels.len(), H, W]` tensor into `[N, out_channels,
/// H, W]`, placing plane `j` at channel `channels[j]` and exact `+0.0`
/// in every other plane.
pub fn scatter_channels(src: &Tensor, channels: &[usize], out_channels: usize) -> Result<Tensor> {
    let (n, ca, h, w) = check_rank4(src, "scatter_channels")?;
    check_indices(channels, out_channels, "scatter_channels")?;
    if channels.len() != ca {
        return Err(TensorError::ShapeMismatch {
            op: "scatter_channels",
            lhs: vec![n, ca, h, w],
            rhs: vec![channels.len()],
        });
    }
    let plane = h * w;
    let s = src.as_slice();
    let mut out = Tensor::zeros(&[n, out_channels, h, w]);
    for_each_block(
        out.as_mut_slice(),
        out_channels * plane,
        ca * plane,
        |first, chunk| {
            for (ni, item) in chunk.chunks_mut((out_channels * plane).max(1)).enumerate() {
                let src_item = &s[(first + ni) * ca * plane..(first + ni + 1) * ca * plane];
                for (pi, &ci) in channels.iter().enumerate() {
                    item[ci * plane..(ci + 1) * plane]
                        .copy_from_slice(&src_item[pi * plane..(pi + 1) * plane]);
                }
            }
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{uniform_init, TensorRng};
    use crate::kernel_counters;

    #[test]
    fn gather_scatter_cols_round_trip() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let g = gather_rows_cols(&x, None, Some(&[1, 3])).unwrap();
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.as_slice(), &[1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
        let s = scatter_cols(&g, &[1, 3], 4).unwrap();
        assert_eq!(
            s.as_slice(),
            &[0.0, 1.0, 0.0, 3.0, 0.0, 5.0, 0.0, 7.0, 0.0, 9.0, 0.0, 11.0]
        );
    }

    #[test]
    fn gather_rows_cols_selects_sub_grid() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let g = gather_rows_cols(&x, Some(&[0, 2]), Some(&[0, 2, 3])).unwrap();
        assert_eq!(g.dims(), &[2, 3]);
        assert_eq!(g.as_slice(), &[0.0, 2.0, 3.0, 8.0, 10.0, 11.0]);
    }

    #[test]
    fn scatter_add_targets_only_selected_cells() {
        let mut dst = Tensor::full(&[3, 4], 1.0);
        let src = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[2, 2]).unwrap();
        scatter_add_rows_cols(&mut dst, &src, Some(&[0, 2]), Some(&[1, 3])).unwrap();
        assert_eq!(
            dst.as_slice(),
            &[1.0, 11.0, 1.0, 21.0, 1.0, 1.0, 1.0, 1.0, 1.0, 31.0, 1.0, 41.0]
        );
    }

    #[test]
    fn elems_round_trip() {
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let g = gather_elems(&b, &[0, 3]).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 4.0]);
        let mut dst = Tensor::zeros(&[4]);
        scatter_add_elems(&mut dst, &g, &[0, 3]).unwrap();
        assert_eq!(dst.as_slice(), &[1.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn channels_round_trip() {
        let x = Tensor::from_vec(
            (0..2 * 3 * 2 * 2).map(|v| v as f32).collect(),
            &[2, 3, 2, 2],
        )
        .unwrap();
        let g = gather_channels(&x, &[0, 2]).unwrap();
        assert_eq!(g.dims(), &[2, 2, 2, 2]);
        assert_eq!(
            g.as_slice(),
            &[
                0.0, 1.0, 2.0, 3.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 20.0, 21.0, 22.0,
                23.0
            ]
        );
        let s = scatter_channels(&g, &[0, 2], 3).unwrap();
        for (i, &v) in s.as_slice().iter().enumerate() {
            let ci = (i / 4) % 3;
            if ci == 1 {
                assert_eq!(v, 0.0, "masked plane element {i}");
            } else {
                assert_eq!(v, x.as_slice()[i], "kept plane element {i}");
            }
        }
    }

    #[test]
    fn invalid_indices_are_rejected() {
        let x = Tensor::zeros(&[2, 3]);
        assert!(gather_rows_cols(&x, None, Some(&[3])).is_err());
        assert!(gather_rows_cols(&x, Some(&[1, 1]), None).is_err());
        assert!(gather_rows_cols(&x, Some(&[1, 0]), None).is_err());
        let b = Tensor::zeros(&[3]);
        assert!(gather_elems(&b, &[5]).is_err());
    }

    #[test]
    fn data_movement_records_no_flops() {
        let mut rng = TensorRng::seed_from(3);
        let x = uniform_init(&[8, 8], -1.0, 1.0, &mut rng);
        let before = kernel_counters();
        let g = gather_rows_cols(&x, Some(&[0, 5]), Some(&[1, 2, 7])).unwrap();
        let _ = scatter_cols(&g, &[0, 1, 2], 8).unwrap();
        assert_eq!(
            kernel_counters().since(&before).flops,
            0,
            "gather/scatter are not compute kernels"
        );
    }
}
