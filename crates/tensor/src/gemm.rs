//! Blocked, cache-aware GEMM core shared by every dense and convolution
//! layer in the workspace.
//!
//! # Architecture
//!
//! The kernel follows the classic Goto/BLIS decomposition, restricted to
//! the shapes this repro actually runs (row-major `f32`, matrices up to a
//! few megabytes):
//!
//! - **B is read where it lies whenever possible.** The microkernel
//!   addresses B as `nr`-wide column panels with a *runtime row stride*
//!   (`ldb`): for normal-layout B the stride is simply `n` and the
//!   operand is consumed in place — no packing at all. Only two cases
//!   copy B into k-major scratch panels (`ldb == nr`): a transposed
//!   operand (whose logical rows are strided gathers), and the final
//!   partial panel when `nr ∤ n` (which needs zero-padded lanes). The
//!   panel width `nr` is chosen per call from `{16, 48, 64}` (`NR` is
//!   the widest) to minimize tail padding: the conv shapes (`n = 16/32`)
//!   map onto 16-wide panels with zero waste, the dense shapes
//!   (`n = 128/512`) onto 64-wide panels.
//! - **A is read directly too.** Full [`MR`]-row tiles stream straight
//!   out of the operand — as `MR` row slices for normal layout, as
//!   contiguous `MR`-chunks at stride `m` for transposed layout. The
//!   low-`n` conv shapes have so few flops per A element that a classic
//!   packed-A round trip (write + re-read `m·k` floats) costs as much as
//!   the compute it feeds; only the tail tile (`m % MR` rows, which needs
//!   zero padding) is packed, into a 4 KiB stack buffer.
//! - The **register microkernel** ([`micro_tile`] and its direct-source
//!   twins [`micro_rows`] / [`micro_cols`]) computes an `MR × nr` output
//!   tile in local accumulators, iterating `k` innermost. Every compute
//!   loop has a compile-time trip count (the width is a const generic),
//!   so LLVM unrolls and autovectorizes the whole body — no unsafe, no
//!   intrinsics. Wide panels exist because four accumulator rows of one
//!   vector each leave the FP add pipeline latency-bound; twelve to
//!   sixteen independent accumulator vectors keep it saturated.
//!
//! Packing is pure data movement and records **zero flops**: the
//! instrument counters stay shape-derived (`2·m·k·n` per GEMM), exactly
//! as the naive kernel recorded them.
//!
//! # The bitwise contract
//!
//! Every repro guarantee downstream of this crate (golden metrics,
//! packed-execution parity, trace digests) rests on one invariant: for
//! each output element `(i, j)`, the accumulation is performed as
//!
//! ```text
//! acc = 0.0;
//! for kk in 0..k (strictly ascending) {
//!     if a[i][kk] == 0.0 { continue; }   // the zero-skip
//!     acc += a[i][kk] * b[kk][j];        // separate mul and add
//! }
//! ```
//!
//! The blocked kernel preserves that chain *structurally*: `KC` slabs are
//! processed in ascending-`k` order; the first slab starts each
//! accumulator at `+0.0`, every later one loads the partial sums the
//! previous slab stored in `out` (an exact `f32` round trip); each
//! appends its terms in ascending order. Whatever `out` held before the
//! call is never read, so callers pass unzeroed scratch. Tile padding
//! cannot perturb results — padded A and B lanes only feed accumulator
//! lanes that are never stored. Parallel execution partitions output
//! *rows* across workers, which leaves each element's chain untouched,
//! so results are bitwise identical to [`naive_matmul`] at every thread
//! width. `tests/gemm_parity.rs` enforces this property over random,
//! zero-heavy, `±0.0`, subnormal and non-finite operands, and this
//! module's tests over an `out` that arrives NaN-filled.
//!
//! The zero-skip is semantics, not a fast path: it makes masked
//! (soft-training) operands contribute *no term at all*, which is what
//! lets packed execution drop masked rows/columns without moving a
//! single bit of the result — and it keeps `0 · ∞ = NaN` out of masked
//! positions. `-0.0 == 0.0`, so it skips both zeros. Only a non-finite B
//! can tell a skipped term from an added one, so the branch-free kernels
//! run whenever B is finite ([`gemm_into`]).

// Kernel entry points take the full (out, shape, operand, layout,
// stride) coordinate set as scalars: bundling them into structs costs
// register pressure exactly where the hot loops live.
#![allow(clippy::too_many_arguments)]

use crate::parallel::{for_each_block, for_each_block_aligned};
use crate::workspace::Scratch;
use crate::{Result, Tensor, TensorError};

/// Microkernel tile height (output rows per register tile).
pub const MR: usize = 4;
/// Maximum microkernel tile width (output columns per register tile).
///
/// Each GEMM call picks its actual panel width from `PANEL_WIDTHS` to
/// minimize tail padding; `NR` is the widest choice and bounds the
/// per-panel scratch layout.
const NR: usize = 64;
/// k-dimension slab length: one A tile of `MR * KC` floats (4 KiB) plus
/// one B panel of at most `KC * NR` floats stay cache-resident together.
pub const KC: usize = 256;

/// Panel widths with a monomorphized microkernel, sorted ascending; the
/// widest is `NR`.
const PANEL_WIDTHS: [usize; 3] = [16, 48, NR];

/// Picks the panel width that minimizes the padded output width
/// `⌈n/w⌉·w` (ties go to the wider panel, which runs closer to peak).
fn pick_nr(n: usize) -> usize {
    let mut best = PANEL_WIDTHS[0];
    let mut best_padded = usize::MAX;
    for &w in &PANEL_WIDTHS {
        let padded = n.div_ceil(w) * w;
        if padded < best_padded || (padded == best_padded && w > best) {
            best = w;
            best_padded = padded;
        }
    }
    best
}

/// Storage layout of a GEMM operand relative to its logical role.
///
/// `Normal` means the slice already has the logical `[rows, cols]`
/// row-major layout; `Transposed` means the slice stores the logical
/// matrix transposed, and the kernel reads it with a swapped index —
/// this is what makes `Aᵀ·B` and `A·Bᵀ` free of materialized
/// `transpose()` copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// The slice is the logical matrix, row-major.
    Normal,
    /// The slice is the logical matrix's transpose, row-major.
    Transposed,
}

/// Where the microkernel reads B panels from.
///
/// The microkernel addresses a panel as `slice[kk * ldb ..][.. nr]` per
/// k step, which unifies in-place consumption of a row-major operand
/// (`ldb == n`) with packed k-major scratch panels (`ldb == nr`).
#[derive(Clone, Copy)]
enum BSrc<'a> {
    /// Normal-layout B, read in place at row stride `n`. `tail` holds
    /// the packed final partial panel when `nr ∤ n` (reading that panel
    /// in place would run past the row end).
    Direct {
        /// The operand itself, row-major `[k, n]`.
        b: &'a [f32],
        /// Packed `k × nr` tail panel, zero-padded past column `n`.
        tail: Option<&'a [f32]>,
    },
    /// Every panel packed `nr`-wide, k-major (transposed-layout B).
    Packed(&'a [f32]),
}

impl<'a> BSrc<'a> {
    /// Resolves panel `jp` starting at k offset `kp` to a `(slice, ldb)`
    /// pair: microkernel k step `kk` reads `slice[kk * ldb ..][.. nr_w]`.
    fn panel(&self, jp: usize, kp: usize, k: usize, n: usize, nr_w: usize) -> (&'a [f32], usize) {
        match *self {
            BSrc::Direct { b, tail } => {
                if (jp + 1) * nr_w <= n {
                    (&b[kp * n + jp * nr_w..], n)
                } else {
                    let tp = tail.expect("partial panel requires a packed tail");
                    (&tp[kp * nr_w..], nr_w)
                }
            }
            BSrc::Packed(bp) => (&bp[jp * k * nr_w + kp * nr_w..], nr_w),
        }
    }
}

/// Computes `out = A · B` for logical shapes `[m, k] × [k, n] → [m, n]`,
/// with either operand optionally stored transposed.
///
/// Whatever `out` holds on entry is ignored and overwritten: every
/// element's chain starts at `+0.0`, as the reference's does, so callers
/// hand in unzeroed workspace buffers. Work is recorded once,
/// shape-derived, independent of layout and thread count.
pub(crate) fn gemm_into(
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ta: Layout,
    b: &[f32],
    tb: Layout,
) {
    debug_assert_eq!(out.len(), m * n, "out must be [m, n]");
    debug_assert_eq!(a.len(), m * k, "a must hold m*k elements");
    debug_assert_eq!(b.len(), k * n, "b must hold k*n elements");
    // Shape-derived work accounting (once per call, independent of the
    // parallel split): one multiply-add per (i, k, j) triple. Packing is
    // data movement and records nothing.
    crate::instrument::record_kernel((2 * m * k * n) as u64);
    if k == 0 {
        // No terms: every chain is its `+0.0` start.
        out.fill(0.0);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }
    let nr_w = pick_nr(n);
    let nb = n.div_ceil(nr_w);
    // The zero-skip is dispatched once per call, on B alone. `acc` is
    // never -0.0 (it starts at +0.0, and a round-to-nearest sum is -0.0
    // only when both operands are), so for finite `b` the skipped term
    // `±0 · b = ±0` leaves every bit of `acc` as it is — NaN and ±∞
    // included. Only a non-finite B needs the checked kernels.
    let kernels = Kernels::select(nr_w, b.iter().fold(true, |acc, v| acc & v.is_finite()));
    // Same row partition and work model as the naive kernel; tile
    // alignment only moves worker boundaries, never element order.
    let run = |out: &mut [f32], bsrc: BSrc| {
        for_each_block_aligned(out, n, k * n, MR, |first_row, block| {
            gemm_row_block(block, first_row, m, k, n, nr_w, a, ta, bsrc, kernels);
        });
    };
    // Scratch panels are packed serially, before the parallel region:
    // every worker reads the same panels, so packing once is both
    // cheaper and deterministic. The packers write every slot they hand
    // to the kernel, pad lanes included.
    match tb {
        Layout::Normal if n.is_multiple_of(nr_w) => run(out, BSrc::Direct { b, tail: None }),
        Layout::Normal => {
            let mut tp = Scratch::checkout(k * nr_w);
            pack_b_tail(&mut tp, b, k, n, nr_w);
            run(
                out,
                BSrc::Direct {
                    b,
                    tail: Some(&tp[..]),
                },
            );
        }
        Layout::Transposed => {
            let mut bp = Scratch::checkout(nb * k * nr_w);
            pack_b_t(&mut bp, b, k, n, nr_w);
            run(out, BSrc::Packed(&bp));
        }
    }
}

/// Computes one worker's contiguous block of output rows.
fn gemm_row_block(
    block: &mut [f32],
    row0: usize,
    m: usize,
    k: usize,
    n: usize,
    nr_w: usize,
    a: &[f32],
    ta: Layout,
    bsrc: BSrc,
    kernels: Kernels,
) {
    let rows = block.len() / n;
    let nb = n.div_ceil(nr_w);
    let full_tiles = rows / MR;
    let tail = rows % MR;
    // Tail-tile pack buffer: one MR × KC slab, zero-padded lanes.
    let mut tail_buf = [0.0f32; MR * KC];
    // The k axis is cut into ⌈k/KC⌉ *balanced* slabs (e.g. 288 → 144+144
    // rather than 256+32): every slab re-loads and re-stores the output
    // tile, so a runt slab pays that round trip for almost no compute.
    // Slab boundaries never affect results — the k chain stays one
    // strictly ascending sequence regardless of where it is cut.
    let slabs = k.div_ceil(KC);
    let slab_base = k / slabs;
    let slab_extra = k % slabs;
    let mut kp = 0usize;
    for s in 0..slabs {
        // Slabs advance in ascending-k order; within a slab the
        // microkernel appends terms in ascending-k order, so each
        // output element sees one strictly increasing k chain.
        let kc = slab_base + usize::from(s < slab_extra);
        // The first slab starts every chain at `+0.0`; later slabs
        // resume the partial sums the previous one stored.
        let resume = s > 0;
        for bi in 0..full_tiles {
            let gi = row0 + bi * MR;
            match ta {
                Layout::Normal => {
                    let rows_a = std::array::from_fn(|i| &a[(gi + i) * k + kp..][..kc]);
                    for jp in 0..nb {
                        let (c0, nr) = (jp * nr_w, nr_w.min(n - jp * nr_w));
                        let (bpan, ldb) = bsrc.panel(jp, kp, k, n, nr_w);
                        (kernels.rows)(block, n, bi * MR, c0, nr, rows_a, kc, bpan, ldb, resume);
                    }
                }
                Layout::Transposed => {
                    let a_base = &a[kp * m + gi..];
                    for jp in 0..nb {
                        let (c0, nr) = (jp * nr_w, nr_w.min(n - jp * nr_w));
                        let (bpan, ldb) = bsrc.panel(jp, kp, k, n, nr_w);
                        let r0 = bi * MR;
                        (kernels.cols)(block, n, r0, c0, nr, a_base, m, kc, bpan, ldb, resume);
                    }
                }
            }
        }
        if tail > 0 {
            // The tail tile needs zero-padded lanes, so it goes through
            // the packed-A kernel; its padded accumulator lanes are
            // never stored.
            pack_a_tail(
                &mut tail_buf,
                a,
                ta,
                m,
                k,
                row0 + full_tiles * MR,
                tail,
                kp,
                kc,
            );
            for jp in 0..nb {
                let nr = nr_w.min(n - jp * nr_w);
                let (bpan, ldb) = bsrc.panel(jp, kp, k, n, nr_w);
                (kernels.packed)(
                    block,
                    n,
                    full_tiles * MR,
                    jp * nr_w,
                    tail,
                    nr,
                    &tail_buf[..kc * MR],
                    bpan,
                    ldb,
                    resume,
                );
            }
        }
        kp += kc;
    }
    debug_assert_eq!(kp, k, "balanced slabs must cover the whole k axis");
}

/// Direct-A microkernel over `MR` row slices (normal layout).
type RowsKernel =
    fn(&mut [f32], usize, usize, usize, usize, [&[f32]; MR], usize, &[f32], usize, bool);
/// Direct-A microkernel over stride-`m` column chunks (transposed layout).
type ColsKernel =
    fn(&mut [f32], usize, usize, usize, usize, &[f32], usize, usize, &[f32], usize, bool);
/// Packed-A microkernel (tail tiles).
type PackedKernel = fn(&mut [f32], usize, usize, usize, usize, usize, &[f32], &[f32], usize, bool);

/// The three monomorphized microkernels one `gemm_into` call runs,
/// resolved once from its panel width and B's finiteness.
#[derive(Clone, Copy)]
struct Kernels {
    rows: RowsKernel,
    cols: ColsKernel,
    packed: PackedKernel,
}

impl Kernels {
    /// A `finite` B takes the branch-free variants, which are exact for
    /// it (see [`gemm_into`]); any other B takes the ones with the
    /// per-lane zero-skip. Both append identical terms in identical order.
    fn select(nr_w: usize, finite: bool) -> Kernels {
        fn of<const NR_W: usize, const CHECKED: bool>() -> Kernels {
            Kernels {
                rows: micro_rows::<NR_W, CHECKED>,
                cols: micro_cols::<NR_W, CHECKED>,
                packed: micro_tile::<NR_W, CHECKED>,
            }
        }
        match (nr_w, finite) {
            (16, true) => of::<16, false>(),
            (16, false) => of::<16, true>(),
            (48, true) => of::<48, false>(),
            (48, false) => of::<48, true>(),
            (64, true) => of::<64, false>(),
            (64, false) => of::<64, true>(),
            _ => unreachable!("panel width {nr_w} has no microkernel"),
        }
    }
}

/// The register microkernel: `out[r0.., c0..] = a_tile · b` for an
/// `mr × nr` live sub-tile of the `MR × NR_W` register tile, or `+=`
/// when `resume` continues the chains an earlier k slab stored there. `a_tile` is
/// k-major packed (`MR` lanes per k step); B's k step `kk` is read at
/// `b[kk * ldb ..][.. NR_W]`, which covers both in-place operands
/// (`ldb == n`) and packed panels (`ldb == NR_W`).
///
/// All compute loops have compile-time trip counts (`MR` and the `NR_W`
/// const generic), so the whole body unrolls and vectorizes — no unsafe,
/// no intrinsics. Padded A lanes and padded B lanes feed only
/// accumulator lanes that are never stored.
///
/// The zero-skip is the one branch that would defeat vectorization, so it
/// is hoisted twice. Per call: a finite B makes every skipped term an
/// exact no-op (see [`gemm_into`]), so it dispatches to the
/// `CHECKED = false` instantiation, whose k loop is pure straight-line
/// broadcast-multiply-add. Per k step in the `CHECKED` variant: a single
/// "any lane zero?" test guards the same straight-line update, falling
/// back to the per-lane skip only when a zero is actually present. Both
/// paths produce the same bits.
///
/// `inline(never)`: inlined into the packing/blocking loops LLVM fails
/// to autovectorize this body (the surrounding control flow defeats the
/// loop vectorizer); as a standalone function it compiles to the
/// full-width broadcast-mul-add sequence the design calls for.
#[inline(never)]
fn micro_tile<const NR_W: usize, const CHECKED: bool>(
    out: &mut [f32],
    ldc: usize,
    r0: usize,
    c0: usize,
    mr: usize,
    nr: usize,
    a_tile: &[f32],
    b: &[f32],
    ldb: usize,
    resume: bool,
) {
    let (a_steps, _) = a_tile.as_chunks::<MR>();
    let mut acc = [[0.0f32; NR_W]; MR];
    if resume {
        for (i, acc_row) in acc.iter_mut().enumerate().take(mr) {
            let row = (r0 + i) * ldc + c0;
            acc_row[..nr].copy_from_slice(&out[row..row + nr]);
        }
    }
    for (kk, a_k) in a_steps.iter().enumerate() {
        let b_k: &[f32; NR_W] = (&b[kk * ldb..kk * ldb + NR_W])
            .try_into()
            .expect("exact NR_W panel row");
        if !CHECKED || a_k.iter().all(|&v| v != 0.0) {
            for i in 0..MR {
                let a_ik = a_k[i];
                for j in 0..NR_W {
                    acc[i][j] += a_ik * b_k[j];
                }
            }
        } else {
            for i in 0..MR {
                let a_ik = a_k[i];
                if a_ik == 0.0 {
                    continue;
                }
                for j in 0..NR_W {
                    acc[i][j] += a_ik * b_k[j];
                }
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate().take(mr) {
        let row = (r0 + i) * ldc + c0;
        out[row..row + nr].copy_from_slice(&acc_row[..nr]);
    }
}

/// Direct-source twin of [`micro_tile`] for normal-layout A: the tile's
/// `MR` rows stream straight from the operand as `kc`-long slices, so
/// full tiles skip the packed-A round trip entirely. Identical
/// accumulation order and zero-skip dispatch as [`micro_tile`].
#[inline(never)]
fn micro_rows<const NR_W: usize, const CHECKED: bool>(
    out: &mut [f32],
    ldc: usize,
    r0: usize,
    c0: usize,
    nr: usize,
    rows_a: [&[f32]; MR],
    kc: usize,
    b: &[f32],
    ldb: usize,
    resume: bool,
) {
    let r = [
        &rows_a[0][..kc],
        &rows_a[1][..kc],
        &rows_a[2][..kc],
        &rows_a[3][..kc],
    ];
    let mut acc = [[0.0f32; NR_W]; MR];
    if resume {
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let row = (r0 + i) * ldc + c0;
            acc_row[..nr].copy_from_slice(&out[row..row + nr]);
        }
    }
    for kk in 0..kc {
        let b_k: &[f32; NR_W] = (&b[kk * ldb..kk * ldb + NR_W])
            .try_into()
            .expect("exact NR_W panel row");
        let a_k = [r[0][kk], r[1][kk], r[2][kk], r[3][kk]];
        if !CHECKED || a_k.iter().all(|&v| v != 0.0) {
            for i in 0..MR {
                let a_ik = a_k[i];
                for j in 0..NR_W {
                    acc[i][j] += a_ik * b_k[j];
                }
            }
        } else {
            for i in 0..MR {
                let a_ik = a_k[i];
                if a_ik == 0.0 {
                    continue;
                }
                for j in 0..NR_W {
                    acc[i][j] += a_ik * b_k[j];
                }
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        let row = (r0 + i) * ldc + c0;
        out[row..row + nr].copy_from_slice(&acc_row[..nr]);
    }
}

/// Direct-source twin of [`micro_tile`] for transposed-layout A: each k
/// step's `MR` lanes sit contiguously at `a_base[kk*stride..]` (`stride`
/// is the logical row count `m`), so full tiles read the operand in
/// place. Identical accumulation order and zero-skip dispatch as
/// [`micro_tile`].
#[inline(never)]
fn micro_cols<const NR_W: usize, const CHECKED: bool>(
    out: &mut [f32],
    ldc: usize,
    r0: usize,
    c0: usize,
    nr: usize,
    a_base: &[f32],
    stride: usize,
    kc: usize,
    b: &[f32],
    ldb: usize,
    resume: bool,
) {
    let mut acc = [[0.0f32; NR_W]; MR];
    if resume {
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let row = (r0 + i) * ldc + c0;
            acc_row[..nr].copy_from_slice(&out[row..row + nr]);
        }
    }
    for kk in 0..kc {
        let b_k: &[f32; NR_W] = (&b[kk * ldb..kk * ldb + NR_W])
            .try_into()
            .expect("exact NR_W panel row");
        let a_k: &[f32; MR] = (&a_base[kk * stride..kk * stride + MR])
            .try_into()
            .expect("exact MR chunk");
        if !CHECKED || a_k.iter().all(|&v| v != 0.0) {
            for i in 0..MR {
                let a_ik = a_k[i];
                for j in 0..NR_W {
                    acc[i][j] += a_ik * b_k[j];
                }
            }
        } else {
            for i in 0..MR {
                let a_ik = a_k[i];
                if a_ik == 0.0 {
                    continue;
                }
                for j in 0..NR_W {
                    acc[i][j] += a_ik * b_k[j];
                }
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        let row = (r0 + i) * ldc + c0;
        out[row..row + nr].copy_from_slice(&acc_row[..nr]);
    }
}

/// Packs the tail tile's `live × kc` slab of A into one `MR`-high,
/// k-major tile. Lanes at `i >= live` keep the buffer's `0.0` fill
/// (skipped terms / never-stored accumulators).
fn pack_a_tail(
    ap: &mut [f32; MR * KC],
    a: &[f32],
    ta: Layout,
    m: usize,
    k: usize,
    row0: usize,
    live: usize,
    kp: usize,
    kc: usize,
) {
    for kk in 0..kc {
        for i in 0..live {
            let gi = row0 + i;
            ap[kk * MR + i] = match ta {
                Layout::Normal => a[gi * k + kp + kk],
                Layout::Transposed => a[(kp + kk) * m + gi],
            };
        }
    }
}

/// Packs normal-layout B's final partial panel (columns `⌊n/nr⌋·nr..n`)
/// into one `k × nr_w` k-major panel, zero-padding the columns past `n`
/// (their accumulator lanes are never stored). Writes every slot.
fn pack_b_tail(tp: &mut [f32], b: &[f32], k: usize, n: usize, nr_w: usize) {
    let j0 = (n / nr_w) * nr_w;
    let live = n - j0;
    for kk in 0..k {
        let dst = &mut tp[kk * nr_w..(kk + 1) * nr_w];
        dst[..live].copy_from_slice(&b[kk * n + j0..kk * n + j0 + live]);
        dst[live..].fill(0.0);
    }
}

/// Packs transposed-layout B into `nr_w`-wide, k-major column panels.
/// Iterates source rows (contiguous reads, strided writes) rather than
/// gathering down columns; tail columns beyond `n` are padded with `0.0`.
/// Writes every slot of `bp`, so the scratch needs no pre-zeroing.
fn pack_b_t(bp: &mut [f32], b: &[f32], k: usize, n: usize, nr_w: usize) {
    let nb = n.div_ceil(nr_w);
    for jp in 0..nb {
        let base = jp * k * nr_w;
        let j0 = jp * nr_w;
        let live = nr_w.min(n - j0);
        for jj in 0..live {
            let src = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                bp[base + kk * nr_w + jj] = v;
            }
        }
        for jj in live..nr_w {
            for kk in 0..k {
                bp[base + kk * nr_w + jj] = 0.0;
            }
        }
    }
}

/// The original naive triple-loop matmul, kept verbatim as the pinned
/// bitwise reference for the blocked kernel.
///
/// The parity tests (`tests/gemm_parity.rs`) compare [`Tensor::matmul`]
/// against this kernel; it performs and records exactly the same work
/// the pre-blocked kernel did, including the row-partitioned parallelism.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
/// under the same conditions as [`Tensor::matmul`].
pub fn naive_matmul(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
    if lhs.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "naive_matmul",
            expected: 2,
            actual: lhs.shape().rank(),
        });
    }
    if rhs.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "naive_matmul",
            expected: 2,
            actual: rhs.shape().rank(),
        });
    }
    let (m, k) = (lhs.dims()[0], lhs.dims()[1]);
    let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "naive_matmul",
            lhs: lhs.dims().to_vec(),
            rhs: rhs.dims().to_vec(),
        });
    }
    let a = lhs.as_slice();
    let b = rhs.as_slice();
    crate::instrument::record_kernel((2 * m * k * n) as u64);
    let mut out = vec![0.0f32; m * n];
    for_each_block(&mut out, n, k * n, |first_row, block| {
        for (bi, o_row) in block.chunks_mut(n).enumerate() {
            let i = first_row + bi;
            let a_row = &a[i * k..(i + 1) * k];
            for (kk, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &b_kj) in o_row.iter_mut().zip(b_row) {
                    *o += a_ik * b_kj;
                }
            }
        }
    });
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, dims: &[usize]) -> Tensor {
        Tensor::from_vec(data, dims).unwrap()
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| (i as f32 - len as f32 / 3.0) * scale)
            .collect()
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} != {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_across_tile_edges() {
        // Shapes straddling every tile boundary: below MR and each panel
        // width, exact multiples, and one-past. `n` values cover all
        // three panel widths (16, 48, 64), the in-place direct-B path
        // (nr | n), mixed direct + packed-tail panels, and tail-only
        // panels; `seq` data contains exact zeros, so both the checked
        // and the clean-slab microkernels execute.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (2 * MR, 2 * KC + 3, 3 * NR + 1),
            (17, 300, 23),
            (9, 33, 16),
            (12, 50, 48),
            (7, 40, 49),
            (5, 20, 144),
        ] {
            let a = t(seq(m * k, 0.25), &[m, k]);
            let b = t(seq(k * n, 0.125), &[k, n]);
            assert_bitwise(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b).unwrap());
        }
    }

    #[test]
    fn clean_and_dirty_slabs_agree_with_naive() {
        // A finite B runs the branch-free kernel whatever A holds; a
        // non-finite B entry forces the checked kernel onto every tile.
        // Both must match the reference with and without zeros in A; the
        // dirty A is -0.0 at k = 7 and +0.0 at k = 14 in every row, right
        // where B holds ∞ and NaN.
        let (m, k, n) = (11, 70, 35);
        let clean: Vec<f32> = (0..m * k).map(|i| 0.5 + (i % 9) as f32 * 0.125).collect();
        let mut dirty = clean.clone();
        for i in (0..m * k).step_by(7) {
            dirty[i] = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        let finite = seq(k * n, 0.0625);
        let mut non_finite = finite.clone();
        non_finite[7 * n + 5] = f32::INFINITY;
        non_finite[14 * n + 9] = f32::NAN;
        for a in [clean, dirty] {
            let a = t(a, &[m, k]);
            for b in [&finite, &non_finite] {
                let b = t(b.clone(), &[k, n]);
                assert_bitwise(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b).unwrap());
            }
        }
    }

    #[test]
    fn transposed_variants_match_materialized_transpose() {
        let (m, k, n) = (13, 37, 11);
        let a_t = t(seq(k * m, 0.5), &[k, m]); // logical Aᵀ storage
        let b = t(seq(k * n, 0.25), &[k, n]);
        let via_transpose = a_t.transpose().unwrap().matmul(&b).unwrap();
        assert_bitwise(&a_t.matmul_tn(&b).unwrap(), &via_transpose);

        let a = t(seq(m * k, 0.5), &[m, k]);
        let b_t = t(seq(n * k, 0.25), &[n, k]); // logical Bᵀ storage
        let via_transpose = a.matmul(&b_t.transpose().unwrap()).unwrap();
        assert_bitwise(&a.matmul_nt(&b_t).unwrap(), &via_transpose);
    }

    #[test]
    fn zero_skip_blocks_nan_propagation() {
        // A zero in A must skip the term even when B holds ∞/NaN there —
        // exactly the naive kernel's semantics.
        let a = t(vec![0.0, 1.0, -0.0, 2.0], &[2, 2]);
        let b = t(vec![f32::INFINITY, f32::NAN, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_bitwise(&c, &naive_matmul(&a, &b).unwrap());
        assert_eq!(c.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn gemm_into_overwrites_whatever_out_holds() {
        // `out` arrives NaN-poisoned; every layout must still produce the
        // reference product, bit for bit, at every thread width: `k == 0`
        // (all `+0.0`), one and several KC slabs, `m % MR` tails, and `n`
        // off every panel width. The data holds exact zeros of both signs,
        // and one B entry is ∞ where every A row is `-0.0`, so the checked
        // kernels run too.
        for (m, k, n) in [
            (5, 0, 7),
            (1, 1, 1),
            (MR, KC, 16),
            (7, 40, 49),
            (9, 300, 33),
            (6, 2 * KC + 3, NR + 1),
            (13, 513, 144),
        ] {
            let a_data: Vec<f32> = seq(m * k, 0.25)
                .into_iter()
                .enumerate()
                .map(|(i, v)| if i % 11 == 3 { -0.0 } else { v })
                .collect();
            let mut b_data = seq(k * n, 0.125);
            if k > 2 {
                b_data[2 * n] = f32::INFINITY;
            }
            let mut a = t(a_data, &[m, k]);
            if k > 2 {
                for i in 0..m {
                    a.as_mut_slice()[i * k + 2] = -0.0;
                }
            }
            let b = t(b_data, &[k, n]);
            let want = naive_matmul(&a, &b).unwrap();
            let a_t = a.transpose().unwrap();
            let b_t = b.transpose().unwrap();
            for threads in [1, 2, 4, 8] {
                let _guard = crate::ParallelismConfig::with_threads(threads).scoped();
                for (name, ta, a_s, tb, b_s) in [
                    ("nn", Layout::Normal, &a, Layout::Normal, &b),
                    ("tn", Layout::Transposed, &a_t, Layout::Normal, &b),
                    ("nt", Layout::Normal, &a, Layout::Transposed, &b_t),
                ] {
                    let mut out = vec![f32::NAN; m * n];
                    gemm_into(&mut out, m, k, n, a_s.as_slice(), ta, b_s.as_slice(), tb);
                    for (i, (x, y)) in out.iter().zip(want.as_slice()).enumerate() {
                        let tag = format!("{name} {m}x{k}x{n} threads={threads}: element {i}");
                        assert_eq!(x.to_bits(), y.to_bits(), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_dims_produce_zeros() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 4]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[3, 4]);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn variant_shape_checks() {
        let a = Tensor::zeros(&[4, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(a.matmul_tn(&b).is_ok()); // [3,5]
        assert!(a.matmul_nt(&b).is_err()); // k mismatch: 3 vs 5
        let c = Tensor::zeros(&[6, 3]);
        assert!(a.matmul_nt(&c).is_ok()); // [4,6]
        assert!(a.matmul_tn(&c).is_err()); // k mismatch: 4 vs 6
    }
}
