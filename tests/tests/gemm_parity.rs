//! Blocked-vs-naive GEMM parity: the cache-blocked kernel behind
//! `matmul` / `matmul_tn` / `matmul_nt` must be **bitwise identical**
//! to the pinned naive reference at every thread width, for any
//! operand contents — including the adversarial ones (zero-heavy
//! matrices that exercise the `a_ik == 0.0` skip, which takes `-0.0`
//! too because `-0.0 == 0.0`; subnormals that would flush under FTZ
//! arithmetic but not under the scalar chain the contract pins; and
//! ±∞ / NaN in B, the only values for which a skipped `0 · b` term
//! differs from an added one).
//!
//! Also pins the workspace arena's contract: a second identically
//! shaped conv cycle checks its im2col / pack scratch back out of the
//! thread-local pool without a single fresh allocation.

use helios_integration::{assert_bitwise, with_threads, THREAD_WIDTHS as WIDTHS};
use helios_tensor::{
    conv2d, conv2d_backward, naive_matmul, reset_workspace_stats, uniform_init, workspace_stats,
    ConvSpec, ParallelismConfig, Tensor, TensorRng,
};
use proptest::prelude::*;

/// One matrix element, biased toward the values that break blocked
/// kernels: exact zeros of both signs (the skip path: `-0.0 == 0.0`),
/// subnormals of both signs, ±∞ and NaN (which turn a term the skip
/// drops into `0 · ∞ = NaN` if it were added), and ordinary finite
/// values. Non-finite values are rare (3 in 3,072), so about half of the
/// B operands drawn stay finite and run the branch-free kernels.
fn element() -> impl Strategy<Value = f32> {
    (0u64..u64::MAX).prop_map(|r| {
        let payload = (r >> 8) as u32;
        match r % 12 {
            0..=2 => 0.0,
            3 => -0.0,
            4 => f32::from_bits(payload % 0x007f_ffff + 1),
            5 => f32::from_bits((payload % 0x007f_ffff + 1) | 0x8000_0000),
            6 if payload % 256 < 3 => {
                [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][payload as usize % 256]
            }
            _ => (f64::from(payload) / f64::from(u32::MAX) * 4.0 - 2.0) as f32,
        }
    })
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(element(), rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).expect("matrix"))
}

/// `t` with every NaN replaced by the one `f32::NAN`. Rust leaves the
/// sign and payload of an arithmetic NaN unspecified, and the compiler
/// may swap the operands of a commutative add, so a sum in which two
/// NaNs of different bits meet may yield either. Comparing through this
/// still pins every other value bit for bit, and that a NaN is a NaN.
fn nan_canonical(t: &Tensor) -> Tensor {
    let v = t
        .as_slice()
        .iter()
        .map(|&x| if x.is_nan() { f32::NAN } else { x });
    Tensor::from_vec(v.collect(), t.dims()).expect("same shape")
}

/// An (A, B) operand pair with shapes that straddle the microkernel
/// tile edges: MR=4 rows, panel widths 16/48/64 columns, partial-panel
/// and tail-tile paths.
fn operand_pair(
    m_max: usize,
    k_max: usize,
    n_max: usize,
) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..m_max, 1..k_max, 1..n_max).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
}

proptest! {

    /// `matmul` (blocked, any width) ≡ `naive_matmul` bitwise under
    /// adversarial operand contents.
    #[test]
    fn blocked_matmul_is_bitwise_naive(pair in operand_pair(40, 40, 80)) {
        let (a, b) = pair;
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let reference = nan_canonical(&with_threads(1, || naive_matmul(&a, &b).expect("naive")));
        for w in WIDTHS {
            let blocked = nan_canonical(&with_threads(w, || a.matmul(&b).expect("blocked")));
            assert_bitwise(&reference, &blocked, &format!("matmul {m}x{k}x{n} w={w}"));
        }
    }
}

proptest! {

    /// The transpose-free variants — `matmul_tn` (Aᵀ·B) and `matmul_nt`
    /// (A·Bᵀ) — agree bitwise with the naive product of materialized
    /// transposes, at every width, under the same adversarial operands.
    #[test]
    fn layout_variants_are_bitwise_naive(pair in operand_pair(24, 24, 70)) {
        let (a, b) = pair;
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let at = a.transpose().expect("a^T");
        let bt = b.transpose().expect("b^T");
        let reference = nan_canonical(&with_threads(1, || naive_matmul(&a, &b).expect("naive")));
        for w in WIDTHS {
            let tag = format!("{m}x{k}x{n} w={w}");
            let tn = nan_canonical(&with_threads(w, || at.matmul_tn(&b).expect("tn")));
            assert_bitwise(&reference, &tn, &format!("tn {tag}"));
            let nt = nan_canonical(&with_threads(w, || a.matmul_nt(&bt).expect("nt")));
            assert_bitwise(&reference, &nt, &format!("nt {tag}"));
        }
    }
}

/// The k axis crossing the KC slab boundary (and landing on the
/// balanced-split path) stays bitwise-naive — proptest dims stay small
/// for speed, so pin the big-k cases deterministically.
#[test]
fn multi_slab_k_is_bitwise_naive() {
    for (m, k, n) in [(7, 300, 33), (4, 512, 64), (9, 257, 17)] {
        let mut rng = TensorRng::seed_from(k as u64);
        let a = uniform_init(&[m, k], -1.0, 1.0, &mut rng);
        let b = uniform_init(&[k, n], -1.0, 1.0, &mut rng);
        let at = a.transpose().expect("a^T");
        let bt = b.transpose().expect("b^T");
        let reference = with_threads(1, || naive_matmul(&a, &b).expect("naive"));
        for w in WIDTHS {
            let tag = format!("{m}x{k}x{n} w={w}");
            for (name, out) in [
                ("nn", with_threads(w, || a.matmul(&b).expect("nn"))),
                ("tn", with_threads(w, || at.matmul_tn(&b).expect("tn"))),
                ("nt", with_threads(w, || a.matmul_nt(&bt).expect("nt"))),
            ] {
                assert_eq!(reference.dims(), out.dims());
                for (i, (x, y)) in reference.as_slice().iter().zip(out.as_slice()).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name} {tag}: element {i}");
                }
            }
        }
    }
}

/// A zero in A must drop its term even where B holds ∞ or NaN, in every
/// layout and at every width: one non-finite B element sends the whole
/// call to the checked kernels. Rows with a nonzero at the same k take
/// the term and carry the ∞ / NaN into the result.
#[test]
fn zeros_in_a_skip_non_finite_b_in_every_layout() {
    let (m, k, n) = (9, 20, 33);
    let mut rng = TensorRng::seed_from(5);
    let mut a = uniform_init(&[m, k], -1.0, 1.0, &mut rng);
    let mut b = uniform_init(&[k, n], -1.0, 1.0, &mut rng);
    for i in 0..m {
        a.as_mut_slice()[i * k + 3] = if i == 4 { 0.5 } else { 0.0 };
        a.as_mut_slice()[i * k + 7] = if i == 8 { -2.0 } else { -0.0 };
    }
    b.as_mut_slice()[3 * n + 5] = f32::INFINITY;
    b.as_mut_slice()[7 * n + 20] = f32::NAN;
    let reference = with_threads(1, || naive_matmul(&a, &b).expect("naive"));
    let r = reference.as_slice();
    assert_eq!(r[4 * n + 5], f32::INFINITY);
    assert!(r[8 * n + 20].is_nan());
    assert_eq!(r.iter().filter(|v| !v.is_finite()).count(), 2);
    let at = a.transpose().expect("a^T");
    let bt = b.transpose().expect("b^T");
    for w in WIDTHS {
        assert_bitwise(
            &reference,
            &with_threads(w, || a.matmul(&b).expect("nn")),
            &format!("nn w={w}"),
        );
        assert_bitwise(
            &reference,
            &with_threads(w, || at.matmul_tn(&b).expect("tn")),
            &format!("tn w={w}"),
        );
        assert_bitwise(
            &reference,
            &with_threads(w, || a.matmul_nt(&bt).expect("nt")),
            &format!("nt w={w}"),
        );
    }
}

/// Second identically shaped conv cycle reuses the thread-local
/// workspace: the arena reports fresh allocations for the first
/// forward/backward pass and **zero** for the repeat.
#[test]
fn conv_workspace_is_reused_across_cycles() {
    let _guard = ParallelismConfig::serial().scoped();
    let spec = ConvSpec::new(3, 8, 3, 1, 1);
    let mut rng = TensorRng::seed_from(11);
    let x = uniform_init(&[2, 3, 12, 12], -1.0, 1.0, &mut rng);
    let w = uniform_init(&spec.weight_dims(), -0.5, 0.5, &mut rng);
    let bias = uniform_init(&[8], -0.1, 0.1, &mut rng);
    let (oh, ow) = spec.output_hw(12, 12);
    let gout = uniform_init(&[2, 8, oh, ow], -1.0, 1.0, &mut rng);

    reset_workspace_stats();
    let first = conv2d(&x, &w, &bias, &spec).expect("fwd 1");
    conv2d_backward(&x, &w, &gout, &spec).expect("bwd 1");
    let after_first = workspace_stats();
    assert!(
        after_first.acquires > 0,
        "conv must route its scratch through the arena"
    );

    let second = conv2d(&x, &w, &bias, &spec).expect("fwd 2");
    conv2d_backward(&x, &w, &gout, &spec).expect("bwd 2");
    let after_second = workspace_stats();
    assert_eq!(
        after_second.reallocs, after_first.reallocs,
        "an identically shaped second cycle must not allocate scratch"
    );
    assert!(after_second.acquires > after_first.acquires);
    for (a, b) in first.as_slice().iter().zip(second.as_slice()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "scratch reuse must not leak state"
        );
    }
}
