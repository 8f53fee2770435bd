//! Blocked-vs-naive GEMM parity: the cache-blocked kernel behind
//! `matmul` / `matmul_tn` / `matmul_nt` must be **bitwise identical**
//! to the pinned naive reference at every thread width, for any
//! operand contents — including the adversarial ones (zero-heavy
//! matrices that exercise the `a_ik == 0.0` skip, negative zeros that
//! must *not* be skipped, and subnormals that would flush under FTZ
//! arithmetic but not under the scalar chain the contract pins).
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
/// kernels: exact zeros (the skip path), negative zeros (must NOT take
/// the skip path), subnormals of both signs, and ordinary finite
/// values.
fn element() -> impl Strategy<Value = f32> {
    (0u64..u64::MAX).prop_map(|r| {
        let payload = (r >> 8) as u32;
        match r % 12 {
            0..=2 => 0.0,
            3 => -0.0,
            4 => f32::from_bits(payload % 0x007f_ffff + 1),
            5 => f32::from_bits((payload % 0x007f_ffff + 1) | 0x8000_0000),
            _ => (f64::from(payload) / f64::from(u32::MAX) * 4.0 - 2.0) as f32,
        }
    })
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(element(), rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).expect("matrix"))
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
        let reference = with_threads(1, || naive_matmul(&a, &b).expect("naive"));
        for w in WIDTHS {
            let blocked = with_threads(w, || a.matmul(&b).expect("blocked"));
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
        let reference = with_threads(1, || naive_matmul(&a, &b).expect("naive"));
        for w in WIDTHS {
            let tag = format!("{m}x{k}x{n} w={w}");
            let tn = with_threads(w, || at.matmul_tn(&b).expect("tn"));
            assert_bitwise(&reference, &tn, &format!("tn {tag}"));
            let nt = with_threads(w, || a.matmul_nt(&bt).expect("nt"));
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
