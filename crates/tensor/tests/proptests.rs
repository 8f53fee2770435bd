//! Property-based tests for tensor algebra invariants.

use helios_tensor::{
    avg_pool2d, conv2d, conv2d_backward, max_pool2d, max_pool2d_backward, ConvSpec, PoolSpec,
    Tensor,
};
use proptest::prelude::*;

/// Strategy: a matrix with bounded dimensions and finite values.
fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0f32..10.0, m * n)
            .prop_map(move |v| Tensor::from_vec(v, &[m, n]).expect("size matches"))
    })
}

/// Euclidean (L2) norm of the flattened tensor.
fn l2_norm(t: &Tensor) -> f32 {
    t.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt()
}

proptest! {
    #[test]
    fn transpose_is_involutive(a in matrix(8)) {
        let att = a.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(att, a);
    }

    #[test]
    fn matmul_identity_left_and_right(a in matrix(8)) {
        let m = a.dims()[0];
        let n = a.dims()[1];
        let left = Tensor::eye(m).matmul(&a).unwrap();
        let right = a.matmul(&Tensor::eye(n)).unwrap();
        for (x, y) in left.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        for (x, y) in right.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        dims in (1usize..=5, 1usize..=5, 1usize..=5),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = dims;
        let mut rng = helios_tensor::TensorRng::seed_from(seed);
        let a = helios_tensor::uniform_init(&[m, k], -2.0, 2.0, &mut rng);
        let b = helios_tensor::uniform_init(&[k, n], -2.0, 2.0, &mut rng);
        let c = helios_tensor::uniform_init(&[k, n], -2.0, 2.0, &mut rng);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn transpose_of_product_is_reversed_product_of_transposes(
        dims in (1usize..=5, 1usize..=5, 1usize..=5),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = dims;
        let mut rng = helios_tensor::TensorRng::seed_from(seed);
        let a = helios_tensor::uniform_init(&[m, k], -2.0, 2.0, &mut rng);
        let b = helios_tensor::uniform_init(&[k, n], -2.0, 2.0, &mut rng);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_are_probability_distributions(a in matrix(8)) {
        let s = a.softmax_rows().unwrap();
        let (m, n) = (a.dims()[0], a.dims()[1]);
        for i in 0..m {
            let mut total = 0.0f32;
            for j in 0..n {
                let p = s.get(&[i, j]).unwrap();
                prop_assert!((0.0..=1.0 + 1e-6).contains(&p));
                total += p;
            }
            prop_assert!((total - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn argmax_row_attains_row_maximum(a in matrix(8)) {
        let idx = a.argmax_rows().unwrap();
        let n = a.dims()[1];
        for (i, &best) in idx.iter().enumerate() {
            let chosen = a.get(&[i, best]).unwrap();
            for j in 0..n {
                prop_assert!(chosen >= a.get(&[i, j]).unwrap());
            }
        }
    }

    #[test]
    fn l2_norm_triangle_inequality(
        len in 1usize..64,
        seed in 0u64..1000,
    ) {
        let mut rng = helios_tensor::TensorRng::seed_from(seed);
        let a = helios_tensor::uniform_init(&[len], -5.0, 5.0, &mut rng);
        let b = helios_tensor::uniform_init(&[len], -5.0, 5.0, &mut rng);
        let sum = a.add(&b).unwrap();
        prop_assert!(l2_norm(&sum) <= l2_norm(&a) + l2_norm(&b) + 1e-4);
    }

    #[test]
    fn conv_linearity_in_input(
        seed in 0u64..500,
    ) {
        // conv(x + y) == conv(x) + conv(y) - conv(0) for fixed weights
        // (the bias enters each term once).
        let spec = ConvSpec::new(2, 3, 3, 1, 1);
        let mut rng = helios_tensor::TensorRng::seed_from(seed);
        let x = helios_tensor::uniform_init(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let y = helios_tensor::uniform_init(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let w = helios_tensor::uniform_init(&[3, 18], -1.0, 1.0, &mut rng);
        let b = helios_tensor::uniform_init(&[3], -1.0, 1.0, &mut rng);
        let zero = Tensor::zeros(&[1, 2, 5, 5]);
        let lhs = conv2d(&x.add(&y).unwrap(), &w, &b, &spec).unwrap();
        let rhs = conv2d(&x, &w, &b, &spec)
            .unwrap()
            .add(&conv2d(&y, &w, &b, &spec).unwrap())
            .unwrap()
            .sub(&conv2d(&zero, &w, &b, &spec).unwrap())
            .unwrap();
        for (p, q) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((p - q).abs() < 1e-3, "{} vs {}", p, q);
        }
    }

    #[test]
    fn conv_backward_input_grad_matches_directional_derivative(seed in 0u64..200) {
        let spec = ConvSpec::new(1, 2, 3, 1, 1);
        let mut rng = helios_tensor::TensorRng::seed_from(seed);
        let x = helios_tensor::uniform_init(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let w = helios_tensor::uniform_init(&[2, 9], -1.0, 1.0, &mut rng);
        let b = Tensor::zeros(&[2]);
        let d = helios_tensor::uniform_init(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let out = conv2d(&x, &w, &b, &spec).unwrap();
        let grads = conv2d_backward(&x, &w, &Tensor::full(out.dims(), 1.0), &spec).unwrap();
        // Directional derivative of sum-loss along d.
        let analytic: f32 = grads
            .grad_input
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .map(|(g, dd)| g * dd)
            .sum();
        let eps = 1e-2f32;
        let mut xp = x.clone();
        xp.axpy(eps, &d).unwrap();
        let mut xm = x.clone();
        xm.axpy(-eps, &d).unwrap();
        let numeric = (conv2d(&xp, &w, &b, &spec).unwrap().sum()
            - conv2d(&xm, &w, &b, &spec).unwrap().sum())
            / (2.0 * eps);
        prop_assert!(
            (analytic - numeric).abs() < 0.05 * (1.0 + analytic.abs()),
            "analytic {} vs numeric {}",
            analytic,
            numeric
        );
    }

    #[test]
    fn max_pool_gradient_mass_is_conserved(seed in 0u64..500) {
        let mut rng = helios_tensor::TensorRng::seed_from(seed);
        let x = helios_tensor::uniform_init(&[2, 3, 4, 4], -1.0, 1.0, &mut rng);
        let spec = PoolSpec::new(2, 2);
        let (out, idx) = max_pool2d(&x, &spec).unwrap();
        let g = helios_tensor::uniform_init(out.dims(), -1.0, 1.0, &mut rng);
        let gi = max_pool2d_backward(&g, &idx).unwrap();
        prop_assert!((gi.sum() - g.sum()).abs() < 1e-3);
    }

    #[test]
    fn avg_pool_preserves_mean_for_exact_tiling(seed in 0u64..500) {
        let mut rng = helios_tensor::TensorRng::seed_from(seed);
        let x = helios_tensor::uniform_init(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let spec = PoolSpec::new(2, 2);
        let out = avg_pool2d(&x, &spec).unwrap();
        prop_assert!((out.mean() - x.mean()).abs() < 1e-4);
    }
}
