//! Stochastic gradient descent with optional momentum.

use crate::{Network, Result};
use helios_tensor::Tensor;

/// SGD optimizer: `v ← µ·v + g`, `θ ← θ − η·v`.
///
/// Velocity buffers are allocated lazily on the first [`Sgd::step`] and
/// keyed by parameter position, so one optimizer instance must stay paired
/// with one network architecture.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use helios_nn::{models, Sgd};
/// use helios_tensor::{Tensor, TensorRng};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut net = models::lenet(10, &mut TensorRng::seed_from(0));
/// let mut opt = Sgd::with_momentum(0.05, 0.9);
/// // … forward/backward …
/// opt.step(&mut net)?; // applies −lr·velocity to every parameter
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    learning_rate: f32,
    momentum: f32,
    max_grad_norm: Option<f32>,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate and no momentum.
    pub fn new(learning_rate: f32) -> Self {
        Sgd {
            learning_rate,
            momentum: 0.0,
            max_grad_norm: None,
            velocities: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(learning_rate: f32, momentum: f32) -> Self {
        Sgd {
            learning_rate,
            momentum,
            max_grad_norm: None,
            velocities: Vec::new(),
        }
    }

    /// Enables global gradient-norm clipping: before each step, if the
    /// L2 norm of all gradients exceeds `max_norm`, they are rescaled to
    /// it. Standard protection against divergence on hard (e.g. heavily
    /// Non-IID) shards.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive and finite.
    pub fn with_grad_clip(mut self, max_norm: f32) -> Self {
        assert!(
            max_norm.is_finite() && max_norm > 0.0,
            "clip norm must be positive and finite, got {max_norm}"
        );
        self.max_grad_norm = Some(max_norm);
        self
    }

    /// Clears momentum state (used when a client receives a fresh global
    /// model and stale velocity would be misleading).
    pub fn reset_state(&mut self) {
        self.velocities.clear();
    }

    /// Applies one update step from the gradients accumulated in `net`.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (only possible if the network
    /// architecture changed between steps).
    pub fn step(&mut self, net: &mut Network) -> Result<()> {
        crate::profiler::timed(crate::profiler::Hotpath::Step, || self.step_inner(net))
    }

    fn step_inner(&mut self, net: &mut Network) -> Result<()> {
        let grad_scale = match self.max_grad_norm {
            Some(max_norm) => {
                let mut sq = 0.0f64;
                for layer in net.layers_mut() {
                    layer.for_each_param_grad_mut(&mut |_, grad| {
                        sq += grad
                            .as_slice()
                            .iter()
                            .map(|&g| (g as f64).powi(2))
                            .sum::<f64>();
                    });
                }
                let norm = sq.sqrt() as f32;
                if norm.is_finite() && norm > max_norm {
                    max_norm / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let lr = self.learning_rate;
        let momentum = self.momentum;
        let velocities = &mut self.velocities;
        let mut idx = 0usize;
        let mut failure = None;
        for layer in net.layers_mut() {
            layer.for_each_param_grad_mut(&mut |param, grad| {
                if failure.is_some() {
                    return;
                }
                if velocities.len() <= idx {
                    velocities.push(Tensor::zeros(grad.dims()));
                }
                let v = &mut velocities[idx];
                if v.dims() != grad.dims() {
                    *v = Tensor::zeros(grad.dims());
                }
                v.scale_inplace(momentum);
                if let Err(e) = v.axpy(grad_scale, grad) {
                    failure = Some(e);
                    return;
                }
                if let Err(e) = param.axpy(-lr, v) {
                    failure = Some(e);
                }
                idx += 1;
            });
        }
        match failure {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::Layer;
    use helios_tensor::TensorRng;

    fn one_layer_net() -> Network {
        let mut rng = TensorRng::seed_from(0);
        Network::new(vec![Layer::Dense(Dense::new(2, 2, &mut rng))], &[2])
    }

    #[test]
    fn step_moves_params_against_gradient() {
        let mut net = one_layer_net();
        let x = Tensor::full(&[1, 2], 1.0);
        let _ = net.forward(&x).unwrap();
        net.backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        let before = net.param_vector();
        let mut opt = Sgd::new(0.1);
        opt.step(&mut net).unwrap();
        let after = net.param_vector();
        // dW = xᵀg = all ones, db = ones → every param decreases by 0.1.
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a - 0.1).abs() < 1e-6, "{b} → {a}");
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut net = one_layer_net();
        let mut opt = Sgd::with_momentum(0.1, 0.5);
        let x = Tensor::full(&[1, 2], 1.0);
        // Two identical steps: second update is lr*(1 + 0.5) = 0.15.
        let _ = net.forward(&x).unwrap();
        net.backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        let p0 = net.param_vector();
        opt.step(&mut net).unwrap();
        let p1 = net.param_vector();
        net.zero_grad();
        let _ = net.forward(&x).unwrap();
        net.backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        opt.step(&mut net).unwrap();
        let p2 = net.param_vector();
        let d1 = p0[0] - p1[0];
        let d2 = p1[0] - p2[0];
        assert!((d1 - 0.1).abs() < 1e-6);
        assert!((d2 - 0.15).abs() < 1e-6);
        // reset_state clears the velocity.
        opt.reset_state();
        net.zero_grad();
        let _ = net.forward(&x).unwrap();
        net.backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        opt.step(&mut net).unwrap();
        let p3 = net.param_vector();
        assert!((p2[0] - p3[0] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_prevents_update() {
        let mut net = one_layer_net();
        let x = Tensor::full(&[1, 2], 1.0);
        let _ = net.forward(&x).unwrap();
        net.backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        net.zero_grad();
        let before = net.param_vector();
        Sgd::new(0.1).step(&mut net).unwrap();
        assert_eq!(before, net.param_vector());
    }
}
