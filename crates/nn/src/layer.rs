//! The [`Layer`] enum: closed set of layer kinds with static dispatch.

use crate::layers::{AvgPool2d, Conv2d, Dense, Flatten, MaxPool2d, Relu, Residual, UnitMaskable};
use crate::Result;
use helios_tensor::{Tensor, UnitMask};

/// A single network layer.
///
/// A closed enum rather than a trait object: the Helios scheduler needs to
/// walk networks structurally (to enumerate neurons, install masks, and
/// compute cost profiles), which is far simpler over a known set of
/// variants. All heavy state lives inside the variant structs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Layer {
    /// Fully connected layer.
    Dense(Dense),
    /// 2-D convolution layer.
    Conv2d(Conv2d),
    /// ReLU activation.
    Relu(Relu),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// Flatten to `[N, features]`.
    Flatten(Flatten),
    /// Residual block with optional projection shortcut.
    Residual(Residual),
}

impl Layer {
    /// Runs the forward pass, caching whatever backward needs.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor operations.
    pub(crate) fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Dense(l) => l.forward(x),
            Layer::Conv2d(l) => l.forward(x),
            Layer::Relu(l) => l.forward(x),
            Layer::MaxPool2d(l) => l.forward(x),
            Layer::AvgPool2d(l) => l.forward(x),
            Layer::Flatten(l) => l.forward(x),
            Layer::Residual(l) => l.forward(x),
        }
    }

    /// Runs the backward pass, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no forward
    /// state is cached, and propagates tensor shape errors.
    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Dense(l) => l.backward(grad_out),
            Layer::Conv2d(l) => l.backward(grad_out),
            Layer::Relu(l) => l.backward(grad_out),
            Layer::MaxPool2d(l) => l.backward(grad_out),
            Layer::AvgPool2d(l) => l.backward(grad_out),
            Layer::Flatten(l) => l.backward(grad_out),
            Layer::Residual(l) => l.backward(grad_out),
        }
    }

    /// Resets accumulated parameter gradients to zero.
    pub(crate) fn zero_grad(&mut self) {
        match self {
            Layer::Dense(l) => l.zero_grad(),
            Layer::Conv2d(l) => l.zero_grad(),
            Layer::Residual(l) => l.zero_grad(),
            _ => {}
        }
    }

    /// Visits every parameter tensor in canonical order (body before
    /// shortcut inside residual blocks).
    pub(crate) fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        match self {
            Layer::Dense(l) => l.for_each_param(f),
            Layer::Conv2d(l) => l.for_each_param(f),
            Layer::Residual(l) => {
                for inner in l.body() {
                    inner.for_each_param(f);
                }
                if let Some(s) = l.shortcut() {
                    s.for_each_param(f);
                }
            }
            _ => {}
        }
    }

    /// Visits every parameter tensor mutably, same order as
    /// [`Layer::for_each_param`].
    pub(crate) fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        match self {
            Layer::Dense(l) => l.for_each_param_mut(f),
            Layer::Conv2d(l) => l.for_each_param_mut(f),
            Layer::Residual(l) => {
                for inner in l.body_mut() {
                    inner.for_each_param_mut(f);
                }
                if let Some(s) = l.shortcut_mut() {
                    s.for_each_param_mut(f);
                }
            }
            _ => {}
        }
    }

    /// Visits `(parameter, gradient)` pairs mutably, same order as
    /// [`Layer::for_each_param`]. This is the optimizer's entry point.
    pub(crate) fn for_each_param_grad_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        match self {
            Layer::Dense(l) => l.for_each_param_grad_mut(f),
            Layer::Conv2d(l) => l.for_each_param_grad_mut(f),
            Layer::Residual(l) => {
                for inner in l.body_mut() {
                    inner.for_each_param_grad_mut(f);
                }
                if let Some(s) = l.shortcut_mut() {
                    s.for_each_param_grad_mut(f);
                }
            }
            _ => {}
        }
    }

    /// Threads the upstream guaranteed-zero mask through this layer,
    /// installing input masks on parameterized layers (which enables
    /// their packed execution) and returning the zero-guarantee of this
    /// layer's own output.
    ///
    /// `prev` marks positions of this layer's *input* that are exactly
    /// zero (`false` = guaranteed zero), derived from the producing
    /// layer's unit mask; `None` means no guarantee. The return value
    /// plays the same role for this layer's output:
    ///
    /// - [`Dense`]/[`Conv2d`] consume `prev` as their input mask and
    ///   emit their own unit mask (a masked unit's output is exactly
    ///   zero; unmasked layers emit `None` because bias terms make
    ///   every output potentially nonzero). A dense layer following a
    ///   flatten sees `C·H·W` features for a `C`-channel mask, so each
    ///   channel bit expands over its contiguous `H·W` block (the
    ///   flatten of a row-major `[N, C, H, W]` tensor is
    ///   channel-major).
    /// - ReLU, pooling, and flatten propagate `prev` unchanged: they
    ///   map exact-zero planes to exact-zero planes.
    /// - Residual blocks thread `prev` through the body and into the
    ///   projection shortcut, but emit `None`: the shortcut is never
    ///   masked, so no output channel is guaranteed zero.
    pub(crate) fn thread_input_mask<'a>(
        &'a mut self,
        prev: Option<&'a UnitMask>,
    ) -> Option<&'a UnitMask> {
        match self {
            Layer::Dense(l) => {
                let expanded = prev.and_then(|p| {
                    if p.len() == 0 || l.in_features() % p.len() != 0 {
                        return None;
                    }
                    let f = l.in_features() / p.len();
                    Some((0..l.in_features()).map(|i| p.get(i / f)).collect())
                });
                l.set_input_mask(expanded);
                l.unit_mask()
            }
            Layer::Conv2d(l) => {
                l.set_input_mask(prev.cloned());
                l.unit_mask()
            }
            Layer::Relu(_) | Layer::MaxPool2d(_) | Layer::AvgPool2d(_) | Layer::Flatten(_) => prev,
            Layer::Residual(l) => {
                if let Some(s) = l.shortcut_mut() {
                    s.set_input_mask(prev.cloned());
                }
                let mut cur = prev;
                for inner in l.body_mut() {
                    cur = inner.thread_input_mask(cur);
                }
                None
            }
        }
    }

    /// Sets the masked-execution strategy of every parameterized layer
    /// (see [`Network::set_packed_execution`](crate::Network::set_packed_execution)).
    pub(crate) fn set_packed_execution(&mut self, enabled: bool) {
        match self {
            Layer::Dense(l) => l.set_packed(enabled),
            Layer::Conv2d(l) => l.set_packed(enabled),
            Layer::Residual(l) => {
                for inner in l.body_mut() {
                    inner.set_packed_execution(enabled);
                }
                if let Some(s) = l.shortcut_mut() {
                    s.set_packed(enabled);
                }
            }
            _ => {}
        }
    }

    /// Visits every maskable parameterized layer in canonical order.
    ///
    /// Layers constructed with `non_maskable()` (classifier heads,
    /// projection shortcuts) are skipped.
    pub(crate) fn visit_maskable(&mut self, f: &mut dyn FnMut(&mut dyn UnitMaskable)) {
        match self {
            Layer::Dense(l) if l.is_maskable() => {
                f(l);
            }
            Layer::Conv2d(l) if l.is_maskable() => {
                f(l);
            }
            Layer::Residual(l) => {
                for inner in l.body_mut() {
                    inner.visit_maskable(f);
                }
                // Projection shortcuts are never masked: they must keep the
                // residual sum shape-compatible.
            }
            _ => {}
        }
    }
}

impl From<Dense> for Layer {
    fn from(l: Dense) -> Self {
        Layer::Dense(l)
    }
}

impl From<Conv2d> for Layer {
    fn from(l: Conv2d) -> Self {
        Layer::Conv2d(l)
    }
}

impl From<Relu> for Layer {
    fn from(l: Relu) -> Self {
        Layer::Relu(l)
    }
}

impl From<MaxPool2d> for Layer {
    fn from(l: MaxPool2d) -> Self {
        Layer::MaxPool2d(l)
    }
}

impl From<AvgPool2d> for Layer {
    fn from(l: AvgPool2d) -> Self {
        Layer::AvgPool2d(l)
    }
}

impl From<Flatten> for Layer {
    fn from(l: Flatten) -> Self {
        Layer::Flatten(l)
    }
}

impl From<Residual> for Layer {
    fn from(l: Residual) -> Self {
        Layer::Residual(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_tensor::{ConvSpec, TensorRng};

    #[test]
    fn param_visit_order_is_stable() {
        let mut rng = TensorRng::seed_from(0);
        let mut layer = Layer::Residual(Residual::with_projection(
            vec![
                Layer::Conv2d(Conv2d::new(ConvSpec::new(1, 2, 1, 1, 0), &mut rng)),
                Layer::Relu(Relu::new()),
            ],
            Conv2d::new(ConvSpec::new(1, 2, 1, 1, 0), &mut rng),
        ));
        let mut count = 0;
        layer.for_each_param(&mut |_| count += 1);
        // body conv (w, b) + shortcut conv (w, b)
        assert_eq!(count, 4);
        let mut count_mut = 0;
        layer.for_each_param_mut(&mut |_| count_mut += 1);
        assert_eq!(count_mut, 4);
        let mut pairs = 0;
        layer.for_each_param_grad_mut(&mut |_, _| pairs += 1);
        assert_eq!(pairs, 4);
    }

    #[test]
    fn maskable_visit_skips_non_maskable_and_shortcuts() {
        let mut rng = TensorRng::seed_from(0);
        let mut layer = Layer::Residual(Residual::with_projection(
            vec![Layer::Conv2d(Conv2d::new(
                ConvSpec::new(1, 2, 1, 1, 0),
                &mut rng,
            ))],
            Conv2d::new(ConvSpec::new(1, 2, 1, 1, 0), &mut rng),
        ));
        let mut visited = 0;
        layer.visit_maskable(&mut |_| visited += 1);
        assert_eq!(visited, 1, "only the body conv is maskable");

        let mut head = Layer::Dense(Dense::new(4, 2, &mut rng).non_maskable());
        let mut visited = 0;
        head.visit_maskable(&mut |_| visited += 1);
        assert_eq!(visited, 0);
    }
}
