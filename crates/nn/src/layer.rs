//! The [`Layer`] enum: closed set of layer kinds with static dispatch.

use crate::layers::{AvgPool2d, Conv2d, Dense, Flatten, MaskedCore, MaxPool2d, Relu, Residual};
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

    /// Visits the parameterized cores in canonical order: dense and
    /// conv layers, a residual block's body before its projection
    /// shortcut. This is the order of the flat parameter vector.
    pub(crate) fn for_each_core(&self, f: &mut dyn FnMut(&MaskedCore)) {
        match self {
            Layer::Dense(Dense { core }) | Layer::Conv2d(Conv2d { core, .. }) => f(core),
            Layer::Residual(l) => {
                for inner in l.body() {
                    inner.for_each_core(f);
                }
                if let Some(s) = l.shortcut() {
                    f(&s.core);
                }
            }
            _ => {}
        }
    }

    /// [`Layer::for_each_core`], mutably.
    pub(crate) fn for_each_core_mut(&mut self, f: &mut dyn FnMut(&mut MaskedCore)) {
        match self {
            Layer::Dense(Dense { core }) | Layer::Conv2d(Conv2d { core, .. }) => f(core),
            Layer::Residual(l) => {
                for inner in l.body_mut() {
                    inner.for_each_core_mut(f);
                }
                if let Some(s) = l.shortcut_mut() {
                    f(&mut s.core);
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
    ///   every output potentially nonzero). A dense layer after a
    ///   flatten expands each channel bit over its `H·W` features (see
    ///   [`MaskedCore::set_input_mask`]).
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
            Layer::Dense(Dense { core }) | Layer::Conv2d(Conv2d { core, .. }) => {
                core.set_input_mask(prev);
                core.unit_mask()
            }
            Layer::Relu(_) | Layer::MaxPool2d(_) | Layer::AvgPool2d(_) | Layer::Flatten(_) => prev,
            Layer::Residual(l) => {
                if let Some(s) = l.shortcut_mut() {
                    s.core.set_input_mask(prev);
                }
                let mut cur = prev;
                for inner in l.body_mut() {
                    cur = inner.thread_input_mask(cur);
                }
                None
            }
        }
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
        layer.for_each_core(&mut |c| c.for_each_param(&mut |_| count += 1));
        // body conv (w, b) + shortcut conv (w, b)
        assert_eq!(count, 4);
        let mut count_mut = 0;
        layer.for_each_core_mut(&mut |c| c.for_each_param_mut(&mut |_| count_mut += 1));
        assert_eq!(count_mut, 4);
        let mut pairs = 0;
        layer.for_each_core_mut(&mut |c| c.for_each_param_grad_mut(&mut |_, _| pairs += 1));
        assert_eq!(pairs, 4);
    }

    #[test]
    fn maskable_visit_skips_non_maskable_and_shortcuts() {
        let mut rng = TensorRng::seed_from(0);
        let layer = Layer::Residual(Residual::with_projection(
            vec![Layer::Conv2d(Conv2d::new(
                ConvSpec::new(1, 2, 1, 1, 0),
                &mut rng,
            ))],
            Conv2d::new(ConvSpec::new(1, 2, 1, 1, 0), &mut rng),
        ));
        let mut visited = 0;
        layer.for_each_core(&mut |c| visited += usize::from(c.is_maskable()));
        assert_eq!(visited, 1, "only the body conv is maskable");

        let head = Layer::Dense(Dense::new(4, 2, &mut rng).non_maskable());
        let mut visited = 0;
        head.for_each_core(&mut |c| visited += usize::from(c.is_maskable()));
        assert_eq!(visited, 0);
    }
}
