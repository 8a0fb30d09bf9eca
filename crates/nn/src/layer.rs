//! The [`Layer`] trait every network building block implements.

use crate::matrix::Matrix;

/// One differentiable network stage.
///
/// Inference and training are separate entry points.
/// [`infer`](Layer::infer) takes `&self` and writes nothing into the
/// layer, so one trained model serves any number of threads at once.
/// Training is stateful reverse-mode autodiff:
/// [`forward`](Layer::forward) computes the same output and records what
/// the matching [`backward`](Layer::backward) needs, `backward` consumes
/// that record and accumulates parameter gradients internally, and
/// [`visit_params`](Layer::visit_params) exposes `(param, grad)` pairs to
/// the optimizer in a stable order.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Computes the inference output for a `[batch × features]` input
    /// (dropout is the identity). Writes nothing into the layer.
    fn infer(&self, input: &Matrix) -> Matrix;

    /// The training forward pass: the output for a `[batch × features]`
    /// input (dropout masks applied), with the state `backward` needs
    /// recorded in the layer. Every other layer's output is bit-identical
    /// to [`infer`](Layer::infer)'s.
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Propagates `grad_out` (∂loss/∂output) to ∂loss/∂input, accumulating
    /// parameter gradients. Must follow a [`forward`](Layer::forward) call.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Like [`backward`](Layer::backward), but the caller will discard the
    /// returned input gradient (this is the first layer of the stack).
    /// Layers whose input-gradient computation is separable from their
    /// parameter-gradient accumulation override this to skip it; the
    /// parameter gradients are bit-identical either way. The default just
    /// delegates.
    fn backward_discard(&mut self, grad_out: &Matrix) {
        let _ = self.backward(grad_out);
    }

    /// Visits every `(parameters, gradients)` pair. The visitation order
    /// must be stable across calls — optimizers key their state on it.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |_, grads| grads.fill(0.0));
    }

    /// Total trainable parameter count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |params, _| n += params.len());
        n
    }

    /// The layer as `Any`, enabling downcasts during model persistence.
    fn as_any(&self) -> &dyn std::any::Any;
}
