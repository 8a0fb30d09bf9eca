//! The [`Layer`] trait every network building block implements, and
//! [`LayerSpec`], the closed set of layer kinds a
//! [`Sequential`](crate::Sequential) holds.

use crate::conv::Conv1d;
use crate::conv2d::{Conv2d, MaxPool2d};
use crate::dense::Dense;
use crate::dropout::Dropout;
use crate::matrix::Matrix;
use crate::pool::MaxPool1d;
use serde::{Deserialize, Serialize};

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
}

/// A layer of any kind this crate provides, weights included.
///
/// The enum is the network value itself: a [`Sequential`](crate::Sequential)
/// holds a `Vec<LayerSpec>`, a clone of it is a snapshot, and serde gives
/// it its JSON form (externally tagged, `{"Dense":{…}}`). Serde skips the
/// training arenas (gradients, the recorded forward, dropout masks); each
/// layer rebuilds them on first use. Build one with `.into()` on a
/// concrete layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LayerSpec {
    /// A dense layer (weights included).
    Dense(Dense),
    /// A 1-D convolution (weights included).
    Conv1d(Conv1d),
    /// A 2-D convolution (weights included).
    Conv2d(Conv2d),
    /// 1-D max pooling.
    MaxPool1d(MaxPool1d),
    /// 2-D max pooling.
    MaxPool2d(MaxPool2d),
    /// Dropout.
    Dropout(Dropout),
}

impl LayerSpec {
    /// The layer behind the kind.
    fn layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            LayerSpec::Dense(l) => l,
            LayerSpec::Conv1d(l) => l,
            LayerSpec::Conv2d(l) => l,
            LayerSpec::MaxPool1d(l) => l,
            LayerSpec::MaxPool2d(l) => l,
            LayerSpec::Dropout(l) => l,
        }
    }

    /// The layer behind the kind, read-only.
    fn layer(&self) -> &dyn Layer {
        match self {
            LayerSpec::Dense(l) => l,
            LayerSpec::Conv1d(l) => l,
            LayerSpec::Conv2d(l) => l,
            LayerSpec::MaxPool1d(l) => l,
            LayerSpec::MaxPool2d(l) => l,
            LayerSpec::Dropout(l) => l,
        }
    }

    /// The layer's architecture in words: its kind, widths,
    /// hyperparameters and parameter-tensor lengths. Learned state is left
    /// out: the weights, and a dropout layer's mask-stream seed and
    /// position.
    pub(crate) fn architecture(&self) -> String {
        match self {
            LayerSpec::Dense(d) => format!(
                "Dense {}->{} {:?}, weights {}x{} ({} values), bias {}",
                d.in_dim(),
                d.out_dim(),
                d.activation(),
                d.weights().rows(),
                d.weights().cols(),
                d.weights().data().len(),
                d.bias().len()
            ),
            LayerSpec::Conv1d(c) => format!(
                "Conv1d {}->{} channels, kernel {}, length {}, relu {}, weights {}, bias {}",
                c.in_channels(),
                c.out_channels(),
                c.kernel(),
                c.length(),
                c.relu(),
                c.weights().len(),
                c.bias().len()
            ),
            LayerSpec::Conv2d(c) => format!(
                "Conv2d {}->{} channels, kernel {}, {}x{}, relu {}, weights {}, bias {}",
                c.in_channels(),
                c.out_channels(),
                c.kernel(),
                c.height(),
                c.width(),
                c.relu(),
                c.weights().len(),
                c.bias().len()
            ),
            LayerSpec::MaxPool1d(p) => format!(
                "MaxPool1d {} channels x {}, window {}",
                p.channels(),
                p.length(),
                p.window()
            ),
            LayerSpec::MaxPool2d(p) => format!(
                "MaxPool2d {} channels x {}x{}, window {}",
                p.channels(),
                p.height(),
                p.width(),
                p.window()
            ),
            LayerSpec::Dropout(d) => format!("Dropout p={}", d.probability()),
        }
    }
}

impl Layer for LayerSpec {
    fn infer(&self, input: &Matrix) -> Matrix {
        self.layer().infer(input)
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        self.layer_mut().forward(input)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.layer_mut().backward(grad_out)
    }

    fn backward_discard(&mut self, grad_out: &Matrix) {
        self.layer_mut().backward_discard(grad_out);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.layer_mut().visit_params(visitor);
    }
}

impl From<Dense> for LayerSpec {
    fn from(l: Dense) -> Self {
        LayerSpec::Dense(l)
    }
}
impl From<Conv1d> for LayerSpec {
    fn from(l: Conv1d) -> Self {
        LayerSpec::Conv1d(l)
    }
}
impl From<Conv2d> for LayerSpec {
    fn from(l: Conv2d) -> Self {
        LayerSpec::Conv2d(l)
    }
}
impl From<MaxPool1d> for LayerSpec {
    fn from(l: MaxPool1d) -> Self {
        LayerSpec::MaxPool1d(l)
    }
}
impl From<MaxPool2d> for LayerSpec {
    fn from(l: MaxPool2d) -> Self {
        LayerSpec::MaxPool2d(l)
    }
}
impl From<Dropout> for LayerSpec {
    fn from(l: Dropout) -> Self {
        LayerSpec::Dropout(l)
    }
}
