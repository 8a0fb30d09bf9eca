//! Fully connected layers with fused activations.
//!
//! Training caches are reused arenas: the training forward keeps a copy of
//! its input (refreshed in place each step) and the activation derivative
//! evaluated at forward time, instead of cloning both matrices every call.
//! Inference records neither.

use crate::backend;
use crate::init;
use crate::layer::Layer;
use crate::matrix::Matrix;
use crate::storage::WeightStore;
use serde::{Deserialize, Serialize};

/// Activation fused into a [`Dense`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to one pre-activation value.
    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// A fully connected layer: `y = act(x·W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
    /// `[in_dim × out_dim]`, row-major.
    weights: Matrix,
    bias: WeightStore<f32>,
    #[serde(skip)]
    grad_weights: Vec<f32>,
    #[serde(skip)]
    grad_bias: Vec<f32>,
    /// Input of the pending training forward; refreshed in place.
    #[serde(skip)]
    cached_input: Matrix,
    /// `act'(y)` per output element, evaluated during forward (`y` is the
    /// same value backward would recompute it from, so the product
    /// `grad_out · act'(y)` is bit-identical either way).
    #[serde(skip)]
    act_deriv: Vec<f32>,
    /// δ arena for backward.
    #[serde(skip)]
    delta: Matrix,
    /// Arms `backward`; cleared when the cached step is consumed.
    #[serde(skip)]
    cache_ready: bool,
}

impl Dense {
    /// Creates a dense layer with He initialization (Glorot for `Linear`).
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        let weights = Matrix::from_vec(
            in_dim,
            out_dim,
            match activation {
                Activation::Relu => init::he_uniform(in_dim * out_dim, in_dim, seed),
                _ => init::glorot_uniform(in_dim * out_dim, in_dim, out_dim, seed),
            },
        );
        Dense {
            in_dim,
            out_dim,
            activation,
            weights,
            bias: vec![0.0; out_dim].into(),
            grad_weights: vec![0.0; in_dim * out_dim],
            grad_bias: vec![0.0; out_dim],
            cached_input: Matrix::default(),
            act_deriv: Vec::new(),
            delta: Matrix::default(),
            cache_ready: false,
        }
    }

    /// Assembles a layer from existing parameters (the zero-copy artifact
    /// loader passes artifact-shared stores; gradient buffers stay empty
    /// until training materializes them).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len()` does not match the weight matrix's column
    /// count.
    pub fn from_parts(activation: Activation, weights: Matrix, bias: WeightStore<f32>) -> Self {
        assert_eq!(bias.len(), weights.cols(), "dense bias length mismatch");
        Dense {
            in_dim: weights.rows(),
            out_dim: weights.cols(),
            activation,
            weights,
            bias,
            grad_weights: Vec::new(),
            grad_bias: Vec::new(),
            cached_input: Matrix::default(),
            act_deriv: Vec::new(),
            delta: Matrix::default(),
            cache_ready: false,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The `[in_dim × out_dim]` weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The per-output bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The fused activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Restores transient buffers after deserialization (serde skips the
    /// gradient/cache fields). Gradient buffers are left empty and
    /// materialized lazily on the first backward pass, so a freshly loaded
    /// model costs nothing until trained.
    pub fn rebuild_buffers(&mut self) {
        self.grad_weights = Vec::new();
        self.grad_bias = Vec::new();
    }

    /// Materializes the gradient buffers if a previous load left them
    /// empty (they always start zeroed, matching `new`).
    fn ensure_grads(&mut self) {
        if self.grad_weights.len() != self.in_dim * self.out_dim {
            self.grad_weights = vec![0.0; self.in_dim * self.out_dim];
        }
        if self.grad_bias.len() != self.out_dim {
            self.grad_bias = vec![0.0; self.out_dim];
        }
    }

    /// The parameter-gradient half of `backward`: builds δ in the arena
    /// and accumulates dW/db. The input gradient (`δ·Wᵀ`) is separable and
    /// computed only by [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Matrix) {
        assert!(
            std::mem::take(&mut self.cache_ready),
            "backward without a training forward"
        );
        self.ensure_grads();
        // δ = grad_out ⊙ act'(y), built in the reused arena.
        self.delta.copy_from(grad_out);
        for (d, &dv) in self.delta.data_mut().iter_mut().zip(&self.act_deriv) {
            *d *= dv;
        }
        // dW += xᵀ·δ, accumulated directly into the (zeroed) grad buffer —
        // the same ascending-p chains as building a temporary and adding it.
        let rows = self.delta.rows();
        backend::gemm_tn(
            self.cached_input.data(),
            self.delta.data(),
            self.in_dim,
            rows,
            self.out_dim,
            &mut self.grad_weights,
        );
        // db += Σ_batch δ
        for r in 0..rows {
            for (g, &d) in self.grad_bias.iter_mut().zip(self.delta.row(r)) {
                *g += d;
            }
        }
    }
}

impl Layer for Dense {
    fn infer(&self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.in_dim, "dense input width mismatch");
        let mut out = input.matmul(&self.weights);
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (o, &b) in row.iter_mut().zip(self.bias.iter()) {
                *o = self.activation.apply(*o + b);
            }
        }
        out
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        let out = self.infer(input);
        self.cached_input.copy_from(input);
        backend::ensure_len(&mut self.act_deriv, out.rows() * out.cols());
        for (d, &y) in self.act_deriv.iter_mut().zip(out.data()) {
            *d = self.activation.derivative_from_output(y);
        }
        self.cache_ready = true;
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.backward_params(grad_out);
        // dx = δ·Wᵀ
        self.delta.matmul_t(&self.weights)
    }

    fn backward_discard(&mut self, grad_out: &Matrix) {
        // First layer of the stack: `δ·Wᵀ` would be thrown away, so only
        // the parameter gradients are accumulated (bit-identical to the
        // ones `backward` computes).
        self.backward_params(grad_out);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.ensure_grads();
        visitor(self.weights.data_mut(), &mut self.grad_weights);
        visitor(self.bias.as_mut_slice(), &mut self.grad_bias);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad_check(activation: Activation) {
        // Finite-difference check of dW and dx on a tiny layer.
        let mut layer = Dense::new(3, 2, activation, 9);
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.8, -0.1, 0.4, 0.9]);
        // Loss = sum(y); grad_out = ones.
        let fwd_loss = |layer: &Dense, x: &Matrix| -> f32 { layer.infer(x).data().iter().sum() };
        let _ = layer.forward(&x);
        let grad_out = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let dx = layer.backward(&grad_out);

        let eps = 1e-3f32;
        // Check a few weight coordinates.
        for idx in [0usize, 2, 5] {
            let orig = layer.weights.data()[idx];
            layer.weights.data_mut()[idx] = orig + eps;
            let hi = fwd_loss(&layer, &x);
            layer.weights.data_mut()[idx] = orig - eps;
            let lo = fwd_loss(&layer, &x);
            layer.weights.data_mut()[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - layer.grad_weights[idx]).abs() < 2e-2,
                "{activation:?} dW[{idx}]: numeric {numeric} vs analytic {}",
                layer.grad_weights[idx]
            );
        }
        // Check an input coordinate.
        let idx = 1;
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let hi = fwd_loss(&layer, &xp);
        xp.data_mut()[idx] -= 2.0 * eps;
        let lo = fwd_loss(&layer, &xp);
        let numeric = (hi - lo) / (2.0 * eps);
        assert!(
            (numeric - dx.data()[idx]).abs() < 2e-2,
            "{activation:?} dx[{idx}]: numeric {numeric} vs analytic {}",
            dx.data()[idx]
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        numeric_grad_check(Activation::Linear);
        numeric_grad_check(Activation::Relu);
        numeric_grad_check(Activation::Sigmoid);
    }

    #[test]
    fn forward_shapes_are_correct() {
        let layer = Dense::new(4, 6, Activation::Relu, 0);
        let x = Matrix::zeros(3, 4);
        let y = layer.infer(&x);
        assert_eq!((y.rows(), y.cols()), (3, 6));
    }

    #[test]
    fn relu_output_is_nonnegative() {
        let layer = Dense::new(5, 5, Activation::Relu, 1);
        let x = Matrix::from_vec(1, 5, vec![-10.0, -1.0, 0.0, 1.0, 10.0]);
        let y = layer.infer(&x);
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn sigmoid_output_in_unit_interval() {
        let layer = Dense::new(3, 3, Activation::Sigmoid, 2);
        let x = Matrix::from_vec(1, 3, vec![-100.0, 0.0, 100.0]);
        let y = layer.infer(&x);
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn param_count_is_weights_plus_bias() {
        let mut layer = Dense::new(10, 7, Activation::Linear, 3);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut layer = Dense::new(2, 2, Activation::Linear, 4);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let _ = layer.forward(&x);
        let _ = layer.backward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        assert!(layer.grad_weights.iter().any(|&g| g != 0.0));
        layer.zero_grads();
        assert!(layer.grad_weights.iter().all(|&g| g == 0.0));
        assert!(layer.grad_bias.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn same_seed_same_weights() {
        let a = Dense::new(8, 8, Activation::Relu, 42);
        let b = Dense::new(8, 8, Activation::Relu, 42);
        assert_eq!(a.weights.data(), b.weights.data());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn forward_rejects_wrong_width() {
        let layer = Dense::new(3, 2, Activation::Linear, 0);
        let _ = layer.infer(&Matrix::zeros(1, 4));
    }
}
