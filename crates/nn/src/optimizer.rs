//! First-order optimizers: SGD with momentum and Adam.

use crate::layer::Layer;
use serde::{Deserialize, Serialize};

/// An optimizer updates every parameter tensor a model exposes through
/// [`Layer::visit_params`]. State (momentum, Adam moments) is keyed on the
/// visitation order, which the `Layer` contract keeps stable.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update step with the given learning rate, then zeroes
    /// the gradients.
    fn step(&mut self, model: &mut dyn Layer, learning_rate: f32);

    /// Captures the optimizer's complete state (momentum/moment buffers,
    /// timestep) for checkpointing.
    fn snapshot(&self) -> OptimizerState;
}

/// A serializable snapshot of an optimizer, sufficient to continue
/// training exactly where it stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OptimizerState {
    /// SGD with its momentum coefficient and velocity buffers.
    Sgd(Sgd),
    /// Adam with its hyperparameters, timestep, and moment buffers.
    Adam(Adam),
}

impl OptimizerState {
    /// Rebuilds the live optimizer this state was captured from.
    pub fn into_boxed(self) -> Box<dyn Optimizer> {
        match self {
            OptimizerState::Sgd(s) => Box::new(s),
            OptimizerState::Adam(a) => Box::new(a),
        }
    }
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD (`momentum = 0`) or momentum SGD.
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is not in `[0, 1)`.
    pub fn new(momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Layer, learning_rate: f32) {
        let mut slot = 0usize;
        let velocity = &mut self.velocity;
        let momentum = self.momentum;
        model.visit_params(&mut |params, grads| {
            if velocity.len() <= slot {
                velocity.push(vec![0.0; params.len()]);
            }
            let v = &mut velocity[slot];
            debug_assert_eq!(v.len(), params.len(), "param shape changed across steps");
            for ((p, g), vi) in params.iter_mut().zip(grads.iter_mut()).zip(v.iter_mut()) {
                *vi = momentum * *vi - learning_rate * *g;
                *p += *vi;
                *g = 0.0;
            }
            slot += 1;
        });
    }

    fn snapshot(&self) -> OptimizerState {
        OptimizerState::Sgd(self.clone())
    }
}

/// Adam (Kingma & Ba) with the standard bias correction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    t: u64,
    moments: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Adam with the canonical hyperparameters β₁ = 0.9, β₂ = 0.999,
    /// ε = 1e-8.
    pub fn new() -> Self {
        Adam {
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new()
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Layer, learning_rate: f32) {
        self.t += 1;
        let (b1, b2, eps, t) = (self.beta1, self.beta2, self.epsilon, self.t);
        let bias1 = 1.0 - b1.powi(t as i32);
        let bias2 = 1.0 - b2.powi(t as i32);
        let moments = &mut self.moments;
        let mut slot = 0usize;
        model.visit_params(&mut |params, grads| {
            if moments.len() <= slot {
                moments.push((vec![0.0; params.len()], vec![0.0; params.len()]));
            }
            let (m, v) = &mut moments[slot];
            debug_assert_eq!(m.len(), params.len(), "param shape changed across steps");
            // Lockstep iterators: no bounds checks, and every lane is
            // element-independent IEEE arithmetic, so the loop vectorizes
            // while staying bit-identical to the scalar update.
            for (((p, g), mi), vi) in params
                .iter_mut()
                .zip(grads.iter_mut())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                let gr = *g;
                *mi = b1 * *mi + (1.0 - b1) * gr;
                *vi = b2 * *vi + (1.0 - b2) * gr * gr;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                *p -= learning_rate * m_hat / (v_hat.sqrt() + eps);
                *g = 0.0;
            }
            slot += 1;
        });
    }

    fn snapshot(&self) -> OptimizerState {
        OptimizerState::Adam(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{Activation, Dense};
    use crate::matrix::Matrix;

    /// One gradient step on a single-weight problem: loss = (w·1 - 1)².
    fn loss_after_steps(opt: &mut dyn Optimizer, steps: usize, lr: f32) -> f32 {
        let mut layer = Dense::new(1, 1, Activation::Linear, 0);
        let x = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let t = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let mut last = f32::MAX;
        for _ in 0..steps {
            let y = layer.forward(&x);
            let (loss, grad) = crate::loss::Loss::Mse.compute(&y, &t);
            let _ = layer.backward(&grad);
            opt.step(&mut layer, lr);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_descends() {
        let mut opt = Sgd::new(0.0);
        let early = loss_after_steps(&mut opt, 1, 0.1);
        let mut opt = Sgd::new(0.0);
        let late = loss_after_steps(&mut opt, 50, 0.1);
        assert!(late < early);
        assert!(late < 1e-4);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        // At a small learning rate, momentum ~1/(1-m) accelerates the slow
        // quadratic descent without overshooting.
        let mut plain = Sgd::new(0.0);
        let plain_loss = loss_after_steps(&mut plain, 15, 0.005);
        let mut mom = Sgd::new(0.8);
        let mom_loss = loss_after_steps(&mut mom, 15, 0.005);
        assert!(
            mom_loss < plain_loss,
            "momentum {mom_loss} vs plain {plain_loss}"
        );
    }

    #[test]
    fn adam_descends() {
        let mut opt = Adam::new();
        let late = loss_after_steps(&mut opt, 200, 0.05);
        assert!(late < 1e-3, "loss {late}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut layer = Dense::new(2, 2, Activation::Linear, 1);
        let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let y = layer.forward(&x);
        let (_, grad) = crate::loss::Loss::Mse.compute(&y, &Matrix::zeros(1, 2));
        let _ = layer.backward(&grad);
        let mut opt = Adam::new();
        opt.step(&mut layer, 0.01);
        let mut all_zero = true;
        layer.visit_params(&mut |_, grads| {
            all_zero &= grads.iter().all(|&g| g == 0.0);
        });
        assert!(all_zero);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn bad_momentum_rejected() {
        let _ = Sgd::new(1.0);
    }
}
