//! Adam, the one optimizer: every network in the workspace trains with it.

use crate::layer::Layer;
use serde::{Deserialize, Serialize};

/// Decay of the first moment, β₁.
const BETA1: f32 = 0.9;
/// Decay of the second moment, β₂.
const BETA2: f32 = 0.999;
/// Guard added to the denominator, ε.
const EPSILON: f32 = 1e-8;

/// Adam (Kingma & Ba) with the standard bias correction and the canonical
/// hyperparameters β₁ = 0.9, β₂ = 0.999, ε = 1e-8, fixed in code.
///
/// Its state is the step count and one pair of moment buffers per
/// parameter tensor, keyed on the [`Layer::visit_params`] order, which the
/// `Layer` contract keeps stable. A clone is a checkpoint: it continues
/// training exactly where the original stopped.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Adam {
    t: u64,
    moments: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Adam before its first step.
    pub fn new() -> Self {
        Adam::default()
    }

    /// Applies one update step to every parameter tensor `model` exposes
    /// through [`Layer::visit_params`], then zeroes the gradients.
    pub fn step(&mut self, model: &mut dyn Layer, learning_rate: f32) {
        self.t += 1;
        let t = self.t;
        let bias1 = 1.0 - BETA1.powi(t as i32);
        let bias2 = 1.0 - BETA2.powi(t as i32);
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
                *mi = BETA1 * *mi + (1.0 - BETA1) * gr;
                *vi = BETA2 * *vi + (1.0 - BETA2) * gr * gr;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                *p -= learning_rate * m_hat / (v_hat.sqrt() + EPSILON);
                *g = 0.0;
            }
            slot += 1;
        });
    }

    /// Checks that the moment buffers fit a model whose parameter tensors
    /// have these lengths, in [`Layer::visit_params`] order: no buffers yet
    /// (no step taken), or one pair per tensor, each of the tensor's
    /// length. A step over a short buffer would leave the parameters past
    /// its end un-updated.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first slot that does not fit.
    pub(crate) fn check_fits(&self, param_lens: &[usize]) -> Result<(), String> {
        if self.moments.is_empty() {
            return Ok(());
        }
        if self.moments.len() != param_lens.len() {
            return Err(format!(
                "the optimizer has {} buffer slots, the network {} parameter tensors",
                self.moments.len(),
                param_lens.len()
            ));
        }
        for (i, ((m, v), &want)) in self.moments.iter().zip(param_lens).enumerate() {
            if let Some(got) = [m.len(), v.len()].into_iter().find(|&len| len != want) {
                return Err(format!(
                    "optimizer buffer {i} holds {got} values, its parameter tensor {want}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{Activation, Dense};
    use crate::matrix::Matrix;

    /// One gradient step on a single-weight problem: loss = (w·1 - 1)².
    fn loss_after_steps(opt: &mut Adam, steps: usize, lr: f32) -> f32 {
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
}
