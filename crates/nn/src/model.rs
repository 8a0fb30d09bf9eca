//! The [`Sequential`] container.

use crate::layer::Layer;
use crate::matrix::Matrix;

/// A stack of layers applied in order.
///
/// `Sequential` itself implements [`Layer`], so models nest and optimizers
/// treat the whole stack as one parameter collection.
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Builds a model from layers (applied first to last).
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Inference (dropout disabled); see [`Layer::infer`].
    pub fn predict(&self, input: &Matrix) -> Matrix {
        self.infer(input)
    }

    /// Micro-batched inference: stacks every group's rows into one matrix,
    /// runs a single forward pass (so the threaded matmul amortizes across
    /// groups), and splits the output back per group.
    ///
    /// Every layer's forward pass is row-independent, so each output row
    /// is bit-identical to what a per-group [`predict`](Sequential::predict)
    /// would produce — batching is purely a throughput optimization.
    ///
    /// # Panics
    ///
    /// Panics if groups have ragged row widths.
    pub fn predict_stacked(&self, groups: &[&[Vec<f64>]]) -> Vec<Matrix> {
        let rows: Vec<&[f64]> = groups
            .iter()
            .flat_map(|g| g.iter().map(Vec::as_slice))
            .collect();
        if rows.is_empty() {
            return groups.iter().map(|_| Matrix::zeros(0, 0)).collect();
        }
        let stacked = Matrix::from_row_slices(&rows);
        let out = self.predict(&stacked);
        let counts: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        out.split_rows(&counts)
    }

    /// The layer stack (used by model persistence).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl Layer for Sequential {
    fn infer(&self, input: &Matrix) -> Matrix {
        let Some((first, rest)) = self.layers.split_first() else {
            return input.clone();
        };
        rest.iter()
            .fold(first.infer(input), |x, layer| layer.infer(&x))
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        rest.iter_mut()
            .fold(first.forward(input), |x, layer| layer.forward(&x))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn backward_discard(&mut self, grad_out: &Matrix) {
        // Every layer but the first still needs its input gradient (it is
        // the next-lower layer's output gradient); only the first layer's
        // can be skipped.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_discard(&g);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{Activation, Dense};

    fn two_layer() -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(3, 4, Activation::Relu, 1)),
            Box::new(Dense::new(4, 2, Activation::Linear, 2)),
        ])
    }

    #[test]
    fn forward_chains_layers() {
        let m = two_layer();
        let y = m.predict(&Matrix::zeros(5, 3));
        assert_eq!((y.rows(), y.cols()), (5, 2));
    }

    #[test]
    fn param_count_sums_layers() {
        let mut m = two_layer();
        assert_eq!(m.param_count(), (3 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn backward_returns_input_gradient_shape() {
        let mut m = two_layer();
        let x = Matrix::from_vec(2, 3, vec![0.1; 6]);
        let _ = m.forward(&x);
        let g = m.backward(&Matrix::from_vec(2, 2, vec![1.0; 4]));
        assert_eq!((g.rows(), g.cols()), (2, 3));
    }

    #[test]
    fn whole_model_gradient_check() {
        let mut m = two_layer();
        let x = Matrix::from_vec(1, 3, vec![0.3, -0.7, 0.5]);
        let loss = |m: &Sequential, x: &Matrix| -> f32 { m.predict(x).data().iter().sum() };
        let _ = m.forward(&x);
        let dx = m.backward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let hi = loss(&m, &xp);
            xp.data_mut()[i] -= 2.0 * eps;
            let lo = loss(&m, &xp);
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[i]).abs() < 2e-2,
                "dx[{i}]: {numeric} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn push_extends_model() {
        let mut m = two_layer();
        m.push(Box::new(Dense::new(2, 1, Activation::Linear, 3)));
        assert_eq!(m.len(), 3);
        let y = m.predict(&Matrix::zeros(1, 3));
        assert_eq!(y.cols(), 1);
    }

    #[test]
    fn predict_stacked_matches_per_group_predict() {
        let m = two_layer();
        let g1: Vec<Vec<f64>> = vec![vec![0.1, -0.2, 0.3], vec![0.5, 0.0, -0.1]];
        let g2: Vec<Vec<f64>> = vec![vec![-0.4, 0.7, 0.2]];
        let batched = m.predict_stacked(&[&g1, &g2]);
        assert_eq!(batched.len(), 2);
        assert_eq!(batched[0], m.predict(&Matrix::from_rows(&g1)));
        assert_eq!(batched[1], m.predict(&Matrix::from_rows(&g2)));
    }

    #[test]
    fn predict_stacked_handles_empty_input() {
        let m = two_layer();
        assert!(m.predict_stacked(&[]).is_empty());
        let empty: Vec<Vec<f64>> = Vec::new();
        let out = m.predict_stacked(&[&empty]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rows(), 0);
    }

    #[test]
    fn empty_model_is_identity() {
        let m = Sequential::new(vec![]);
        assert!(m.is_empty());
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(m.predict(&x), x);
    }
}
