//! The [`Sequential`] container: the network value.

use crate::layer::{Layer, LayerSpec};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A stack of layers applied in order.
///
/// `Sequential` is the whole network as one value. It implements
/// [`Layer`], so the optimizer treats the stack as one parameter
/// collection. A clone is a snapshot, training arenas included, and serde
/// gives it its JSON form, `{"layers":[{"Dense":{…}},…]}`, which training
/// checkpoints carry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    layers: Vec<LayerSpec>,
}

impl Sequential {
    /// Builds a model from layers (applied first to last).
    pub fn new(layers: Vec<LayerSpec>) -> Self {
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

    /// The layer stack (the artifact writer walks it to collect tensors).
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Checks that this network has `expected`'s architecture, layer by
    /// layer: the same layer kinds, widths, hyperparameters and
    /// parameter-tensor lengths (weights and dropout mask streams may
    /// differ). A network that passes can take the place of `expected` in
    /// training and inference.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first layer that differs.
    pub fn check_architecture(&self, expected: &Sequential) -> Result<(), String> {
        if self.len() != expected.len() {
            return Err(format!(
                "the network has {} layers, this run builds {}",
                self.len(),
                expected.len()
            ));
        }
        for (i, (got, want)) in self.layers.iter().zip(&expected.layers).enumerate() {
            let (got, want) = (got.architecture(), want.architecture());
            if got != want {
                return Err(format!("layer {i} is {got}, this run builds {want}"));
            }
        }
        Ok(())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv1d;
    use crate::conv2d::{Conv2d, MaxPool2d};
    use crate::dense::{Activation, Dense};
    use crate::dropout::Dropout;
    use crate::optimizer::Adam;
    use crate::pool::MaxPool1d;
    use crate::{Loss, TrainConfig, Trainer};

    fn two_layer() -> Sequential {
        Sequential::new(vec![
            Dense::new(3, 4, Activation::Relu, 1).into(),
            Dense::new(4, 2, Activation::Linear, 2).into(),
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

    fn json_round_trip<T: serde::Serialize + serde::de::DeserializeOwned>(value: &T) -> T {
        serde_json::from_str(&serde_json::to_string(value).expect("serializes")).expect("parses")
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    fn param_bits(model: &mut Sequential) -> Vec<u32> {
        let mut out = Vec::new();
        model.visit_params(&mut |params, _| out.extend(params.iter().map(|p| p.to_bits())));
        out
    }

    fn trained_model() -> Sequential {
        let mut model = Sequential::new(vec![
            Dense::new(2, 8, Activation::Relu, 7).into(),
            Dense::new(8, 2, Activation::Linear, 8).into(),
        ]);
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let t = crate::loss::one_hot(&[0, 1, 1, 0], 2);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 100,
            batch_size: 4,
            learning_rate: 0.01,
            seed: 1,
            ..TrainConfig::default()
        });
        let _ = trainer.fit(&mut model, &x, &t, Loss::SoftmaxCrossEntropy);
        model
    }

    #[test]
    fn trained_dense_stack_round_trips_through_json() {
        let model = trained_model();
        let restored = json_round_trip(&model);
        let probe = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        assert_eq!(
            bits(&restored.predict(&probe)),
            bits(&model.predict(&probe))
        );
    }

    #[test]
    fn a_clone_of_a_trained_model_predicts_identically() {
        let model = trained_model();
        let snapshot = model.clone();
        let probe = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        assert_eq!(
            bits(&snapshot.predict(&probe)),
            bits(&model.predict(&probe))
        );
    }

    #[test]
    fn conv_stack_survives_serialization() {
        let model = Sequential::new(vec![
            Conv1d::new(1, 4, 3, 16, true, 3).into(),
            MaxPool1d::new(4, 16, 2).into(),
            Dropout::new(0.25, 4).into(),
            Dense::new(4 * 8, 2, Activation::Linear, 5).into(),
        ]);
        let y = json_round_trip(&model).predict(&Matrix::zeros(2, 16));
        assert_eq!((y.rows(), y.cols()), (2, 2));
    }

    #[test]
    fn conv2d_stack_survives_serialization() {
        let model = Sequential::new(vec![
            Conv2d::new(1, 2, 3, 8, 8, true, 1).into(),
            MaxPool2d::new(2, 8, 8, 2).into(),
            Dense::new(2 * 4 * 4, 3, Activation::Linear, 2).into(),
        ]);
        let y = json_round_trip(&model).predict(&Matrix::zeros(1, 64));
        assert_eq!(y.cols(), 3);
    }

    #[test]
    fn restored_model_is_trainable() {
        // Serde leaves the gradient buffers empty; the first backward
        // fills them.
        let model = Sequential::new(vec![Dense::new(1, 1, Activation::Linear, 9).into()]);
        let mut model = json_round_trip(&model);
        let x = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 300,
            batch_size: 4,
            learning_rate: 0.05,
            seed: 2,
            target_loss: Some(1e-4),
        });
        let h = trainer.fit(&mut model, &x, &x, Loss::Mse);
        assert!(h.final_loss() < 1e-3, "loss {}", h.final_loss());
    }

    #[test]
    fn every_layer_kind_survives_a_clone_and_a_json_round_trip() {
        let kinds: [(LayerSpec, usize); 6] = [
            (Conv1d::new(1, 2, 3, 8, true, 1).into(), 8),
            (MaxPool1d::new(2, 8, 2).into(), 16),
            (Conv2d::new(1, 1, 3, 2, 2, false, 2).into(), 4),
            (MaxPool2d::new(1, 2, 2, 2).into(), 4),
            (Dropout::new(0.5, 3).into(), 5),
            (Dense::new(3, 2, Activation::Relu, 4).into(), 3),
        ];
        for (layer, width) in kinds {
            let model = Sequential::new(vec![layer]);
            let x = Matrix::from_vec(
                2,
                width,
                (0..2 * width).map(|i| i as f32 * 0.37 - 1.0).collect(),
            );
            let want = bits(&model.predict(&x));
            for copy in [model.clone(), json_round_trip(&model)] {
                assert_eq!(bits(&copy.predict(&x)), want, "{model:?}");
                assert_eq!(copy.check_architecture(&model), Ok(()));
                assert_eq!(
                    copy.layers()[0].architecture(),
                    model.layers()[0].architecture()
                );
            }
        }
    }

    /// `steps` Adam steps over one fixed batch.
    fn train_steps(model: &mut Sequential, adam: &mut Adam, x: &Matrix, t: &Matrix, steps: usize) {
        for _ in 0..steps {
            let y = model.forward(x);
            let (_, grad) = Loss::SoftmaxCrossEntropy.compute(&y, t);
            model.backward_discard(&grad);
            adam.step(model, 0.01);
        }
    }

    #[test]
    fn a_snapshot_trains_on_independently_of_its_source() {
        // A clone copies the training arenas serde skips (the recorded
        // inputs, activation derivatives, δ, the pooling argmax, dropout's
        // mask); training the source on must not reach into the snapshot.
        let mut model = Sequential::new(vec![
            Conv1d::new(1, 4, 3, 16, true, 11).into(),
            MaxPool1d::new(4, 16, 2).into(),
            Dropout::new(0.25, 12).into(),
            Dense::new(4 * 8, 3, Activation::Linear, 13).into(),
        ]);
        let x = Matrix::from_vec(6, 16, (0..96).map(|i| (i % 7) as f32 * 0.3 - 0.8).collect());
        let t = crate::loss::one_hot(&[0, 1, 2, 0, 1, 2], 3);
        let mut adam = Adam::new();
        train_steps(&mut model, &mut adam, &x, &t, 3);

        let (mut snapshot, mut snapshot_adam) = (model.clone(), adam.clone());
        let (mut revived, mut revived_adam) = (json_round_trip(&model), json_round_trip(&adam));
        train_steps(&mut model, &mut adam, &x, &t, 4);
        train_steps(&mut snapshot, &mut snapshot_adam, &x, &t, 4);
        train_steps(&mut revived, &mut revived_adam, &x, &t, 4);

        let want = param_bits(&mut model);
        assert_eq!(param_bits(&mut snapshot), want);
        assert_eq!(param_bits(&mut revived), want);
        assert_eq!(bits(&snapshot.predict(&x)), bits(&model.predict(&x)));
    }
}
