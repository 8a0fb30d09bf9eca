//! Model persistence: a serializable description of a [`Sequential`]
//! stack.
//!
//! `Sequential` holds `Box<dyn Layer>`, which serde cannot serialize
//! directly; [`LayerSpec`] is the closed enum of all layer types this
//! crate provides, giving a stable JSON representation for trained
//! models (weights included).

use crate::conv::Conv1d;
use crate::conv2d::{Conv2d, MaxPool2d};
use crate::dense::Dense;
use crate::dropout::Dropout;
use crate::layer::Layer;
use crate::model::Sequential;
use crate::pool::MaxPool1d;
use serde::{Deserialize, Serialize};

/// A serializable layer. Construct via [`From`] impls on the concrete
/// layer types, or convert back with [`LayerSpec::into_layer`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
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
    /// Re-boxes the spec as a live layer, restoring any transient buffers
    /// serde skipped.
    pub fn into_layer(self) -> Box<dyn Layer> {
        match self {
            LayerSpec::Dense(mut d) => {
                d.rebuild_buffers();
                Box::new(d)
            }
            LayerSpec::Conv1d(mut c) => {
                c.rebuild_buffers();
                Box::new(c)
            }
            LayerSpec::Conv2d(mut c) => {
                c.rebuild_buffers();
                Box::new(c)
            }
            LayerSpec::MaxPool1d(p) => Box::new(p),
            LayerSpec::MaxPool2d(p) => Box::new(p),
            LayerSpec::Dropout(d) => Box::new(d),
        }
    }
}

/// A serializable model: an ordered list of layer specs.
///
/// # Example
///
/// ```
/// use soteria_nn::persist::ModelSpec;
/// use soteria_nn::{Activation, Dense, Matrix, Sequential};
///
/// let model = Sequential::new(vec![Box::new(Dense::new(2, 3, Activation::Relu, 1))]);
/// // Build the spec from the same construction recipe...
/// let spec = ModelSpec::new(vec![Dense::new(2, 3, Activation::Relu, 1).into()]);
/// let json = spec.to_json().expect("serializes");
/// let mut restored = ModelSpec::from_json(&json).expect("parses").into_sequential();
/// let x = Matrix::zeros(1, 2);
/// let mut original = model;
/// assert_eq!(restored.predict(&x).data(), original.predict(&x).data());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct ModelSpec {
    layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Builds a spec from layer specs.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        ModelSpec { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the spec has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer specs in model order (the binary artifact writer walks
    /// these to collect tensors).
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Converts into a live [`Sequential`].
    pub fn into_sequential(self) -> Sequential {
        Sequential::new(self.layers.into_iter().map(LayerSpec::into_layer).collect())
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Propagates serde failures.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Propagates serde failures.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Extracts a serializable spec from a live model by downcasting each
/// layer to the known types (weights included, via a serde round trip of
/// each layer).
///
/// # Errors
///
/// Returns a message naming the offending position if the model contains
/// a layer type this enum does not know, or if serde fails.
pub fn spec_of(model: &Sequential) -> Result<ModelSpec, String> {
    fn clone_via_serde<T: Serialize + serde::de::DeserializeOwned>(layer: &T) -> Result<T, String> {
        let json = serde_json::to_string(layer).map_err(|e| e.to_string())?;
        serde_json::from_str(&json).map_err(|e| e.to_string())
    }
    let mut specs = Vec::with_capacity(model.len());
    for (i, layer) in model.layers().iter().enumerate() {
        let any = layer.as_any();
        let spec = if let Some(d) = any.downcast_ref::<Dense>() {
            LayerSpec::Dense(clone_via_serde(d)?)
        } else if let Some(c) = any.downcast_ref::<Conv1d>() {
            LayerSpec::Conv1d(clone_via_serde(c)?)
        } else if let Some(c) = any.downcast_ref::<Conv2d>() {
            LayerSpec::Conv2d(clone_via_serde(c)?)
        } else if let Some(p) = any.downcast_ref::<MaxPool1d>() {
            LayerSpec::MaxPool1d(clone_via_serde(p)?)
        } else if let Some(p) = any.downcast_ref::<MaxPool2d>() {
            LayerSpec::MaxPool2d(clone_via_serde(p)?)
        } else if let Some(d) = any.downcast_ref::<Dropout>() {
            LayerSpec::Dropout(clone_via_serde(d)?)
        } else {
            return Err(format!("layer {i} has an unknown type"));
        };
        specs.push(spec);
    }
    Ok(ModelSpec::new(specs))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Activation;
    use crate::matrix::Matrix;
    use crate::{Loss, TrainConfig, Trainer};

    fn trained_model() -> Sequential {
        let mut model = Sequential::new(vec![
            Box::new(Dense::new(2, 8, Activation::Relu, 7)),
            Box::new(Dense::new(8, 2, Activation::Linear, 8)),
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

    /// Round-trips a trained dense stack and checks the restored model
    /// predicts identically. The spec is built by re-serializing the
    /// individual layers out of the trained model via serde.
    #[test]
    fn trained_dense_stack_round_trips_through_json() {
        let mut model = trained_model();
        // Extract weights by visiting, rebuild an identical spec model,
        // then copy weights in — exercising visit_params order stability.
        let spec_model = ModelSpec::new(vec![
            Dense::new(2, 8, Activation::Relu, 7).into(),
            Dense::new(8, 2, Activation::Linear, 8).into(),
        ]);
        let json = spec_model.to_json().unwrap();
        let mut restored = ModelSpec::from_json(&json).unwrap().into_sequential();

        // Transfer the trained parameters.
        let mut trained_params: Vec<Vec<f32>> = Vec::new();
        model.visit_params(&mut |p, _| trained_params.push(p.to_vec()));
        let mut i = 0;
        restored.visit_params(&mut |p, _| {
            p.copy_from_slice(&trained_params[i]);
            i += 1;
        });

        let probe = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        assert_eq!(
            restored.predict(&probe).data(),
            model.predict(&probe).data()
        );
    }

    #[test]
    fn conv_stack_survives_serialization() {
        let spec = ModelSpec::new(vec![
            Conv1d::new(1, 4, 3, 16, true, 3).into(),
            MaxPool1d::new(4, 16, 2).into(),
            Dropout::new(0.25, 4).into(),
            Dense::new(4 * 8, 2, Activation::Linear, 5).into(),
        ]);
        let json = spec.to_json().unwrap();
        let restored = ModelSpec::from_json(&json).unwrap().into_sequential();
        let y = restored.predict(&Matrix::zeros(2, 16));
        assert_eq!((y.rows(), y.cols()), (2, 2));
    }

    #[test]
    fn conv2d_stack_survives_serialization() {
        let spec = ModelSpec::new(vec![
            Conv2d::new(1, 2, 3, 8, 8, true, 1).into(),
            MaxPool2d::new(2, 8, 8, 2).into(),
            Dense::new(2 * 4 * 4, 3, Activation::Linear, 2).into(),
        ]);
        let json = spec.to_json().unwrap();
        let restored = ModelSpec::from_json(&json).unwrap().into_sequential();
        let y = restored.predict(&Matrix::zeros(1, 64));
        assert_eq!(y.cols(), 3);
    }

    #[test]
    fn restored_model_is_trainable() {
        // rebuild_buffers must leave the model ready for more training.
        let spec = ModelSpec::new(vec![Dense::new(1, 1, Activation::Linear, 9).into()]);
        let mut model = ModelSpec::from_json(&spec.to_json().unwrap())
            .unwrap()
            .into_sequential();
        let x = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 300,
            batch_size: 4,
            learning_rate: 0.05,
            seed: 2,
            target_loss: Some(1e-4),
            ..TrainConfig::default()
        });
        let h = trainer.fit(&mut model, &x, &x, Loss::Mse);
        assert!(h.final_loss() < 1e-3, "loss {}", h.final_loss());
    }

    #[test]
    fn spec_of_round_trips_a_trained_model() {
        let model = trained_model();
        let spec = spec_of(&model).unwrap();
        let restored = spec.into_sequential();
        let probe = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        assert_eq!(
            restored.predict(&probe).data(),
            model.predict(&probe).data()
        );
    }

    #[test]
    fn spec_of_handles_every_layer_kind() {
        let model = Sequential::new(vec![
            Box::new(Conv1d::new(1, 2, 3, 8, true, 1)),
            Box::new(MaxPool1d::new(2, 8, 2)),
            Box::new(Conv2d::new(1, 1, 3, 2, 2, false, 2)),
            Box::new(MaxPool2d::new(1, 2, 2, 2)),
            Box::new(Dropout::new(0.5, 3)),
            Box::new(Dense::new(1, 1, Activation::Linear, 4)),
        ]);
        let spec = spec_of(&model).unwrap();
        assert_eq!(spec.len(), 6);
    }

    #[test]
    fn empty_spec_is_empty_model() {
        let spec = ModelSpec::default();
        assert!(spec.is_empty());
        assert_eq!(spec.into_sequential().len(), 0);
    }
}
