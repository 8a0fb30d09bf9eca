//! A from-scratch neural-network substrate for the Soteria reproduction.
//!
//! The paper trains its models in a mainstream DL framework; this crate
//! provides the minimal equivalent in pure Rust, sufficient for the two
//! architectures Soteria uses and the baselines it compares against:
//!
//! * dense (fully connected) layers — the AE detector
//!   (1000→2000→3000→2000→1000),
//! * 1-D convolutions, max-pooling and dropout — the CNN classifiers,
//! * ReLU activations, softmax + cross-entropy, and MSE/RMSE losses,
//! * the Adam optimizer,
//! * a mini-batch trainer with deterministic shuffling.
//!
//! A network is one value, a [`Sequential`] of [`LayerSpec`]s (the closed
//! set of layer kinds above). A clone of it is a snapshot, and serde gives
//! it the JSON form that training checkpoints carry.
//!
//! Everything is `f32`, row-major, and seeded: two runs with the same seed
//! produce bit-identical models.
//!
//! # Example
//!
//! ```
//! use soteria_nn::{Dense, Activation, Sequential, Matrix, Trainer, TrainConfig, Loss};
//!
//! // Learn y = x on 1-D data — a smoke test of the full training loop.
//! let mut model = Sequential::new(vec![
//!     Dense::new(1, 8, Activation::Relu, 1).into(),
//!     Dense::new(8, 1, Activation::Linear, 2).into(),
//! ]);
//! let x = Matrix::from_rows(&[vec![0.0], vec![0.25], vec![0.5], vec![1.0]]);
//! let y = x.clone();
//! let mut trainer = Trainer::new(TrainConfig {
//!     epochs: 200,
//!     batch_size: 4,
//!     learning_rate: 0.05,
//!     seed: 3,
//!     ..TrainConfig::default()
//! });
//! let history = trainer.fit(&mut model, &x, &y, Loss::Mse);
//! assert!(history.final_loss() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod backend;
pub mod conv;
pub mod conv2d;
pub mod dense;
pub mod dropout;
pub mod init;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod model;
pub mod optimizer;
pub mod pool;
pub mod simd;
pub mod trainer;

pub use conv::Conv1d;
pub use conv2d::{Conv2d, MaxPool2d};
pub use dense::{Activation, Dense};
pub use dropout::Dropout;
pub use layer::{Layer, LayerSpec};
pub use loss::Loss;
pub use matrix::Matrix;
pub use model::Sequential;
pub use optimizer::Adam;
pub use pool::MaxPool1d;
pub use trainer::{RngState, TrainConfig, Trainer, TrainerCheckpoint, TrainingHistory};
