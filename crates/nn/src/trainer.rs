//! The mini-batch training loop: one epoch loop,
//! [`Trainer::fit_resumable`], which [`Trainer::fit`] runs with no resume
//! and no checkpoints. Training uses [`Adam`]. A checkpoint is a clone of
//! the model and of the optimizer, so taking one costs a memory copy;
//! serde runs only when a checkpoint is written or read.

use crate::layer::Layer;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::model::Sequential;
use crate::optimizer::Adam;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::{ChaCha8Rng, ChaChaState};
use serde::{Deserialize, Serialize};

/// Training hyperparameters. The paper trains for 100 epochs with batch
/// size 128 using Adam; the defaults mirror that.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// If set, training stops early once the epoch loss drops below this.
    pub target_loss: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 128,
            learning_rate: 1e-3,
            seed: 0,
            target_loss: None,
        }
    }
}

/// Per-epoch training trace returned by [`Trainer::fit`]. All three
/// vectors are indexed by epoch and have equal lengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Mean batch loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock time per epoch, in milliseconds.
    pub epoch_times_ms: Vec<f64>,
    /// Mean per-batch gradient L2 norm per epoch (over all trainable
    /// parameters, measured after `backward`, before the optimizer step).
    pub epoch_grad_norms: Vec<f32>,
}

impl TrainingHistory {
    /// Loss of the last completed epoch (∞ if no epoch ran).
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::INFINITY)
    }

    /// Total wall-clock training time in milliseconds.
    pub fn total_time_ms(&self) -> f64 {
        self.epoch_times_ms.iter().sum()
    }

    /// Gradient norm of the last completed epoch (0 if no epoch ran).
    pub fn final_grad_norm(&self) -> f32 {
        self.epoch_grad_norms.last().copied().unwrap_or(0.0)
    }
}

/// A serializable mirror of the ChaCha8 generator position (the shim's
/// [`ChaChaState`] kept serde-free so checkpoints own the serialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// Key words derived from the seed.
    pub key: [u32; 8],
    /// Block counter after the last refill.
    pub counter: u64,
    /// Stream id.
    pub stream: u64,
    /// Next unread word within the current block.
    pub index: u8,
}

impl RngState {
    /// Captures the exact position of `rng`.
    pub fn capture(rng: &ChaCha8Rng) -> Self {
        let s = rng.state();
        RngState {
            key: s.key,
            counter: s.counter,
            stream: s.stream,
            index: s.index,
        }
    }

    /// Reconstructs the generator; its next output is bit-identical to
    /// what the captured generator would have produced.
    pub fn restore(&self) -> ChaCha8Rng {
        ChaCha8Rng::from_state(ChaChaState {
            key: self.key,
            counter: self.counter,
            stream: self.stream,
            index: self.index,
        })
    }
}

/// Everything needed to continue an interrupted [`Trainer::fit_resumable`]
/// run and produce the bit-identical final model: the model weights, the
/// optimizer's buffers, the shuffle generator position, and the current
/// epoch permutation (each epoch shuffles the previous epoch's order, so
/// the permutation itself is part of the state).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainerCheckpoint {
    /// Number of fully completed epochs.
    pub epochs_done: usize,
    /// Sample order as of the end of the last completed epoch.
    pub order: Vec<usize>,
    /// Model weights and buffers.
    pub model: Sequential,
    /// Adam's step count and moments.
    pub optimizer: Adam,
    /// Shuffle-RNG position.
    pub rng: RngState,
    /// History of the completed epochs.
    pub history: TrainingHistory,
}

impl TrainerCheckpoint {
    /// Checks that this checkpoint can continue a fit of `model` over
    /// `rows` samples: the checkpointed network has `model`'s architecture
    /// ([`Sequential::check_architecture`]), every optimizer buffer has the
    /// length of its parameter tensor, and `order` is a permutation of the
    /// rows. A checkpoint that fails would panic mid-fit or silently train
    /// a different model.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first mismatch.
    pub fn check_fits(&self, model: &mut Sequential, rows: usize) -> Result<(), String> {
        self.model.check_architecture(model)?;
        let mut param_lens = Vec::new();
        model.visit_params(&mut |params, _| param_lens.push(params.len()));
        self.optimizer.check_fits(&param_lens)?;
        if self.order.len() != rows {
            return Err(format!(
                "checkpoint was taken on {} samples, dataset has {rows}",
                self.order.len()
            ));
        }
        let mut seen = vec![false; rows];
        for &row in &self.order {
            match seen.get_mut(row) {
                None => return Err(format!("sample order row {row} is out of range")),
                Some(true) => return Err(format!("sample order repeats row {row}")),
                Some(seen) => *seen = true,
            }
        }
        Ok(())
    }
}

/// Drives mini-batch gradient descent over a model with [`Adam`].
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    optimizer: Adam,
}

impl Trainer {
    /// Creates a trainer with a fresh optimizer.
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            config,
            optimizer: Adam::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Fits `model` to `(inputs, targets)` and returns the loss history:
    /// [`fit_resumable`](Trainer::fit_resumable) with no resume and no
    /// checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `targets` row counts differ or the batch size
    /// is zero.
    pub fn fit(
        &mut self,
        model: &mut Sequential,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
    ) -> TrainingHistory {
        self.fit_resumable(model, inputs, targets, loss, None, 0, &mut |_| Ok(()))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The training loop: [`fit`](Trainer::fit), checkpointable. After
    /// every `checkpoint_every` completed epochs (0 = never) a
    /// [`TrainerCheckpoint`] is handed to `sink`, and passing a previous
    /// checkpoint as `resume` continues training from exactly that point —
    /// the final model is bit-identical to an uninterrupted run. The
    /// checkpoint must fit `model` and the dataset
    /// ([`TrainerCheckpoint::check_fits`]); it then replaces `model`.
    ///
    /// # Errors
    ///
    /// Fails if the inputs are inconsistent, the resume checkpoint does not
    /// fit this dataset/model, or `sink` reports a write failure.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_resumable(
        &mut self,
        model: &mut Sequential,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
        resume: Option<TrainerCheckpoint>,
        checkpoint_every: usize,
        sink: &mut dyn FnMut(TrainerCheckpoint) -> Result<(), String>,
    ) -> Result<TrainingHistory, String> {
        if inputs.rows() != targets.rows() {
            return Err(format!(
                "inputs/targets mismatch: {} vs {} rows",
                inputs.rows(),
                targets.rows()
            ));
        }
        if self.config.batch_size == 0 {
            return Err("batch size must be positive".to_owned());
        }
        let _span = soteria_telemetry::span("nn.fit");
        let n = inputs.rows();

        let (start_epoch, mut order, mut rng, mut history) = match resume {
            Some(ckpt) => {
                ckpt.check_fits(model, n)?;
                if ckpt.epochs_done > self.config.epochs {
                    return Err(format!(
                        "checkpoint has {} epochs done, config allows {}",
                        ckpt.epochs_done, self.config.epochs
                    ));
                }
                *model = ckpt.model;
                self.optimizer = ckpt.optimizer;
                (
                    ckpt.epochs_done,
                    ckpt.order,
                    ckpt.rng.restore(),
                    ckpt.history,
                )
            }
            None => (
                0,
                (0..n).collect(),
                ChaCha8Rng::seed_from_u64(self.config.seed),
                TrainingHistory {
                    epoch_losses: Vec::with_capacity(self.config.epochs),
                    epoch_times_ms: Vec::with_capacity(self.config.epochs),
                    epoch_grad_norms: Vec::with_capacity(self.config.epochs),
                },
            ),
        };

        let (mut x, mut t) = (Matrix::default(), Matrix::default());
        for epoch in start_epoch..self.config.epochs {
            let epoch_start = std::time::Instant::now();
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut grad_norm_sum = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                inputs.select_rows_into(chunk, &mut x);
                targets.select_rows_into(chunk, &mut t);
                let y = model.forward(&x);
                let (batch_loss, grad) = loss.compute(&y, &t);
                model.backward_discard(&grad);
                grad_norm_sum += grad_l2_norm(model);
                self.optimizer.step(model, self.config.learning_rate);
                epoch_loss += f64::from(batch_loss);
                batches += 1;
            }
            let mean = (epoch_loss / batches.max(1) as f64) as f32;
            history.epoch_losses.push(mean);
            history
                .epoch_times_ms
                .push(epoch_start.elapsed().as_secs_f64() * 1e3);
            history
                .epoch_grad_norms
                .push((grad_norm_sum / batches.max(1) as f64) as f32);
            soteria_telemetry::record("nn.epoch", epoch_start.elapsed().as_secs_f64() * 1e3);
            soteria_telemetry::counter("nn.epochs", 1);
            let stop = self.config.target_loss.is_some_and(|target| mean < target);
            if checkpoint_every > 0 && (epoch + 1) % checkpoint_every == 0 && !stop {
                let ckpt = TrainerCheckpoint {
                    epochs_done: epoch + 1,
                    order: order.clone(),
                    model: model.clone(),
                    optimizer: self.optimizer.clone(),
                    rng: RngState::capture(&rng),
                    history: history.clone(),
                };
                soteria_telemetry::counter("nn.checkpoints", 1);
                sink(ckpt)?;
            }
            if stop {
                break;
            }
        }
        Ok(history)
    }
}

/// L2 norm of the concatenated parameter gradients of `model`.
fn grad_l2_norm(model: &mut dyn Layer) -> f64 {
    let mut sum_sq = 0.0f64;
    model.visit_params(&mut |_, grads| {
        sum_sq += grads
            .iter()
            .map(|&g| f64::from(g) * f64::from(g))
            .sum::<f64>();
    });
    sum_sq.sqrt()
}

/// Argmax over each row — the predicted class per sample.
pub fn argmax_rows(m: &Matrix) -> Vec<usize> {
    (0..m.rows())
        .map(|r| {
            m.row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("non-empty row")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{Activation, Dense};
    use crate::model::Sequential;

    fn xor_data() -> (Matrix, Matrix) {
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let t = crate::loss::one_hot(&[0, 1, 1, 0], 2);
        (x, t)
    }

    #[test]
    fn learns_xor() {
        let mut model = Sequential::new(vec![
            Dense::new(2, 16, Activation::Relu, 7).into(),
            Dense::new(16, 2, Activation::Linear, 8).into(),
        ]);
        let (x, t) = xor_data();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 500,
            batch_size: 4,
            learning_rate: 0.01,
            seed: 1,
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut model, &x, &t, Loss::SoftmaxCrossEntropy);
        assert!(history.final_loss() < 0.1, "loss {}", history.final_loss());
        let preds = argmax_rows(&model.predict(&x));
        assert_eq!(preds, vec![0, 1, 1, 0]);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut model = Sequential::new(vec![Dense::new(2, 2, Activation::Linear, 3).into()]);
        let (x, t) = xor_data(); // not separable, but loss still drops from init
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 2,
            learning_rate: 0.05,
            seed: 2,
            ..TrainConfig::default()
        });
        let h = trainer.fit(&mut model, &x, &t, Loss::SoftmaxCrossEntropy);
        assert!(h.final_loss() < h.epoch_losses[0]);
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut model = Sequential::new(vec![
                Dense::new(2, 8, Activation::Relu, 7).into(),
                Dense::new(8, 2, Activation::Linear, 8).into(),
            ]);
            let (x, t) = xor_data();
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 20,
                batch_size: 2,
                learning_rate: 0.01,
                seed: 5,
                ..TrainConfig::default()
            });
            trainer.fit(&mut model, &x, &t, Loss::SoftmaxCrossEntropy)
        };
        assert_eq!(run().epoch_losses, run().epoch_losses);
    }

    #[test]
    fn early_stopping_respects_target_loss() {
        let mut model = Sequential::new(vec![
            Dense::new(2, 16, Activation::Relu, 7).into(),
            Dense::new(16, 2, Activation::Linear, 8).into(),
        ]);
        let (x, t) = xor_data();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 10_000,
            batch_size: 4,
            learning_rate: 0.01,
            seed: 1,
            target_loss: Some(0.2),
        });
        let h = trainer.fit(&mut model, &x, &t, Loss::SoftmaxCrossEntropy);
        assert!(h.epoch_losses.len() < 10_000);
        assert!(h.final_loss() < 0.2);
    }

    #[test]
    fn history_tracks_time_and_gradients_per_epoch() {
        let mut model = Sequential::new(vec![
            Dense::new(2, 8, Activation::Relu, 7).into(),
            Dense::new(8, 2, Activation::Linear, 8).into(),
        ]);
        let (x, t) = xor_data();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 12,
            batch_size: 2,
            learning_rate: 0.01,
            seed: 5,
            ..TrainConfig::default()
        });
        let h = trainer.fit(&mut model, &x, &t, Loss::SoftmaxCrossEntropy);
        assert_eq!(h.epoch_losses.len(), 12);
        assert_eq!(h.epoch_times_ms.len(), 12);
        assert_eq!(h.epoch_grad_norms.len(), 12);
        assert!(h.epoch_times_ms.iter().all(|&t| t >= 0.0));
        assert!(h.total_time_ms() >= h.epoch_times_ms[0]);
        // A net mid-training has nonzero, finite gradients.
        assert!(h.epoch_grad_norms.iter().all(|&g| g > 0.0 && g.is_finite()));
        assert!(h.final_grad_norm() > 0.0);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }

    fn dropout_model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Dense::new(2, 16, Activation::Relu, seed).into(),
            crate::dropout::Dropout::new(0.2, seed ^ 0xD0).into(),
            Dense::new(16, 2, Activation::Linear, seed ^ 1).into(),
        ])
    }

    fn model_json(model: &Sequential) -> String {
        serde_json::to_string(model).expect("serializes")
    }

    #[test]
    fn fit_resumable_without_resume_matches_fit() {
        let (x, t) = xor_data();
        let config = TrainConfig {
            epochs: 9,
            batch_size: 2,
            learning_rate: 0.01,
            seed: 5,
            ..TrainConfig::default()
        };
        let mut plain = dropout_model(7);
        let h_plain =
            Trainer::new(config.clone()).fit(&mut plain, &x, &t, Loss::SoftmaxCrossEntropy);
        let mut resumable = dropout_model(7);
        let h_res = Trainer::new(config)
            .fit_resumable(
                &mut resumable,
                &x,
                &t,
                Loss::SoftmaxCrossEntropy,
                None,
                0,
                &mut |_| Ok(()),
            )
            .expect("fit_resumable");
        assert_eq!(h_plain.epoch_losses, h_res.epoch_losses);
        assert_eq!(model_json(&plain), model_json(&resumable));
    }

    #[test]
    fn resume_reproduces_uninterrupted_training_exactly() {
        let (x, t) = xor_data();
        let config = TrainConfig {
            epochs: 10,
            batch_size: 2,
            learning_rate: 0.01,
            seed: 3,
            ..TrainConfig::default()
        };

        // Uninterrupted run, checkpointing every 4 epochs.
        let mut full = dropout_model(11);
        let mut checkpoints: Vec<TrainerCheckpoint> = Vec::new();
        let h_full = Trainer::new(config.clone())
            .fit_resumable(
                &mut full,
                &x,
                &t,
                Loss::SoftmaxCrossEntropy,
                None,
                4,
                &mut |c| {
                    checkpoints.push(c);
                    Ok(())
                },
            )
            .expect("full run");
        assert_eq!(checkpoints.len(), 2); // after epochs 4 and 8

        // Simulated kill after epoch 4: resume from the first checkpoint
        // (round-tripped through JSON, as a real restart would see it).
        let ckpt = serde_json::from_str::<TrainerCheckpoint>(
            &serde_json::to_string(&checkpoints[0]).expect("serialize"),
        )
        .expect("deserialize");
        assert_eq!(ckpt.epochs_done, 4);
        let mut resumed = dropout_model(999); // overwritten by the checkpoint
        let h_resumed = Trainer::new(config)
            .fit_resumable(
                &mut resumed,
                &x,
                &t,
                Loss::SoftmaxCrossEntropy,
                Some(ckpt),
                0,
                &mut |_| Ok(()),
            )
            .expect("resumed run");

        assert_eq!(h_full.epoch_losses, h_resumed.epoch_losses);
        assert_eq!(model_json(&full), model_json(&resumed));
    }

    #[test]
    fn resume_rejects_mismatched_dataset() {
        let (x, t) = xor_data();
        let mut model = dropout_model(1);
        let mut checkpoints = Vec::new();
        let _ = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 2,
            seed: 1,
            ..TrainConfig::default()
        })
        .fit_resumable(
            &mut model,
            &x,
            &t,
            Loss::SoftmaxCrossEntropy,
            None,
            1,
            &mut |c| {
                checkpoints.push(c);
                Ok(())
            },
        )
        .expect("train");
        let ckpt = checkpoints.remove(0);
        let bigger_x = Matrix::zeros(6, 2);
        let bigger_t = crate::loss::one_hot(&[0, 1, 0, 1, 0, 1], 2);
        let err = Trainer::new(TrainConfig::default())
            .fit_resumable(
                &mut model,
                &bigger_x,
                &bigger_t,
                Loss::SoftmaxCrossEntropy,
                Some(ckpt),
                0,
                &mut |_| Ok(()),
            )
            .unwrap_err();
        assert!(err.contains("samples"), "unexpected error: {err}");
    }

    #[test]
    fn sink_failure_aborts_training() {
        let (x, t) = xor_data();
        let mut model = dropout_model(2);
        let err = Trainer::new(TrainConfig {
            epochs: 5,
            batch_size: 2,
            seed: 1,
            ..TrainConfig::default()
        })
        .fit_resumable(
            &mut model,
            &x,
            &t,
            Loss::SoftmaxCrossEntropy,
            None,
            1,
            &mut |_| Err("disk full".to_owned()),
        )
        .unwrap_err();
        assert!(err.contains("disk full"));
    }

    #[test]
    #[should_panic(expected = "inputs/targets mismatch")]
    fn mismatched_rows_panic() {
        let mut model = Sequential::new(vec![]);
        let mut trainer = Trainer::new(TrainConfig::default());
        let _ = trainer.fit(
            &mut model,
            &Matrix::zeros(2, 1),
            &Matrix::zeros(3, 1),
            Loss::Mse,
        );
    }
}
