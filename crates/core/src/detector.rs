//! The adversarial-example detector: an auto-encoder over combined
//! DBL+LBL feature vectors with a reconstruction-error threshold.
//!
//! The detector is trained **only on clean samples** (the paper argues
//! training on AEs would bias it toward specific attacks). At test time a
//! sample's combined feature vector is reconstructed; if the RMSE between
//! input and reconstruction exceeds `T_h = μ(RE) + α·σ(RE)` — statistics
//! of the clean training set, α = 1 — the sample is declared adversarial
//! and never reaches the classifier.

use crate::checkpoint::StageCheckpoint;
use crate::config::DetectorConfig;
use crate::pipeline::balance_repeats;
use serde::{Deserialize, Serialize};
use soteria_nn::{loss::rmse_per_row, Activation, Dense, Loss, Matrix, Sequential, TrainConfig};

/// A trained auto-encoder detector.
#[derive(Debug)]
pub struct AeDetector {
    autoencoder: Sequential,
    stats: ThresholdStats,
    config: DetectorConfig,
}

/// Clean-training reconstruction-error statistics and the derived
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdStats {
    /// Mean reconstruction error over clean training samples.
    pub mean: f64,
    /// Standard deviation of the training reconstruction errors.
    pub std_dev: f64,
    /// The α used for the active threshold.
    pub alpha: f64,
}

impl ThresholdStats {
    /// The threshold at this α.
    pub fn threshold(&self) -> f64 {
        self.mean + self.alpha * self.std_dev
    }

    /// The threshold at an alternative α (Fig. 13 sweeps α from 0 to 2).
    pub fn threshold_at(&self, alpha: f64) -> f64 {
        self.mean + alpha * self.std_dev
    }
}

fn build_autoencoder(input_dim: usize, hidden: [usize; 3], seed: u64) -> Sequential {
    Sequential::new(vec![
        Dense::new(input_dim, hidden[0], Activation::Relu, seed).into(),
        Dense::new(hidden[0], hidden[1], Activation::Relu, seed ^ 0x1).into(),
        Dense::new(hidden[1], hidden[2], Activation::Relu, seed ^ 0x2).into(),
        Dense::new(hidden[2], input_dim, Activation::Linear, seed ^ 0x3).into(),
    ])
}

/// Splits a detector fit's rows, as indices into its feature vectors,
/// into the class-balanced fit rows ([`balance_repeats`]) and the
/// held-out rows the threshold statistics come from. Every k-th sample is
/// held out, so memorized training errors do not deflate μ and σ; with
/// `validation_fraction = 0` (the paper's protocol) none is.
fn split_rows(config: &DetectorConfig, labels: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let val_every = if config.validation_fraction > 0.0 {
        ((1.0 / config.validation_fraction).round() as usize).max(2)
    } else {
        usize::MAX
    };
    let is_val = |i: usize| val_every != usize::MAX && i % val_every == val_every - 1;
    let classes = labels.iter().max().map_or(1, |&m| m + 1);
    let fit_labels = labels.iter().enumerate().filter(|&(i, _)| !is_val(i));
    let repeat = balance_repeats(fit_labels.map(|(_, &l)| l), classes);
    let (mut fit, mut val) = (Vec::new(), Vec::new());
    for (i, &label) in labels.iter().enumerate() {
        if is_val(i) {
            val.push(i);
        } else {
            fit.extend(std::iter::repeat_n(i, repeat[label]));
        }
    }
    (fit, val)
}

/// The feature vectors at `rows`, stacked.
fn stack(features: &[Vec<f64>], rows: &[usize]) -> Matrix {
    let rows: Vec<&[f64]> = rows.iter().map(|&i| features[i].as_slice()).collect();
    Matrix::from_row_slices(&rows)
}

impl AeDetector {
    /// Trains the detector on clean combined feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if `clean_features` is empty or rows are ragged.
    pub fn train(config: &DetectorConfig, clean_features: &[Vec<f64>], seed: u64) -> Self {
        let labels = vec![0; clean_features.len()];
        Self::train_resumable(
            config,
            clean_features,
            &labels,
            seed,
            StageCheckpoint::Pending,
            0,
            &mut |_| Ok(()),
        )
        .expect("non-checkpointed detector training cannot fail")
    }

    /// Checks that `stage` fits the auto-encoder fit
    /// [`train_resumable`](AeDetector::train_resumable) runs on these
    /// vectors (see [`StageCheckpoint::check_fits`]).
    pub(crate) fn check_stage(
        config: &DetectorConfig,
        clean_features: &[Vec<f64>],
        labels: &[usize],
        seed: u64,
        stage: &StageCheckpoint,
    ) -> Result<(), String> {
        stage.check_fits(|| {
            let input_dim = clean_features[0].len();
            let rows = split_rows(config, labels).0.len();
            (build_autoencoder(input_dim, config.hidden, seed), rows)
        })
    }

    /// Trains the detector with per-sample class labels enabling
    /// class-balanced fitting: minority-class vectors are replicated so a
    /// heavily imbalanced corpus cannot starve the auto-encoder of a
    /// family's manifold. The fit runs from `stage`
    /// ([`StageCheckpoint::fit`]), and `sink` receives its checkpoints.
    /// Threshold statistics are recomputed from the data (they are a
    /// deterministic function of the final model), so they never need to
    /// live in a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when the checkpoint does not match this
    /// dataset or when `sink` fails.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths differ (caller bugs).
    pub(crate) fn train_resumable(
        config: &DetectorConfig,
        clean_features: &[Vec<f64>],
        labels: &[usize],
        seed: u64,
        stage: StageCheckpoint,
        checkpoint_every: usize,
        sink: &mut dyn FnMut(StageCheckpoint) -> Result<(), String>,
    ) -> Result<Self, String> {
        assert!(
            !clean_features.is_empty(),
            "detector needs training samples"
        );
        assert_eq!(
            clean_features.len(),
            labels.len(),
            "features/labels mismatch"
        );
        let (fit_rows, val_rows) = split_rows(config, labels);
        let x = stack(clean_features, &fit_rows);
        let mut autoencoder = build_autoencoder(x.cols(), config.hidden, seed);
        let train = TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            seed: seed ^ 0xDE7EC7,
            ..TrainConfig::default()
        };
        stage.fit(
            &mut autoencoder,
            &x,
            &x,
            Loss::Mse,
            train,
            checkpoint_every,
            sink,
        )?;

        // Threshold statistics over the held-out clean samples, or over
        // the fit rows when none are held out.
        let xs = if val_rows.is_empty() {
            x
        } else {
            stack(clean_features, &val_rows)
        };
        let reconstructed = autoencoder.predict(&xs);
        let errors = rmse_per_row(&reconstructed, &xs);
        let n = errors.len() as f64;
        let mean = errors.iter().sum::<f64>() / n;
        let var = errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
        Ok(AeDetector {
            autoencoder,
            stats: ThresholdStats {
                mean,
                std_dev: var.sqrt(),
                alpha: config.alpha,
            },
            config: config.clone(),
        })
    }

    /// Reassembles a detector from persisted parts.
    pub fn from_parts(
        autoencoder: Sequential,
        stats: ThresholdStats,
        config: DetectorConfig,
    ) -> Self {
        AeDetector {
            autoencoder,
            stats,
            config,
        }
    }

    /// The auto-encoder (used by model persistence).
    pub fn model(&self) -> &Sequential {
        &self.autoencoder
    }

    /// The fitted threshold statistics.
    pub fn stats(&self) -> ThresholdStats {
        self.stats
    }

    /// The training configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Reconstruction error (RMSE) of one combined feature vector.
    pub fn reconstruction_error(&self, features: &[f64]) -> f64 {
        let x = Matrix::from_rows(std::slice::from_ref(&features.to_vec()));
        let y = self.autoencoder.predict(&x);
        rmse_per_row(&y, &x)[0]
    }

    /// Reconstruction errors for borrowed vectors (the micro-batched
    /// serving path stacks many samples' combined vectors into one forward
    /// pass). Each result is bit-identical to
    /// [`reconstruction_error`](AeDetector::reconstruction_error) on the
    /// same row: every layer's forward pass is row-independent.
    pub fn reconstruction_errors_of(&self, rows: &[&[f64]]) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        let x = Matrix::from_row_slices(rows);
        let y = self.autoencoder.predict(&x);
        rmse_per_row(&y, &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn config() -> DetectorConfig {
        DetectorConfig {
            hidden: [24, 32, 24],
            epochs: 60,
            batch_size: 8,
            learning_rate: 2e-3,
            alpha: 1.0,
            validation_fraction: 0.25,
        }
    }

    /// Clean data: sparse vectors concentrated on the first half of the
    /// dimensions. Anomalies live on the second half.
    fn clean_data(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|d| {
                        if d < dim / 2 {
                            rng.gen_range(0.3..0.9)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn anomaly(dim: usize, seed: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..dim)
            .map(|d| {
                if d >= dim / 2 {
                    rng.gen_range(0.3..0.9)
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn clean_samples_reconstruct_below_threshold() {
        let data = clean_data(40, 16, 1);
        let det = AeDetector::train(&config(), &data, 3);
        let threshold = det.stats().threshold();
        let flagged = data
            .iter()
            .filter(|f| det.reconstruction_error(f) > threshold)
            .count();
        // μ+σ flags at most the upper tail of the training set itself.
        assert!(flagged <= data.len() / 4, "flagged {flagged}/40 clean");
    }

    #[test]
    fn off_manifold_samples_are_flagged() {
        let data = clean_data(40, 16, 2);
        let det = AeDetector::train(&config(), &data, 4);
        let ae = anomaly(16, 99);
        assert!(det.reconstruction_error(&ae) > det.stats().threshold());
    }

    #[test]
    fn threshold_is_mu_plus_alpha_sigma() {
        let data = clean_data(20, 8, 3);
        let det = AeDetector::train(&config(), &data, 5);
        let s = det.stats();
        assert!((s.threshold() - (s.mean + s.std_dev)).abs() < 1e-12);
        assert!((s.threshold_at(2.0) - (s.mean + 2.0 * s.std_dev)).abs() < 1e-12);
        assert!(s.std_dev >= 0.0);
    }

    #[test]
    fn alpha_zero_flags_more_than_alpha_two() {
        let data = clean_data(30, 16, 4);
        let det = AeDetector::train(&config(), &data, 6);
        let flagged_at = |det: &AeDetector, alpha: f64| {
            let threshold = det.stats().threshold_at(alpha);
            data.iter()
                .filter(|f| det.reconstruction_error(f) > threshold)
                .count()
        };
        let at0 = flagged_at(&det, 0.0);
        let at2 = flagged_at(&det, 2.0);
        assert!(at0 > at2, "α=0 flagged {at0}, α=2 flagged {at2}");
    }

    #[test]
    fn slice_batch_errors_are_bit_identical_to_single() {
        let data = clean_data(9, 8, 8);
        let det = AeDetector::train(&config(), &data, 9);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let batch = det.reconstruction_errors_of(&refs);
        for (i, f) in data.iter().enumerate() {
            assert_eq!(batch[i], det.reconstruction_error(f));
        }
        assert!(det.reconstruction_errors_of(&[]).is_empty());
    }

    #[test]
    fn training_is_deterministic() {
        let data = clean_data(12, 8, 6);
        let a = AeDetector::train(&config(), &data, 8).stats();
        let b = AeDetector::train(&config(), &data, 8).stats();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "training samples")]
    fn empty_training_set_panics() {
        let _ = AeDetector::train(&config(), &[], 0);
    }
}
