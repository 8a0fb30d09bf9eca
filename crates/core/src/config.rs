//! Configuration for the full Soteria system.

use serde::{Deserialize, Serialize};
use soteria_features::ExtractorConfig;
use soteria_resilience::ResourceGuards;

/// Auto-encoder detector hyperparameters.
///
/// The paper's architecture is 1000 → 2000 → 3000 → 2000 → 1000 (three
/// ReLU hidden layers, linear output) trained for 100 epochs at batch 128;
/// `hidden` holds the three hidden widths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Hidden layer widths (the paper: `[2000, 3000, 2000]`).
    pub hidden: [usize; 3],
    /// Training epochs (paper: 100).
    pub epochs: usize,
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Threshold multiplier α in `T_h = μ(RE) + α·σ(RE)` (paper: 1).
    pub alpha: f64,
    /// Fraction of the clean training set held out from auto-encoder
    /// fitting and used only to compute the threshold statistics. The
    /// paper computes RE over the training samples themselves (equivalent
    /// to 0.0); a small hold-out keeps μ and σ honest when the corpus is
    /// small enough for the auto-encoder to memorize it.
    pub validation_fraction: f64,
}

/// CNN classifier hyperparameters.
///
/// The paper: two convolutional blocks (two conv layers of 46 filters of
/// size 1×3 each, max-pool `s = m = 2`, dropout 0.25), a dense block with
/// dropout 0.5, and a softmax over the four classes; 100 epochs, batch 128.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Filters in the first conv block (paper: 46).
    pub filters1: usize,
    /// Filters in the second conv block (paper doubles: 92).
    pub filters2: usize,
    /// Width of the dense layer before the softmax.
    pub dense: usize,
    /// Dropout after each conv block (paper: 0.25).
    pub conv_dropout: f64,
    /// Dropout before the softmax (paper: 0.5).
    pub dense_dropout: f64,
    /// Training epochs (paper: 100).
    pub epochs: usize,
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoteriaConfig {
    /// Feature extraction parameters.
    pub extractor: ExtractorConfig,
    /// Detector parameters.
    pub detector: DetectorConfig,
    /// Classifier parameters.
    pub classifier: ClassifierConfig,
    /// Number of classes (benign + three families).
    pub classes: usize,
    /// Per-sample resource limits enforced during analysis. Defaults are
    /// orders of magnitude above any legitimate sample, so they only trip
    /// on pathological or adversarial inputs. Absent from configs saved
    /// before this field existed (serde default).
    #[serde(default)]
    pub guards: ResourceGuards,
}

impl SoteriaConfig {
    /// The paper's exact hyperparameters. Expect hours of CPU time at
    /// corpus scale — use [`SoteriaConfig::evaluation`] for routine runs.
    pub fn paper() -> Self {
        SoteriaConfig {
            extractor: ExtractorConfig::default(),
            detector: DetectorConfig {
                hidden: [2000, 3000, 2000],
                epochs: 100,
                batch_size: 128,
                learning_rate: 1e-3,
                alpha: 1.0,
                validation_fraction: 0.0,
            },
            classifier: ClassifierConfig {
                filters1: 46,
                filters2: 92,
                dense: 512,
                conv_dropout: 0.25,
                dense_dropout: 0.5,
                epochs: 100,
                batch_size: 128,
                learning_rate: 1e-3,
            },
            classes: 4,
            guards: ResourceGuards::default(),
        }
    }

    /// The scaled evaluation preset: all protocol details intact (two
    /// labelings, ten walks, 2/3/4-grams, μ+α·σ threshold, majority
    /// voting) with reduced widths and epochs so the full table/figure
    /// suite runs in minutes on a laptop. EXPERIMENTS.md records which
    /// preset produced each reported number.
    pub fn evaluation() -> Self {
        SoteriaConfig {
            extractor: ExtractorConfig {
                walk_multiplier: 5,
                walks_per_labeling: 10,
                ngram_sizes: vec![2, 3, 4],
                top_k: 192,
            },
            detector: DetectorConfig {
                hidden: [384, 576, 384],
                epochs: 80,
                batch_size: 64,
                learning_rate: 1e-3,
                alpha: 1.0,
                validation_fraction: 0.15,
            },
            classifier: ClassifierConfig {
                filters1: 8,
                filters2: 16,
                dense: 64,
                conv_dropout: 0.25,
                dense_dropout: 0.5,
                epochs: 24,
                batch_size: 64,
                learning_rate: 1e-3,
            },
            classes: 4,
            guards: ResourceGuards::default(),
        }
    }

    /// A minimal preset for unit tests.
    pub fn tiny() -> Self {
        SoteriaConfig {
            extractor: ExtractorConfig {
                walk_multiplier: 5,
                walks_per_labeling: 6,
                ngram_sizes: vec![2, 3],
                top_k: 64,
            },
            detector: DetectorConfig {
                hidden: [96, 128, 96],
                epochs: 30,
                batch_size: 16,
                learning_rate: 2e-3,
                alpha: 1.0,
                validation_fraction: 0.25,
            },
            classifier: ClassifierConfig {
                filters1: 4,
                filters2: 8,
                dense: 24,
                conv_dropout: 0.1,
                dense_dropout: 0.2,
                epochs: 20,
                batch_size: 16,
                learning_rate: 3e-3,
            },
            classes: 4,
            guards: ResourceGuards::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_published_architecture() {
        let c = SoteriaConfig::paper();
        assert_eq!(c.extractor.top_k, 500);
        assert_eq!(c.extractor.walk_multiplier, 5);
        assert_eq!(c.extractor.walks_per_labeling, 10);
        assert_eq!(c.detector.hidden, [2000, 3000, 2000]);
        assert_eq!(c.detector.epochs, 100);
        assert_eq!(c.detector.batch_size, 128);
        assert_eq!(c.detector.alpha, 1.0);
        assert_eq!(c.classifier.filters1, 46);
        assert_eq!(c.classes, 4);
    }

    #[test]
    fn scaled_presets_keep_protocol_shape() {
        for c in [SoteriaConfig::evaluation(), SoteriaConfig::tiny()] {
            // The randomization protocol is never scaled away.
            assert!(c.extractor.walks_per_labeling >= 2);
            assert!(c.extractor.ngram_sizes.contains(&2));
            assert_eq!(c.detector.alpha, 1.0);
            assert_eq!(c.classes, 4);
            // AE keeps the 1:2-ish:3-ish:2-ish:1 bottleneck-free shape.
            assert!(c.detector.hidden[1] >= c.detector.hidden[0]);
            assert!(c.detector.hidden[1] >= c.detector.hidden[2]);
        }
    }

    #[test]
    fn presets_serialize_round_trip() {
        let c = SoteriaConfig::evaluation();
        let json = serde_json::to_string(&c).unwrap();
        let back: SoteriaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
