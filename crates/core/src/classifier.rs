//! The family classifier: two 1-D CNNs (one per labeling) combined by
//! majority voting over the twenty per-walk feature vectors.

use crate::checkpoint::StageCheckpoint;
use crate::config::ClassifierConfig;
use soteria_corpus::Family;
use soteria_features::{Labeling, SampleFeatures};
use soteria_nn::persist::spec_of;
use soteria_nn::{
    loss::one_hot, trainer::argmax_rows, Activation, Conv1d, Dense, Dropout, Loss, Matrix,
    MaxPool1d, Sequential, TrainConfig, Trainer,
};

/// Builds one CNN (the paper's ConvB1 → ConvB2 → CB stack) for inputs of
/// `input_len` features and `classes` outputs.
fn build_cnn(config: &ClassifierConfig, input_len: usize, classes: usize, seed: u64) -> Sequential {
    let l1 = input_len;
    let l1p = l1 / 2;
    let l2p = l1p / 2;
    Sequential::new(vec![
        // ConvB1: two conv layers, pool, dropout.
        Box::new(Conv1d::new(1, config.filters1, 3, l1, true, seed)),
        Box::new(Conv1d::new(
            config.filters1,
            config.filters1,
            3,
            l1,
            true,
            seed ^ 0x11,
        )),
        Box::new(MaxPool1d::new(config.filters1, l1, 2)),
        Box::new(Dropout::new(config.conv_dropout, seed ^ 0x21)),
        // ConvB2.
        Box::new(Conv1d::new(
            config.filters1,
            config.filters2,
            3,
            l1p,
            true,
            seed ^ 0x12,
        )),
        Box::new(Conv1d::new(
            config.filters2,
            config.filters2,
            3,
            l1p,
            true,
            seed ^ 0x13,
        )),
        Box::new(MaxPool1d::new(config.filters2, l1p, 2)),
        Box::new(Dropout::new(config.conv_dropout, seed ^ 0x22)),
        // CB: dense + dropout + softmax (softmax fused into the loss; the
        // final layer emits logits).
        Box::new(Dense::new(
            config.filters2 * l2p,
            config.dense,
            Activation::Relu,
            seed ^ 0x31,
        )),
        Box::new(Dropout::new(config.dense_dropout, seed ^ 0x23)),
        Box::new(Dense::new(
            config.dense,
            classes,
            Activation::Linear,
            seed ^ 0x32,
        )),
    ])
}

/// Per-sample classification detail: the vote tally and the labels the
/// individual models produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierReport {
    /// Votes per class across all 20 walk vectors.
    pub votes: Vec<usize>,
    /// Majority decision over DBL walks only.
    pub dbl_label: Family,
    /// Majority decision over LBL walks only.
    pub lbl_label: Family,
    /// Final majority decision over both.
    pub voted_label: Family,
}

/// The two-CNN voting classifier.
#[derive(Debug)]
pub struct FamilyClassifier {
    dbl_cnn: Sequential,
    lbl_cnn: Sequential,
    classes: usize,
    config: ClassifierConfig,
}

impl FamilyClassifier {
    /// Trains both CNNs. `features[i]` must pair with `labels[i]` (class
    /// indices in `0..classes`); every walk vector of a sample becomes one
    /// training row with the sample's label.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths mismatch.
    pub fn train(
        config: &ClassifierConfig,
        features: &[SampleFeatures],
        labels: &[usize],
        classes: usize,
        seed: u64,
    ) -> Self {
        Self::train_resumable(
            config,
            features,
            labels,
            classes,
            seed,
            [StageCheckpoint::Pending, StageCheckpoint::Pending],
            0,
            &mut |_, _| Ok(()),
        )
        .expect("non-checkpointed classifier training cannot fail")
    }

    /// Like [`train`](FamilyClassifier::train), but resumable: `stages`
    /// carries the `[DBL, LBL]` CNN progress, `sink` receives
    /// `(labeling, stage)` every `checkpoint_every` epochs plus a
    /// [`StageCheckpoint::Done`] when each CNN finishes, so a killed run
    /// resumes from the exact epoch it left off.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when a checkpoint does not match this
    /// dataset or when `sink` fails.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths mismatch (caller bugs, same
    /// as [`train`](FamilyClassifier::train)).
    #[allow(clippy::too_many_arguments)]
    pub fn train_resumable(
        config: &ClassifierConfig,
        features: &[SampleFeatures],
        labels: &[usize],
        classes: usize,
        seed: u64,
        stages: [StageCheckpoint; 2],
        checkpoint_every: usize,
        sink: &mut dyn FnMut(Labeling, StageCheckpoint) -> Result<(), String>,
    ) -> Result<Self, String> {
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        assert!(!features.is_empty(), "classifier needs training samples");
        let input_len = features[0].dbl_walks()[0].len();

        let mut dbl_cnn = build_cnn(config, input_len, classes, seed);
        let mut lbl_cnn = build_cnn(config, input_len, classes, seed ^ 0xC1A55);
        // Class-balanced oversampling: the corpus is heavily imbalanced
        // (Gafgyt outnumbers Tsunami ~40:1) and plain cross-entropy starves
        // the minority family at reduced scale. Each sample's walks are
        // repeated so every class contributes a comparable number of rows
        // (capped at 8x to bound the epoch cost).
        let mut class_counts = vec![0usize; classes];
        for &l in labels {
            class_counts[l] += 1;
        }
        let max_count = class_counts.iter().max().copied().unwrap_or(1);
        let repeat: Vec<usize> = class_counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    1
                } else {
                    max_count.div_ceil(c).clamp(1, 8)
                }
            })
            .collect();

        let [dbl_stage, lbl_stage] = stages;
        for (labeling, cnn, stage) in [
            (Labeling::Density, &mut dbl_cnn, dbl_stage),
            (Labeling::Level, &mut lbl_cnn, lbl_stage),
        ] {
            if let StageCheckpoint::Done(spec) = stage {
                *cnn = spec.into_sequential();
                continue;
            }
            let resume = match stage {
                StageCheckpoint::InProgress(tc) => Some(tc),
                _ => None,
            };
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut row_labels: Vec<usize> = Vec::new();
            for (f, &l) in features.iter().zip(labels) {
                for w in f.walks(labeling) {
                    for _ in 0..repeat[l] {
                        rows.push(w.clone());
                        row_labels.push(l);
                    }
                }
            }
            let x = Matrix::from_rows(&rows);
            let t = one_hot(&row_labels, classes);
            let mut trainer = Trainer::new(TrainConfig {
                epochs: config.epochs,
                batch_size: config.batch_size,
                learning_rate: config.learning_rate,
                seed: seed ^ 0x7281,
                ..TrainConfig::default()
            });
            let _ = trainer.fit_resumable(
                cnn,
                &x,
                &t,
                Loss::SoftmaxCrossEntropy,
                resume,
                checkpoint_every,
                &mut |tc| sink(labeling, StageCheckpoint::InProgress(tc)),
            )?;
            sink(labeling, StageCheckpoint::Done(spec_of(cnn)?))?;
        }
        Ok(FamilyClassifier {
            dbl_cnn,
            lbl_cnn,
            classes,
            config: config.clone(),
        })
    }

    /// Reassembles a classifier from persisted parts.
    pub fn from_parts(
        dbl_cnn: Sequential,
        lbl_cnn: Sequential,
        classes: usize,
        config: ClassifierConfig,
    ) -> Self {
        FamilyClassifier {
            dbl_cnn,
            lbl_cnn,
            classes,
            config,
        }
    }

    /// The CNN for one labeling.
    fn cnn(&self, labeling: Labeling) -> &Sequential {
        match labeling {
            Labeling::Density => &self.dbl_cnn,
            Labeling::Level => &self.lbl_cnn,
        }
    }

    /// The DBL CNN (used by model persistence).
    pub fn dbl_model(&self) -> &Sequential {
        &self.dbl_cnn
    }

    /// The LBL CNN (used by model persistence).
    pub fn lbl_model(&self) -> &Sequential {
        &self.lbl_cnn
    }

    /// The training configuration.
    pub fn config(&self) -> &ClassifierConfig {
        &self.config
    }

    /// Classifies one sample's features, returning the full report.
    pub fn classify(&self, features: &SampleFeatures) -> ClassifierReport {
        let dbl_preds = self.predict_walks(Labeling::Density, features.dbl_walks());
        let lbl_preds = self.predict_walks(Labeling::Level, features.lbl_walks());

        let mut votes = vec![0usize; self.classes];
        for &p in dbl_preds.iter().chain(&lbl_preds) {
            votes[p] += 1;
        }
        ClassifierReport {
            dbl_label: Family::from_index(majority(&tally(&dbl_preds, self.classes))),
            lbl_label: Family::from_index(majority(&tally(&lbl_preds, self.classes))),
            voted_label: Family::from_index(majority(&votes)),
            votes,
        }
    }

    /// Classifies many samples in one micro-batched forward pass per CNN:
    /// every sample's walk vectors are stacked into a single matrix so the
    /// threaded matmul amortizes across samples, then votes are tallied per
    /// sample. Each report is bit-identical to
    /// [`classify`](FamilyClassifier::classify) on the same features —
    /// every layer's forward pass is row-independent, so batching is purely
    /// a throughput optimization.
    pub fn classify_batch(&self, features: &[&SampleFeatures]) -> Vec<ClassifierReport> {
        if features.is_empty() {
            return Vec::new();
        }
        soteria_telemetry::record("classifier.batch_size", features.len() as f64);
        let dbl_groups: Vec<&[Vec<f64>]> = features.iter().map(|f| f.dbl_walks()).collect();
        let lbl_groups: Vec<&[Vec<f64>]> = features.iter().map(|f| f.lbl_walks()).collect();
        let dbl_logits = self.dbl_cnn.predict_stacked(&dbl_groups);
        let lbl_logits = self.lbl_cnn.predict_stacked(&lbl_groups);
        dbl_logits
            .iter()
            .zip(&lbl_logits)
            .map(|(d, l)| {
                let dbl_preds = argmax_rows(d);
                let lbl_preds = argmax_rows(l);
                let mut votes = vec![0usize; self.classes];
                for &p in dbl_preds.iter().chain(&lbl_preds) {
                    votes[p] += 1;
                }
                ClassifierReport {
                    dbl_label: Family::from_index(majority(&tally(&dbl_preds, self.classes))),
                    lbl_label: Family::from_index(majority(&tally(&lbl_preds, self.classes))),
                    voted_label: Family::from_index(majority(&votes)),
                    votes,
                }
            })
            .collect()
    }

    fn predict_walks(&self, labeling: Labeling, walks: &[Vec<f64>]) -> Vec<usize> {
        let x = Matrix::from_rows(walks);
        argmax_rows(&self.cnn(labeling).predict(&x))
    }
}

fn tally(preds: &[usize], classes: usize) -> Vec<usize> {
    let mut t = vec![0usize; classes];
    for &p in preds {
        t[p] += 1;
    }
    t
}

/// Index of the highest vote count (first wins ties — deterministic).
fn majority(votes: &[usize]) -> usize {
    votes
        .iter()
        .enumerate()
        .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .expect("non-empty vote tally")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SoteriaConfig;
    use soteria_corpus::{Family, SampleGenerator};
    use soteria_features::FeatureExtractor;

    /// A tiny two-class training setup (benign vs mirai) that the CNN can
    /// separate quickly.
    fn setup() -> (FamilyClassifier, Vec<SampleFeatures>, Vec<usize>) {
        let config = SoteriaConfig::tiny();
        let mut gen = SampleGenerator::new(51);
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..6 {
            graphs.push(gen.generate(Family::Benign).graph().clone());
            labels.push(Family::Benign.index());
            graphs.push(gen.generate(Family::Mirai).graph().clone());
            labels.push(Family::Mirai.index());
        }
        let extractor = FeatureExtractor::fit(&config.extractor, &graphs, 1);
        let features: Vec<SampleFeatures> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| extractor.extract(g, i as u64))
            .collect();
        let clf = FamilyClassifier::train(&config.classifier, &features, &labels, 4, 9);
        (clf, features, labels)
    }

    #[test]
    fn learns_to_separate_training_classes() {
        let (clf, features, labels) = setup();
        let correct = features
            .iter()
            .zip(&labels)
            .filter(|(f, &l)| clf.classify(f).voted_label.index() == l)
            .count();
        assert!(
            correct * 10 >= features.len() * 8,
            "only {correct}/{} correct on training data",
            features.len()
        );
    }

    #[test]
    fn votes_sum_to_walk_count() {
        let (clf, features, _) = setup();
        let report = clf.classify(&features[0]);
        let total: usize = report.votes.iter().sum();
        assert_eq!(
            total,
            2 * SoteriaConfig::tiny().extractor.walks_per_labeling
        );
    }

    #[test]
    fn voted_label_has_plurality() {
        let (clf, features, _) = setup();
        let report = clf.classify(&features[1]);
        let max = report.votes.iter().max().copied().unwrap();
        assert_eq!(report.votes[report.voted_label.index()], max);
    }

    #[test]
    fn classify_batch_is_bit_identical_to_classify() {
        let (clf, features, _) = setup();
        let refs: Vec<&SampleFeatures> = features.iter().collect();
        let batched = clf.classify_batch(&refs);
        assert_eq!(batched.len(), features.len());
        for (f, report) in features.iter().zip(&batched) {
            assert_eq!(report, &clf.classify(f));
        }
        assert!(clf.classify_batch(&[]).is_empty());
    }

    #[test]
    fn majority_breaks_ties_toward_lower_index() {
        assert_eq!(majority(&[2, 2, 0]), 0);
        assert_eq!(majority(&[0, 3, 3]), 1);
        assert_eq!(majority(&[1]), 0);
    }

    #[test]
    #[should_panic(expected = "features/labels mismatch")]
    fn mismatched_inputs_panic() {
        let cfg = SoteriaConfig::tiny();
        let _ = FamilyClassifier::train(&cfg.classifier, &[], &[0], 4, 0);
    }
}
