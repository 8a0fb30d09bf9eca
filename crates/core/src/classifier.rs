//! The family classifier: two 1-D CNNs (one per labeling) combined by
//! majority voting over the twenty per-walk feature vectors.

use crate::checkpoint::StageCheckpoint;
use crate::config::ClassifierConfig;
use crate::pipeline::balance_repeats;
use soteria_corpus::Family;
use soteria_features::{Labeling, SampleFeatures};
use soteria_nn::{
    loss::one_hot, trainer::argmax_rows, Activation, Conv1d, Dense, Dropout, Loss, Matrix,
    MaxPool1d, Sequential, TrainConfig,
};

/// Builds one CNN (the paper's ConvB1 → ConvB2 → CB stack) for inputs of
/// `input_len` features and `classes` outputs.
fn build_cnn(config: &ClassifierConfig, input_len: usize, classes: usize, seed: u64) -> Sequential {
    let l1 = input_len;
    let l1p = l1 / 2;
    let l2p = l1p / 2;
    Sequential::new(vec![
        // ConvB1: two conv layers, pool, dropout.
        Conv1d::new(1, config.filters1, 3, l1, true, seed).into(),
        Conv1d::new(config.filters1, config.filters1, 3, l1, true, seed ^ 0x11).into(),
        MaxPool1d::new(config.filters1, l1, 2).into(),
        Dropout::new(config.conv_dropout, seed ^ 0x21).into(),
        // ConvB2.
        Conv1d::new(config.filters1, config.filters2, 3, l1p, true, seed ^ 0x12).into(),
        Conv1d::new(config.filters2, config.filters2, 3, l1p, true, seed ^ 0x13).into(),
        MaxPool1d::new(config.filters2, l1p, 2).into(),
        Dropout::new(config.conv_dropout, seed ^ 0x22).into(),
        // CB: dense + dropout + softmax (softmax fused into the loss; the
        // final layer emits logits).
        Dense::new(
            config.filters2 * l2p,
            config.dense,
            Activation::Relu,
            seed ^ 0x31,
        )
        .into(),
        Dropout::new(config.dense_dropout, seed ^ 0x23).into(),
        Dense::new(config.dense, classes, Activation::Linear, seed ^ 0x32).into(),
    ])
}

/// The untrained CNN for one labeling, sized to the walk vectors.
fn fresh_cnn(
    config: &ClassifierConfig,
    features: &[SampleFeatures],
    classes: usize,
    seed: u64,
    labeling: Labeling,
) -> Sequential {
    let seed = match labeling {
        Labeling::Density => seed,
        Labeling::Level => seed ^ 0xC1A55,
    };
    build_cnn(config, features[0].dbl_walks()[0].len(), classes, seed)
}

/// One CNN fit's training rows and their labels: every walk vector of
/// every sample, repeated by the sample's class balance factor.
fn training_rows<'a>(
    features: &'a [SampleFeatures],
    labels: &[usize],
    repeat: &[usize],
    labeling: Labeling,
) -> (Vec<&'a [f64]>, Vec<usize>) {
    let mut rows = Vec::new();
    let mut row_labels = Vec::new();
    for (f, &l) in features.iter().zip(labels) {
        for w in f.walks(labeling) {
            rows.extend(std::iter::repeat_n(w.as_slice(), repeat[l]));
            row_labels.extend(std::iter::repeat_n(l, repeat[l]));
        }
    }
    (rows, row_labels)
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

    /// Checks that `stage` fits the `labeling` CNN fit
    /// [`train_resumable`](FamilyClassifier::train_resumable) runs on these
    /// features (see [`StageCheckpoint::check_fits`]).
    pub(crate) fn check_stage(
        config: &ClassifierConfig,
        features: &[SampleFeatures],
        labels: &[usize],
        classes: usize,
        seed: u64,
        labeling: Labeling,
        stage: &StageCheckpoint,
    ) -> Result<(), String> {
        stage.check_fits(|| {
            let repeat = balance_repeats(labels.iter().copied(), classes);
            let rows = training_rows(features, labels, &repeat, labeling).0.len();
            (fresh_cnn(config, features, classes, seed, labeling), rows)
        })
    }

    /// Trains both CNNs, resumably: `stages` carries the `[DBL, LBL]` CNN
    /// progress, each fit runs from its stage ([`StageCheckpoint::fit`]),
    /// and `sink` receives `(labeling, stage)` for every checkpoint, so a
    /// killed run resumes from the exact epoch it left off. Each sample's
    /// walks are repeated by its class's balance factor
    /// ([`balance_repeats`]).
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
    pub(crate) fn train_resumable(
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
        let repeat = balance_repeats(labels.iter().copied(), classes);
        let mut fit = |labeling: Labeling, stage: StageCheckpoint| -> Result<Sequential, String> {
            let mut cnn = fresh_cnn(config, features, classes, seed, labeling);
            let (rows, row_labels) = training_rows(features, labels, &repeat, labeling);
            let train = TrainConfig {
                epochs: config.epochs,
                batch_size: config.batch_size,
                learning_rate: config.learning_rate,
                seed: seed ^ 0x7281,
                ..TrainConfig::default()
            };
            stage.fit(
                &mut cnn,
                &Matrix::from_row_slices(&rows),
                &one_hot(&row_labels, classes),
                Loss::SoftmaxCrossEntropy,
                train,
                checkpoint_every,
                &mut |stage| sink(labeling, stage),
            )?;
            Ok(cnn)
        };
        let [dbl_stage, lbl_stage] = stages;
        let dbl_cnn = fit(Labeling::Density, dbl_stage)?;
        let lbl_cnn = fit(Labeling::Level, lbl_stage)?;
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
