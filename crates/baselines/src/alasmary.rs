//! The Alasmary et al. graph-theoretic baseline: whole-CFG statistics into
//! a dense classifier.

use serde::{Deserialize, Serialize};
use soteria_cfg::{Cfg, GraphStats};
use soteria_corpus::Family;
use soteria_nn::{
    loss::one_hot, trainer::argmax_rows, Activation, Dense, Loss, Matrix, Sequential, TrainConfig,
    Trainer,
};

/// Training hyperparameters for the baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlasmaryConfig {
    /// Hidden layer widths.
    pub hidden: [usize; 2],
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
}

impl Default for AlasmaryConfig {
    fn default() -> Self {
        AlasmaryConfig {
            hidden: [64, 32],
            epochs: 60,
            batch_size: 32,
            learning_rate: 2e-3,
        }
    }
}

/// Feature standardization fitted on the training set (z-scores; the raw
/// 23 features span wildly different ranges).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    fn fit(rows: &[Vec<f64>]) -> Self {
        let d = rows[0].len();
        let n = rows.len() as f64;
        let mut mean = vec![0.0; d];
        for r in rows {
            for (m, &x) in mean.iter_mut().zip(r) {
                *m += x / n;
            }
        }
        let mut std = vec![0.0; d];
        for r in rows {
            for ((s, &x), &m) in std.iter_mut().zip(r).zip(&mean) {
                *s += (x - m) * (x - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-9);
        }
        Standardizer { mean, std }
    }

    fn apply(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect()
    }
}

/// The trained baseline classifier.
#[derive(Debug)]
pub struct AlasmaryClassifier {
    model: Sequential,
    standardizer: Standardizer,
    classes: usize,
}

impl AlasmaryClassifier {
    /// Extracts the 23-feature vector for one graph (features come from
    /// the *reachable* part — the original system works on radare2 output
    /// for well-formed binaries; we keep the comparison fair by lifting
    /// identically).
    pub fn features(cfg: &Cfg) -> Vec<f64> {
        let (reachable, _) = cfg.reachable_subgraph();
        GraphStats::compute(&reachable).to_vector()
    }

    /// Trains on graphs + class indices.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths differ.
    pub fn train(
        config: &AlasmaryConfig,
        graphs: &[&Cfg],
        labels: &[usize],
        classes: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(graphs.len(), labels.len(), "graphs/labels mismatch");
        assert!(!graphs.is_empty(), "baseline needs training samples");
        let raw: Vec<Vec<f64>> = graphs.iter().map(|g| Self::features(g)).collect();
        let standardizer = Standardizer::fit(&raw);
        let rows: Vec<Vec<f64>> = raw.iter().map(|r| standardizer.apply(r)).collect();

        let x = Matrix::from_rows(&rows);
        let t = one_hot(labels, classes);
        let mut model = Sequential::new(vec![
            Box::new(Dense::new(
                x.cols(),
                config.hidden[0],
                Activation::Relu,
                seed,
            )),
            Box::new(Dense::new(
                config.hidden[0],
                config.hidden[1],
                Activation::Relu,
                seed ^ 0x1,
            )),
            Box::new(Dense::new(
                config.hidden[1],
                classes,
                Activation::Linear,
                seed ^ 0x2,
            )),
        ]);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            seed: seed ^ 0xA1A5,
            ..TrainConfig::default()
        });
        let _ = trainer.fit(&mut model, &x, &t, Loss::SoftmaxCrossEntropy);
        AlasmaryClassifier {
            model,
            standardizer,
            classes,
        }
    }

    /// Classifies one graph.
    pub fn predict(&self, cfg: &Cfg) -> Family {
        let row = self.standardizer.apply(&Self::features(cfg));
        let x = Matrix::from_rows(std::slice::from_ref(&row));
        Family::from_index(argmax_rows(&self.model.predict(&x))[0])
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_corpus::{Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            counts: [16, 16, 16, 16],
            seed: 71,
            av_noise: false,
            lineages: 4,
        })
    }

    #[test]
    fn features_have_23_dimensions() {
        let c = corpus();
        let f = AlasmaryClassifier::features(c.samples()[0].graph());
        assert_eq!(f.len(), 23);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn learns_training_data() {
        let c = corpus();
        let graphs: Vec<&Cfg> = c.samples().iter().map(|s| s.graph()).collect();
        let labels: Vec<usize> = c.samples().iter().map(|s| s.family().index()).collect();
        let clf = AlasmaryClassifier::train(&AlasmaryConfig::default(), &graphs, &labels, 4, 5);
        let correct = graphs
            .iter()
            .zip(&labels)
            .filter(|(g, &l)| clf.predict(g).index() == l)
            .count();
        assert!(
            correct * 10 >= graphs.len() * 7,
            "{correct}/{} on training data",
            graphs.len()
        );
    }

    #[test]
    fn standardizer_produces_zero_mean_unit_variance() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]];
        let s = Standardizer::fit(&rows);
        let out: Vec<Vec<f64>> = rows.iter().map(|r| s.apply(r)).collect();
        for d in 0..2 {
            let mean: f64 = out.iter().map(|r| r[d]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn constant_feature_does_not_divide_by_zero() {
        let rows = vec![vec![2.0], vec![2.0]];
        let s = Standardizer::fit(&rows);
        assert!(s.apply(&[2.0])[0].is_finite());
    }

    #[test]
    fn features_ignore_unreachable_code() {
        let c = corpus();
        let s = &c.samples()[0];
        let clean = AlasmaryClassifier::features(s.graph());
        let mut binary = s.binary().clone();
        let base = binary.code().len() as u32;
        binary.append_dead_code(&soteria_corpus::asm::dead_fragment(base, 4));
        let dirty = soteria_corpus::disasm::lift(&binary).unwrap();
        assert_eq!(AlasmaryClassifier::features(&dirty.cfg), clean);
    }
}
