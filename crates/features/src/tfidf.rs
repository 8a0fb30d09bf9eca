//! TF-IDF weighting over a fixed gram vocabulary.
//!
//! The vocabulary is the top-`k` most frequent grams of the *training*
//! corpus (the paper keeps the 500 most discriminative grams per labeling,
//! selected "based on the frequency of W"). Each sample is then represented
//! by the TF-IDF weight of every vocabulary gram:
//!
//! * `tf(g, s)` — the gram's count in the sample's walks divided by the
//!   sample's total gram count,
//! * `idf(g)` — `ln((1 + N) / (1 + df(g))) + 1` (the smoothed form, so
//!   grams present in every document still carry weight and unseen grams
//!   cannot divide by zero).

use crate::ngram::{Gram, GramCounts};
use std::collections::HashMap;

/// A fitted gram vocabulary with IDF weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Vocabulary {
    grams: Vec<Gram>,
    index: HashMap<Gram, usize>,
    idf: Vec<f64>,
}

impl Vocabulary {
    /// Fits a vocabulary on training documents (one [`GramCounts`] per
    /// sample): keeps the `k` grams with the highest total frequency and
    /// computes their smoothed IDF.
    ///
    /// # Example
    ///
    /// ```
    /// use soteria_features::ngram::GramCounts;
    /// use soteria_features::Vocabulary;
    ///
    /// let mut doc = GramCounts::new();
    /// doc.add_walk(&[0, 1, 0, 1], &[2]);
    /// let vocab = Vocabulary::fit(&[doc.clone()], 10);
    /// let v = vocab.transform(&doc);
    /// assert_eq!(v.len(), vocab.len());
    /// assert!(v.iter().any(|&x| x > 0.0));
    /// ```
    pub fn fit(documents: &[GramCounts], k: usize) -> Self {
        let mut corpus = GramCounts::new();
        for d in documents {
            corpus.merge(d);
        }
        Self::from_grams(corpus.top_k(k), documents)
    }

    /// Fits a *class-stratified* vocabulary: the budget `k` is divided
    /// evenly over the classes, each class contributes its own most
    /// frequent grams, and any remaining budget is filled from the global
    /// ranking. This is the paper's "top discriminative grams" selection:
    /// a purely global ranking lets the majority family crowd out every
    /// other class's characteristic grams.
    ///
    /// # Panics
    ///
    /// Panics if `documents` and `labels` lengths differ.
    pub fn fit_stratified(
        documents: &[GramCounts],
        labels: &[usize],
        classes: usize,
        k: usize,
    ) -> Self {
        assert_eq!(documents.len(), labels.len(), "documents/labels mismatch");
        let per_class = (k / classes.max(1)).max(1);
        let mut selected: Vec<Gram> = Vec::with_capacity(k);
        let mut seen: std::collections::HashSet<Gram> = std::collections::HashSet::new();
        for class in 0..classes {
            let mut class_corpus = GramCounts::new();
            for (d, &l) in documents.iter().zip(labels) {
                if l == class {
                    class_corpus.merge(d);
                }
            }
            for g in class_corpus.top_k(per_class) {
                if seen.insert(g) {
                    selected.push(g);
                }
            }
        }
        // Fill any remaining budget from the global ranking.
        if selected.len() < k {
            let mut corpus = GramCounts::new();
            for d in documents {
                corpus.merge(d);
            }
            for g in corpus.top_k(k * 2) {
                if selected.len() >= k {
                    break;
                }
                if seen.insert(g) {
                    selected.push(g);
                }
            }
        }
        Self::from_grams(selected, documents)
    }

    /// Rebuilds a fitted vocabulary from its gram list and IDF weights
    /// (the binary artifact loader's constructor — the lookup index is the
    /// only thing recomputed).
    ///
    /// # Panics
    ///
    /// Panics if `grams` and `idf` lengths differ.
    pub fn from_parts(grams: Vec<Gram>, idf: Vec<f64>) -> Self {
        assert_eq!(grams.len(), idf.len(), "grams/idf length mismatch");
        let index = grams.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        Vocabulary { grams, index, idf }
    }

    fn from_grams(grams: Vec<Gram>, documents: &[GramCounts]) -> Self {
        let index: HashMap<Gram, usize> = grams.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let n = documents.len() as f64;
        let mut df = vec![0usize; grams.len()];
        for d in documents {
            for (g, _) in d.iter() {
                if let Some(&i) = index.get(&g) {
                    df[i] += 1;
                }
            }
        }
        let idf = df
            .iter()
            .map(|&d| ((1.0 + n) / (1.0 + d as f64)).ln() + 1.0)
            .collect();
        Vocabulary { grams, index, idf }
    }

    /// Number of features (≤ the `k` passed to [`fit`](Vocabulary::fit) if
    /// the corpus had fewer distinct grams).
    pub fn len(&self) -> usize {
        self.grams.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.grams.is_empty()
    }

    /// The vocabulary grams in feature order.
    pub fn grams(&self) -> &[Gram] {
        &self.grams
    }

    /// IDF weight of feature `i`.
    pub fn idf(&self, i: usize) -> f64 {
        self.idf[i]
    }

    /// All IDF weights in feature order (parallel to
    /// [`grams`](Vocabulary::grams)).
    pub fn idf_weights(&self) -> &[f64] {
        &self.idf
    }

    /// Transforms a sample's gram counts into its TF-IDF vector.
    pub fn transform(&self, sample: &GramCounts) -> Vec<f64> {
        let mut out = vec![0.0; self.grams.len()];
        let total = sample.total();
        if total == 0 {
            return out;
        }
        for (g, c) in sample.iter() {
            if let Some(&i) = self.index.get(&g) {
                let tf = f64::from(c) / total as f64;
                out[i] = tf * self.idf[i];
            }
        }
        out
    }

    /// Transforms a sample and pads/truncates to exactly `dim` entries
    /// (vocabularies fitted on tiny corpora can come up short of `k`; the
    /// fixed-width models need a stable input size).
    pub fn transform_fixed(&self, sample: &GramCounts, dim: usize) -> Vec<f64> {
        let mut v = self.transform(sample);
        v.resize(dim, 0.0);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(walk: &[usize]) -> GramCounts {
        let mut c = GramCounts::new();
        c.add_walk(walk, &[2]);
        c
    }

    #[test]
    fn fit_keeps_most_frequent_grams() {
        let docs = vec![doc(&[0, 1, 0, 1, 0]), doc(&[0, 1, 2])];
        let vocab = Vocabulary::fit(&docs, 2);
        assert_eq!(vocab.len(), 2);
        assert!(vocab.grams().contains(&Gram::new(&[0, 1])));
    }

    #[test]
    fn idf_downweights_ubiquitous_grams() {
        // (0,1) appears in both docs; (2,3) in one.
        let docs = vec![doc(&[0, 1, 2, 3]), doc(&[0, 1])];
        let vocab = Vocabulary::fit(&docs, 10);
        let i01 = vocab
            .grams()
            .iter()
            .position(|&g| g == Gram::new(&[0, 1]))
            .unwrap();
        let i23 = vocab
            .grams()
            .iter()
            .position(|&g| g == Gram::new(&[2, 3]))
            .unwrap();
        assert!(vocab.idf(i23) > vocab.idf(i01));
    }

    #[test]
    fn transform_is_zero_for_unseen_grams() {
        let docs = vec![doc(&[0, 1, 2])];
        let vocab = Vocabulary::fit(&docs, 10);
        let v = vocab.transform(&doc(&[7, 8]));
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn transform_of_empty_sample_is_zero() {
        let docs = vec![doc(&[0, 1])];
        let vocab = Vocabulary::fit(&docs, 10);
        let v = vocab.transform(&GramCounts::new());
        assert_eq!(v, vec![0.0]);
    }

    #[test]
    fn tf_scales_with_relative_frequency() {
        let docs = vec![doc(&[0, 1, 0, 1, 0, 2])];
        let vocab = Vocabulary::fit(&docs, 10);
        let v = vocab.transform(&docs[0]);
        let at = |g: Gram| {
            vocab
                .grams()
                .iter()
                .position(|&x| x == g)
                .map(|i| v[i])
                .unwrap()
        };
        // (0,1) occurs twice, (0,2) once, same IDF (single doc).
        assert!(at(Gram::new(&[0, 1])) > at(Gram::new(&[0, 2])));
    }

    #[test]
    fn transform_fixed_pads_and_truncates() {
        let docs = vec![doc(&[0, 1])];
        let vocab = Vocabulary::fit(&docs, 10);
        assert_eq!(vocab.transform_fixed(&docs[0], 5).len(), 5);
        assert_eq!(vocab.transform_fixed(&docs[0], 1).len(), 1);
    }

    #[test]
    fn fit_on_empty_corpus_is_empty() {
        let vocab = Vocabulary::fit(&[], 10);
        assert!(vocab.is_empty());
        assert_eq!(vocab.transform(&GramCounts::new()), Vec::<f64>::new());
    }
}
