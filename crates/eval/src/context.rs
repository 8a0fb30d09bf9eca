//! Shared experiment state: one corpus, one split, one trained system —
//! reused by every table and figure runner.

use serde::{Deserialize, Serialize};
use soteria::{Soteria, SoteriaConfig};
use soteria_attacks::{Attack, GeaAttack};
use soteria_corpus::{Corpus, CorpusConfig, Family, Split};
use soteria_gea::{SizeClass, TargetSelection};

/// Evaluation-wide configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Human-readable preset name (recorded in reports).
    pub preset: String,
    /// Fraction of the paper corpus to generate.
    pub corpus_scale: f64,
    /// Master seed for corpus, split, training and walks.
    pub seed: u64,
    /// System hyperparameters.
    pub soteria: SoteriaConfig,
}

impl EvalConfig {
    /// Fast smoke-test preset (~200 samples, tiny models) — minutes.
    pub fn quick(seed: u64) -> Self {
        EvalConfig {
            preset: "quick".into(),
            corpus_scale: 0.012,
            seed,
            soteria: SoteriaConfig::tiny(),
        }
    }

    /// The default preset used for the recorded EXPERIMENTS.md numbers:
    /// ~840 samples, the scaled `evaluation()` models.
    pub fn standard(seed: u64) -> Self {
        EvalConfig {
            preset: "standard".into(),
            corpus_scale: 0.05,
            seed,
            soteria: SoteriaConfig::evaluation(),
        }
    }

    /// The paper-scale preset: the full 16,710-sample corpus and the
    /// published hyperparameters. Expect hours of CPU time.
    pub fn paper(seed: u64) -> Self {
        EvalConfig {
            preset: "paper".into(),
            corpus_scale: 1.0,
            seed,
            soteria: SoteriaConfig::paper(),
        }
    }
}

/// Detector + classifier outcome for one clean test sample.
#[derive(Debug, Clone)]
pub struct CleanResult {
    /// Index into the corpus.
    pub corpus_index: usize,
    /// Ground-truth class.
    pub family: Family,
    /// Reconstruction error.
    pub re: f64,
    /// Flagged as adversarial at the configured α.
    pub flagged: bool,
    /// DBL-only majority label.
    pub dbl: Family,
    /// LBL-only majority label.
    pub lbl: Family,
    /// Full 20-vote majority label.
    pub voted: Family,
    /// Combined feature vector (kept for the PCA figures).
    pub combined: Vec<f64>,
}

/// Outcome for one adversarial example.
#[derive(Debug, Clone)]
pub struct AeResult {
    /// Corpus index of the attacked (original) sample.
    pub original_index: usize,
    /// Ground-truth class of the original.
    pub true_family: Family,
    /// Reconstruction error of the merged sample.
    pub re: f64,
    /// Flagged as adversarial at the configured α.
    pub flagged: bool,
    /// Voted classifier label — only computed when the AE slipped past
    /// the detector (Table VIII's population).
    pub voted_if_missed: Option<Family>,
    /// Combined feature vector (kept for the PCA figures).
    pub combined: Vec<f64>,
}

/// All AE outcomes for one GEA target.
#[derive(Debug, Clone)]
pub struct TargetEval {
    /// Class of the embedded target.
    pub target_family: Family,
    /// Size class of the embedded target.
    pub target_size: SizeClass,
    /// Node count of the embedded target.
    pub target_nodes: usize,
    /// Per-AE outcomes.
    pub results: Vec<AeResult>,
}

impl TargetEval {
    /// Fraction of this target's AEs the detector caught.
    pub fn detection_rate(&self) -> Option<f64> {
        if self.results.is_empty() {
            return None;
        }
        Some(self.results.iter().filter(|r| r.flagged).count() as f64 / self.results.len() as f64)
    }
}

/// The shared state every experiment runs against.
#[derive(Debug)]
pub struct ExperimentContext {
    /// The evaluation configuration.
    pub config: EvalConfig,
    /// The generated corpus.
    pub corpus: Corpus,
    /// The 80/20 stratified split.
    pub split: Split,
    /// The trained Soteria system.
    pub soteria: Soteria,
    /// The GEA target table.
    pub selection: TargetSelection,
    clean: Option<Vec<CleanResult>>,
    adversarial: Option<Vec<TargetEval>>,
}

impl ExperimentContext {
    /// Generates the corpus, splits it, and trains Soteria.
    pub fn build(config: EvalConfig) -> Self {
        eprintln!(
            "[soteria-exp] generating corpus (scale {}, seed {})...",
            config.corpus_scale, config.seed
        );
        let corpus = Corpus::generate(&CorpusConfig::scaled(config.corpus_scale, config.seed));
        let split = corpus.split(0.8, config.seed ^ 0x5917);
        eprintln!(
            "[soteria-exp] corpus: {} samples ({} train / {} test); training Soteria...",
            corpus.len(),
            split.train.len(),
            split.test.len()
        );
        let soteria = Soteria::train(&config.soteria, &corpus, &split.train, config.seed)
            .expect("training split is non-empty by construction");
        let selection = TargetSelection::select(&corpus);
        eprintln!("[soteria-exp] training done");
        ExperimentContext {
            config,
            corpus,
            split,
            soteria,
            selection,
            clean: None,
            adversarial: None,
        }
    }

    /// Runs (once) and returns the clean-test evaluation: detector RE +
    /// flag and all three classifier labels for every test sample.
    /// Feature extraction is batched across worker threads.
    pub fn clean_results(&mut self) -> &[CleanResult] {
        if self.clean.is_none() {
            eprintln!(
                "[soteria-exp] evaluating {} clean test samples...",
                self.split.test.len()
            );
            let threshold = self.soteria.detector_ref().stats().threshold();
            let graphs: Vec<&soteria_cfg::Cfg> = self
                .split
                .test
                .iter()
                .map(|&idx| self.corpus.samples()[idx].graph())
                .collect();
            let features = self
                .soteria
                .extractor()
                .extract_batch(&graphs, self.config.seed ^ 0xC1EA0);
            let mut out = Vec::with_capacity(self.split.test.len());
            for (f, &idx) in features.iter().zip(&self.split.test) {
                let sample = &self.corpus.samples()[idx];
                let re = self
                    .soteria
                    .detector_ref()
                    .reconstruction_error(f.combined());
                let report = self.soteria.classifier_ref().classify(f);
                out.push(CleanResult {
                    corpus_index: idx,
                    family: sample.family(),
                    re,
                    flagged: re > threshold,
                    dbl: report.dbl_label,
                    lbl: report.lbl_label,
                    voted: report.voted_label,
                    combined: f.combined().to_vec(),
                });
            }
            self.clean = Some(out);
        }
        self.clean.as_deref().expect("just computed")
    }

    /// Runs (once) and returns the adversarial evaluation: for each of the
    /// 12 GEA targets, every out-of-class test sample is merged, screened,
    /// and — if it slips through — classified.
    pub fn adversarial_results(&mut self) -> &[TargetEval] {
        if self.adversarial.is_none() {
            let threshold = self.soteria.detector_ref().stats().threshold();
            let targets: Vec<_> = self.selection.targets().to_vec();
            let mut evals = Vec::with_capacity(targets.len());
            for (ti, target) in targets.iter().enumerate() {
                let target_sample = self.selection.sample(&self.corpus, target).clone();
                // Merge every out-of-class test sample via the Attack trait
                // (GEA crafting ignores the seed — the merge is exhaustive,
                // not sampled), then extract the whole batch in parallel.
                let attack = GeaAttack::new(&target_sample, target.size);
                let mut merged_samples = Vec::new();
                let mut origins = Vec::new();
                for &idx in &self.split.test {
                    let original = &self.corpus.samples()[idx];
                    if original.family() == target.family {
                        continue;
                    }
                    merged_samples.push(
                        attack
                            .craft(original, 0)
                            .expect("GEA merge of well-formed samples"),
                    );
                    origins.push((idx, original.family()));
                }
                let graphs: Vec<&soteria_cfg::Cfg> =
                    merged_samples.iter().map(|m| m.sample().graph()).collect();
                let features = self
                    .soteria
                    .extractor()
                    .extract_batch(&graphs, self.config.seed ^ (0xAE000 + ti as u64 * 100_000));
                let mut results = Vec::new();
                for (f, &(idx, family)) in features.iter().zip(&origins) {
                    let re = self
                        .soteria
                        .detector_ref()
                        .reconstruction_error(f.combined());
                    let flagged = re > threshold;
                    let voted_if_missed = if flagged {
                        None
                    } else {
                        Some(self.soteria.classifier_ref().classify(f).voted_label)
                    };
                    results.push(AeResult {
                        original_index: idx,
                        true_family: family,
                        re,
                        flagged,
                        voted_if_missed,
                        combined: f.combined().to_vec(),
                    });
                }
                eprintln!(
                    "[soteria-exp] GEA target {}/{} ({} {}): {} AEs evaluated",
                    ti + 1,
                    targets.len(),
                    target.family,
                    target.size,
                    results.len()
                );
                evals.push(TargetEval {
                    target_family: target.family,
                    target_size: target.size,
                    target_nodes: target.nodes,
                    results,
                });
            }
            self.adversarial = Some(evals);
        }
        self.adversarial.as_deref().expect("just computed")
    }

    /// Overall AE detection accuracy across every target (the paper's
    /// headline 97.79%).
    pub fn overall_ae_detection(&mut self) -> Option<f64> {
        let evals = self.adversarial_results();
        let total: usize = evals.iter().map(|t| t.results.len()).sum();
        if total == 0 {
            return None;
        }
        let caught: usize = evals
            .iter()
            .map(|t| t.results.iter().filter(|r| r.flagged).count())
            .sum();
        Some(caught as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_context() -> ExperimentContext {
        ExperimentContext::build(EvalConfig::quick(3))
    }

    #[test]
    fn context_builds_and_reuses_evaluations() {
        let mut ctx = quick_context();
        let n_clean = ctx.clean_results().len();
        assert_eq!(n_clean, ctx.split.test.len());
        // Second call returns the cached slice (same length, no re-run).
        assert_eq!(ctx.clean_results().len(), n_clean);
    }

    #[test]
    fn adversarial_results_cover_all_targets() {
        let mut ctx = quick_context();
        let evals: Vec<_> = ctx.adversarial_results().to_vec();
        assert_eq!(evals.len(), ctx.selection.targets().len());
        for t in &evals {
            let expected = ctx
                .split
                .test
                .iter()
                .filter(|&&i| ctx.corpus.samples()[i].family() != t.target_family)
                .count();
            assert_eq!(t.results.len(), expected);
        }
    }

    #[test]
    fn overall_detection_is_a_rate() {
        let mut ctx = quick_context();
        let rate = ctx.overall_ae_detection().unwrap();
        assert!((0.0..=1.0).contains(&rate));
    }
}
