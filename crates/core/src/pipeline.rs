//! The end-to-end Soteria pipeline: feature extraction → AE screening →
//! family classification.

use crate::classifier::{ClassifierReport, FamilyClassifier};
use crate::config::SoteriaConfig;
use crate::detector::AeDetector;
use crate::error::TrainError;
use serde::{Deserialize, Serialize};
use soteria_cfg::Cfg;
use soteria_corpus::{Corpus, Family};
use soteria_features::{FeatureExtractor, SampleFeatures};
use soteria_resilience::{FaultKind, ResourceGuards};
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Outcome of analyzing one sample.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The detector flagged the sample; it never reached the classifier.
    Adversarial {
        /// The sample's reconstruction error.
        reconstruction_error: f64,
    },
    /// The sample passed the detector and was classified.
    Clean {
        /// The voted family label.
        family: Family,
        /// The sample's reconstruction error (below threshold).
        reconstruction_error: f64,
        /// Full voting detail.
        report: ClassifierReport,
    },
    /// The sample could not be analyzed — it was malformed, tripped a
    /// resource guard, or crashed its pipeline stage. The fault is
    /// confined to this sample; the rest of the batch is unaffected.
    Degraded {
        /// What went wrong.
        reason: FaultKind,
    },
}

impl Verdict {
    /// Whether the sample was flagged adversarial.
    pub fn is_adversarial(&self) -> bool {
        matches!(self, Verdict::Adversarial { .. })
    }

    /// Whether analysis degraded instead of completing.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Verdict::Degraded { .. })
    }

    /// The fault behind a degraded verdict, if any.
    pub fn fault(&self) -> Option<&FaultKind> {
        match self {
            Verdict::Degraded { reason } => Some(reason),
            _ => None,
        }
    }

    /// The classified family, if the sample was clean.
    pub fn family(&self) -> Option<Family> {
        match self {
            Verdict::Clean { family, .. } => Some(*family),
            Verdict::Adversarial { .. } | Verdict::Degraded { .. } => None,
        }
    }
}

/// Counts a degraded verdict into telemetry and wraps the fault.
fn degraded(reason: FaultKind) -> Verdict {
    // The format! below allocates, so gate it: the disabled path must
    // stay allocation-free (see telemetry's alloc_free test).
    if soteria_telemetry::enabled() {
        soteria_telemetry::counter("pipeline.verdicts.degraded", 1);
        soteria_telemetry::counter(&format!("resilience.faults.{}", reason.slug()), 1);
    }
    Verdict::Degraded { reason }
}

/// Wall-clock breakdown of one training run
/// ([`Soteria::train_with_metrics`]): the stages in execution order, plus
/// totals. Purely observational — computing it never changes any result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineMetrics {
    /// Number of samples that went through the run.
    pub samples: usize,
    /// `(stage name, wall milliseconds)` in execution order.
    pub stages: Vec<StageTime>,
    /// Total wall milliseconds for the run.
    pub total_ms: f64,
}

/// One stage entry of a [`PipelineMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTime {
    /// Stage name, e.g. `"extract"`.
    pub name: String,
    /// Wall milliseconds spent in the stage.
    pub ms: f64,
}

impl PipelineMetrics {
    /// Milliseconds spent in the named stage, if it ran.
    pub fn stage_ms(&self, name: &str) -> Option<f64> {
        self.stages.iter().find(|s| s.name == name).map(|s| s.ms)
    }

    /// End-to-end throughput in samples per second (0 for an empty or
    /// instantaneous run).
    pub fn samples_per_sec(&self) -> f64 {
        if self.total_ms <= 0.0 {
            0.0
        } else {
            self.samples as f64 / (self.total_ms / 1e3)
        }
    }
}

/// Collects training stage timings and mirrors them into the global
/// telemetry registry under `pipeline.train.<stage>`.
struct StageClock {
    run_start: Instant,
    stages: Vec<StageTime>,
}

impl StageClock {
    fn start() -> Self {
        StageClock {
            run_start: Instant::now(),
            stages: Vec::new(),
        }
    }

    /// Times `f` as stage `name`.
    fn stage<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // Gated: the name is built with format!, which must not run on
        // the allocation-free disabled path.
        if soteria_telemetry::enabled() {
            soteria_telemetry::record(&format!("pipeline.train.{name}"), ms);
        }
        self.stages.push(StageTime {
            name: name.to_string(),
            ms,
        });
        out
    }

    fn finish(self, samples: usize) -> PipelineMetrics {
        let total_ms = self.run_start.elapsed().as_secs_f64() * 1e3;
        soteria_telemetry::record("pipeline.train", total_ms);
        PipelineMetrics {
            samples,
            stages: self.stages,
            total_ms,
        }
    }
}

/// The trained Soteria system.
#[derive(Debug)]
pub struct Soteria {
    config: SoteriaConfig,
    extractor: FeatureExtractor,
    detector: AeDetector,
    classifier: FamilyClassifier,
}

impl Soteria {
    /// Trains the full system on the given corpus rows (indices into
    /// `corpus`, normally the training split). The detector and classifier
    /// share one feature extraction pass — the cost-reuse property §III-A
    /// highlights.
    ///
    /// Labels come from the *AV pipeline* labels (as the paper's
    /// experimenters would have), not ground truth.
    ///
    /// # Errors
    ///
    /// Fails with [`TrainError::EmptySplit`] on an empty split,
    /// [`TrainError::IndexOutOfRange`] on a bad index, and
    /// [`TrainError::Extraction`] if a training sample faults during
    /// feature extraction.
    pub fn train(
        config: &SoteriaConfig,
        corpus: &Corpus,
        train_indices: &[usize],
        seed: u64,
    ) -> Result<Self, TrainError> {
        Ok(Self::train_with_metrics(config, corpus, train_indices, seed)?.0)
    }

    /// Like [`train`](Soteria::train), and additionally returns the
    /// wall-clock breakdown of the four training stages (`fit`, `extract`,
    /// `detector`, `classifier`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`train`](Soteria::train).
    pub fn train_with_metrics(
        config: &SoteriaConfig,
        corpus: &Corpus,
        train_indices: &[usize],
        seed: u64,
    ) -> Result<(Self, PipelineMetrics), TrainError> {
        if train_indices.is_empty() {
            return Err(TrainError::EmptySplit);
        }
        if let Some(&bad) = train_indices.iter().find(|&&i| i >= corpus.samples().len()) {
            return Err(TrainError::IndexOutOfRange {
                index: bad,
                len: corpus.samples().len(),
            });
        }
        let mut clock = StageClock::start();
        soteria_telemetry::counter("pipeline.train.samples", train_indices.len() as u64);
        let graphs: Vec<&Cfg> = train_indices
            .iter()
            .map(|&i| corpus.samples()[i].graph())
            .collect();
        let av_labels: Vec<usize> = train_indices
            .iter()
            .map(|&i| corpus.samples()[i].av_label().index())
            .collect();
        let extractor = clock.stage("fit", || {
            FeatureExtractor::fit_stratified(
                &config.extractor,
                &graphs,
                &av_labels,
                config.classes,
                seed,
            )
        });
        let features = clock.stage("extract", || {
            extractor.extract_batch_isolated(&graphs, seed ^ 0xFEA7, &config.guards)
        });
        let features: Vec<SampleFeatures> = features
            .into_iter()
            .enumerate()
            .map(|(index, r)| r.map_err(|fault| TrainError::Extraction { index, fault }))
            .collect::<Result<_, _>>()?;

        let combined: Vec<Vec<f64>> = features.iter().map(|f| f.combined().to_vec()).collect();
        let labels = av_labels;
        let detector = clock.stage("detector", || {
            AeDetector::train_balanced(&config.detector, &combined, &labels, seed ^ 0xDE7)
        });
        let classifier = clock.stage("classifier", || {
            FamilyClassifier::train(
                &config.classifier,
                &features,
                &labels,
                config.classes,
                seed ^ 0xC1F,
            )
        });

        let system = Soteria {
            config: config.clone(),
            extractor,
            detector,
            classifier,
        };
        let metrics = clock.finish(train_indices.len());
        Ok((system, metrics))
    }

    /// The system configuration.
    pub fn config(&self) -> &SoteriaConfig {
        &self.config
    }

    /// The fitted feature extractor.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Reassembles a system from persisted parts.
    pub fn from_parts(
        config: SoteriaConfig,
        extractor: FeatureExtractor,
        detector: AeDetector,
        classifier: FamilyClassifier,
    ) -> Self {
        Soteria {
            config,
            extractor,
            detector,
            classifier,
        }
    }

    /// Shared access to the detector: persistence, threshold sweeps, and
    /// per-stage inference all go through it.
    pub fn detector_ref(&self) -> &AeDetector {
        &self.detector
    }

    /// Shared access to the classifier: persistence and per-model
    /// evaluation.
    pub fn classifier_ref(&self) -> &FamilyClassifier {
        &self.classifier
    }

    /// Mutable access to the detector. Inference needs only
    /// [`detector_ref`](Soteria::detector_ref).
    pub fn detector_mut(&mut self) -> &mut AeDetector {
        &mut self.detector
    }

    /// Mutable access to the classifier. Inference needs only
    /// [`classifier_ref`](Soteria::classifier_ref).
    pub fn classifier_mut(&mut self) -> &mut FamilyClassifier {
        &mut self.classifier
    }

    /// Extracts features for a graph with this system's extractor.
    /// `walk_seed` drives the randomized walks.
    pub fn features(&self, cfg: &Cfg, walk_seed: u64) -> SampleFeatures {
        self.extractor.extract(cfg, walk_seed)
    }

    /// Runs the full pipeline on one CFG. A sample that faults (oversized
    /// graph, walk-budget overrun, stage panic) yields
    /// [`Verdict::Degraded`] instead of unwinding.
    ///
    /// With [`screen_binary`](Soteria::screen_binary) this is the
    /// sequential reference: one sample, per-sample forward passes, no
    /// fan-out across samples.
    pub fn analyze(&self, cfg: &Cfg, walk_seed: u64) -> Verdict {
        let _span = soteria_telemetry::span("pipeline.analyze");
        match self
            .extractor
            .try_extract(cfg, walk_seed, &self.config.guards)
        {
            Ok(features) => self.screen_one(&features, walk_seed, false),
            Err(fault) => degraded(fault),
        }
    }

    /// Runs the full pipeline on a serialized binary: parse → lift →
    /// extract ([`extract_binary`]) → screen, with every failure mode —
    /// malformed container, undecodable reachable code, guard trips, stage
    /// panics — confined to a [`Verdict::Degraded`]. The sequential
    /// reference for untrusted input: one sample, per-sample forward
    /// passes, no fan-out across samples.
    pub fn screen_binary(&self, bytes: &[u8], walk_seed: u64) -> Verdict {
        let _span = soteria_telemetry::span("pipeline.screen_binary");
        match extract_binary(&self.extractor, bytes, walk_seed, &self.config.guards) {
            Ok(features) => self.screen_one(&features, walk_seed, false),
            Err(fault) => degraded(fault),
        }
    }

    /// The batch path: screens many serialized binaries, each with its own
    /// walk seed (also its screen key). Parse, lift, and feature extraction
    /// fan out over the shared worker pool, then the screen stage runs the
    /// detector and classifier once each over every surviving sample (so
    /// the threaded matmul in `soteria-nn` amortizes across the batch).
    ///
    /// Bit-identical per item to
    /// [`screen_binary`](Soteria::screen_binary)`(bytes, seed)`: every
    /// forward pass is row-independent, so batching is purely a throughput
    /// optimization. Faults degrade their sample only. The screening
    /// service derives each seed from the sample's content, so verdicts
    /// are a pure function of the bytes.
    pub fn screen_many_seeded(&self, items: &[(&[u8], u64)]) -> Vec<Verdict> {
        if items.is_empty() {
            return Vec::new();
        }
        let _span = soteria_telemetry::span("pipeline.screen_many");
        soteria_telemetry::counter("pipeline.screen_many.samples", items.len() as u64);
        let (extractor, guards) = (&self.extractor, &self.config.guards);
        // The same pool threads run the batched forward passes below.
        soteria_nn::backend::warm();
        let extracted = soteria_nn::backend::map(items, |_, &(bytes, seed)| {
            extract_binary(extractor, bytes, seed, guards)
        });

        let mut batch: Vec<(SampleFeatures, u64)> = Vec::new();
        let mut faults: Vec<Option<FaultKind>> = Vec::with_capacity(items.len());
        for (result, &(_, seed)) in extracted.into_iter().zip(items) {
            match result {
                Ok(features) => {
                    batch.push((features, seed));
                    faults.push(None);
                }
                Err(fault) => faults.push(Some(fault)),
            }
        }
        let mut screened = self.screen_features_batch(&batch).into_iter();
        faults
            .into_iter()
            .map(|fault| match fault {
                Some(fault) => degraded(fault),
                None => screened.next().expect("one verdict per extracted sample"),
            })
            .collect()
    }

    /// The screen stage over pre-extracted features: the detector computes
    /// every reconstruction error from one stacked matrix and the
    /// classifier's two CNNs each run a single forward pass over all
    /// surviving samples. Each item carries its own screen key (chaos gate
    /// + provenance); a fault degrades that item only.
    ///
    /// Bit-identical per item to the per-sample screen behind
    /// [`analyze`](Soteria::analyze) — every layer's forward pass is
    /// row-independent, so stacking rows cannot change any output bit.
    pub fn screen_features_batch(&self, items: &[(SampleFeatures, u64)]) -> Vec<Verdict> {
        self.screen_stage(items, false)
    }

    /// The brownout tier of the screen stage: runs **only the AE
    /// detector**, skipping the (much heavier) ensemble classifier.
    ///
    /// A flagged sample never reaches the classifier on the full tier
    /// either, so the `Adversarial` verdicts returned here are
    /// **bit-identical** to [`screen_features_batch`](Soteria::screen_features_batch)'s
    /// and safe to cache under the sample's content key. Samples the
    /// detector passes return `Degraded(FaultKind::Overload { tier:
    /// "ae-only" })` instead, which is load-derived and must never be
    /// cached. Faults degrade their sample only, as on the full tier.
    pub fn screen_features_batch_ae_only(&self, items: &[(SampleFeatures, u64)]) -> Vec<Verdict> {
        self.screen_stage(items, true)
    }

    /// The one screen stage behind both tiers; `ae_only` stops it after
    /// the detector.
    fn screen_stage(&self, items: &[(SampleFeatures, u64)], ae_only: bool) -> Vec<Verdict> {
        if items.is_empty() {
            return Vec::new();
        }
        let _span = if ae_only {
            soteria_telemetry::counter("pipeline.screen_ae_only.samples", items.len() as u64);
            soteria_telemetry::span("pipeline.screen_ae_only")
        } else {
            soteria_telemetry::record("pipeline.screen_batch_size", items.len() as f64);
            soteria_telemetry::span("pipeline.screen_features_batch")
        };
        // Run each sample's chaos gate first, isolated, so an injected
        // fault degrades its sample exactly as on the per-sample path.
        let mut verdicts: Vec<Option<Verdict>> = items
            .iter()
            .map(|(_, key)| {
                soteria_resilience::isolate(|| {
                    soteria_resilience::chaos_point("pipeline.screen", *key);
                })
                .err()
                .map(degraded)
            })
            .collect();
        let live: Vec<usize> = (0..items.len())
            .filter(|&i| verdicts[i].is_none())
            .collect();
        let batched = soteria_resilience::isolate(AssertUnwindSafe(|| {
            let rows: Vec<&[f64]> = live.iter().map(|&i| items[i].0.combined()).collect();
            let errors = self.detector.reconstruction_errors_of(&rows);
            let threshold = self.detector.stats().threshold();
            let mut resolved: Vec<(usize, Verdict)> = Vec::with_capacity(live.len());
            let mut passed: Vec<(usize, f64)> = Vec::new();
            for (&i, re) in live.iter().zip(errors) {
                match detector_verdict(re, threshold, ae_only) {
                    Some(verdict) => resolved.push((i, verdict)),
                    None => passed.push((i, re)),
                }
            }
            let features: Vec<&SampleFeatures> = passed.iter().map(|&(i, _)| &items[i].0).collect();
            let reports = self.classifier.classify_batch(&features);
            for (&(i, re), report) in passed.iter().zip(reports) {
                resolved.push((i, classified(re, report)));
            }
            resolved
        }));
        match batched {
            Ok(resolved) => {
                for (i, verdict) in resolved {
                    verdicts[i] = Some(verdict);
                }
            }
            Err(_) => {
                // A panic in the batched math can't be attributed to one
                // sample; re-run the survivors through the per-sample
                // screen so each resolves (or degrades) on its own. The
                // chaos gate already passed for these keys and is
                // deterministic, so it passes again.
                for &i in &live {
                    verdicts[i] = Some(self.screen_one(&items[i].0, items[i].1, ae_only));
                }
            }
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every item resolved"))
            .collect()
    }

    /// The per-sample screen: chaos gate, detector, and (unless `ae_only`)
    /// classifier, each forward pass over this sample alone. A panic
    /// (organic or chaos-injected) degrades this sample only.
    fn screen_one(&self, features: &SampleFeatures, key: u64, ae_only: bool) -> Verdict {
        let result = soteria_resilience::isolate(AssertUnwindSafe(|| {
            soteria_resilience::chaos_point("pipeline.screen", key);
            let re = self.detector.reconstruction_error(features.combined());
            let threshold = self.detector.stats().threshold();
            detector_verdict(re, threshold, ae_only)
                .unwrap_or_else(|| classified(re, self.classifier.classify(features)))
        }));
        result.unwrap_or_else(degraded)
    }
}

/// The verdict the detector alone settles: `Adversarial` above the
/// threshold, the brownout shed when `ae_only`, and `None` when the sample
/// goes on to the classifier.
fn detector_verdict(re: f64, threshold: f64, ae_only: bool) -> Option<Verdict> {
    if re > threshold {
        soteria_telemetry::counter("pipeline.verdicts.adversarial", 1);
        Some(Verdict::Adversarial {
            reconstruction_error: re,
        })
    } else if ae_only {
        Some(degraded(FaultKind::Overload {
            tier: "ae-only".to_owned(),
        }))
    } else {
        None
    }
}

/// A sample that passed the detector, with its classifier report.
fn classified(re: f64, report: ClassifierReport) -> Verdict {
    soteria_telemetry::counter("pipeline.verdicts.clean", 1);
    Verdict::Clean {
        family: report.voted_label,
        reconstruction_error: re,
        report,
    }
}

/// The front half of screening one serialized binary: parse → lift →
/// [`FeatureExtractor::try_extract`], all inside one isolation boundary,
/// so a malformed container, undecodable reachable code, a guard trip or
/// a stage panic comes back as this sample's `Err(FaultKind)` and never
/// unwinds into the caller. The sequential reference, the batch path and
/// the screening service's workers all extract through it.
pub fn extract_binary(
    extractor: &FeatureExtractor,
    bytes: &[u8],
    seed: u64,
    guards: &ResourceGuards,
) -> Result<SampleFeatures, FaultKind> {
    soteria_resilience::isolate(AssertUnwindSafe(|| {
        let binary = soteria_corpus::Binary::parse(bytes).map_err(FaultKind::from)?;
        let lifted = soteria_corpus::disasm::lift(&binary).map_err(FaultKind::from)?;
        extractor.try_extract(&lifted.cfg, seed, guards)
    }))?
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_corpus::CorpusConfig;
    use soteria_gea::{gea_merge, TargetSelection};

    fn trained() -> (Soteria, Corpus, Vec<usize>) {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [14, 14, 14, 12],
            seed: 61,
            av_noise: false,
            lineages: 3,
        });
        let split = corpus.split(0.8, 3);
        let soteria =
            Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 5).expect("train");
        (soteria, corpus, split.test)
    }

    /// The large benign GEA target.
    fn gea_target(corpus: &Corpus) -> &soteria_corpus::corpus::Sample {
        let selection = TargetSelection::select(corpus);
        let target = selection
            .target(Family::Benign, soteria_gea::SizeClass::Large)
            .unwrap();
        selection.sample(corpus, target)
    }

    /// Features of three clean test samples and of GEA merges of three
    /// malicious ones, so both detector outcomes appear in one batch.
    fn mixed_features(
        soteria: &Soteria,
        corpus: &Corpus,
        test: &[usize],
    ) -> Vec<(SampleFeatures, u64)> {
        let target = gea_target(corpus);
        let mut items: Vec<(SampleFeatures, u64)> = Vec::new();
        for &i in test.iter().take(3) {
            let seed = 900 + i as u64;
            items.push((soteria.features(corpus.samples()[i].graph(), seed), seed));
        }
        for &i in test
            .iter()
            .filter(|&&i| corpus.samples()[i].family() != Family::Benign)
            .take(3)
        {
            let seed = 1900 + i as u64;
            let merged = gea_merge(&corpus.samples()[i], target).unwrap();
            items.push((soteria.features(merged.sample().graph(), seed), seed));
        }
        items
    }

    #[test]
    fn most_clean_test_samples_pass_the_detector() {
        let (soteria, corpus, test) = trained();
        let passed = test
            .iter()
            .filter(|&&i| {
                !soteria
                    .analyze(corpus.samples()[i].graph(), i as u64)
                    .is_adversarial()
            })
            .count();
        assert!(
            passed * 10 >= test.len() * 6,
            "only {passed}/{} clean samples passed",
            test.len()
        );
    }

    #[test]
    fn gea_examples_are_flagged_more_often_than_clean() {
        let (soteria, corpus, test) = trained();
        let target = gea_target(&corpus);
        let mut flagged_ae = 0;
        let mut flagged_clean = 0;
        let mut n_ae = 0;
        for &i in &test {
            let s = &corpus.samples()[i];
            if soteria.analyze(s.graph(), 1000 + i as u64).is_adversarial() {
                flagged_clean += 1;
            }
            if s.family() != Family::Benign {
                let merged = gea_merge(s, target).unwrap();
                n_ae += 1;
                if soteria
                    .analyze(merged.sample().graph(), 2000 + i as u64)
                    .is_adversarial()
                {
                    flagged_ae += 1;
                }
            }
        }
        let ae_rate = flagged_ae as f64 / n_ae.max(1) as f64;
        let clean_rate = flagged_clean as f64 / test.len() as f64;
        assert!(
            ae_rate > clean_rate,
            "AE detection rate {ae_rate:.2} not above clean false-positive rate {clean_rate:.2}"
        );
    }

    #[test]
    fn clean_verdicts_carry_reports() {
        let (soteria, corpus, test) = trained();
        for &i in &test {
            if let Verdict::Clean {
                family,
                report,
                reconstruction_error,
            } = soteria.analyze(corpus.samples()[i].graph(), i as u64)
            {
                assert_eq!(family, report.voted_label);
                assert!(reconstruction_error <= soteria.detector_ref().stats().threshold());
                return;
            }
        }
        panic!("no clean verdict in the whole test split");
    }

    #[test]
    fn train_metrics_cover_all_stages() {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [8, 8, 8, 8],
            seed: 77,
            av_noise: false,
            lineages: 3,
        });
        let split = corpus.split(0.75, 1);
        let (_, train_metrics) =
            Soteria::train_with_metrics(&SoteriaConfig::tiny(), &corpus, &split.train, 5)
                .expect("train");
        assert_eq!(train_metrics.samples, split.train.len());
        for stage in ["fit", "extract", "detector", "classifier"] {
            assert!(
                train_metrics.stage_ms(stage).is_some_and(|ms| ms >= 0.0),
                "missing stage {stage}"
            );
        }
        assert!(train_metrics.stage_ms("no_such_stage").is_none());
        // Stages nest inside the run, so their sum cannot exceed it.
        let stage_sum: f64 = train_metrics.stages.iter().map(|s| s.ms).sum();
        assert!(stage_sum <= train_metrics.total_ms + 1.0);
        assert!(train_metrics.samples_per_sec() > 0.0);
    }

    #[test]
    fn verdicts_are_identical_with_telemetry_on_and_off() {
        // Telemetry must be purely observational: toggling it cannot
        // change a single verdict bit. Train once, then compare the batch
        // path's output under both settings.
        let (soteria, corpus, test) = trained();
        let binaries: Vec<Vec<u8>> = test
            .iter()
            .map(|&i| corpus.samples()[i].binary().to_bytes())
            .collect();
        let items: Vec<(&[u8], u64)> = binaries
            .iter()
            .enumerate()
            .map(|(i, b)| (b.as_slice(), 42 + i as u64))
            .collect();
        let was_enabled = soteria_telemetry::enabled();
        soteria_telemetry::set_enabled(true);
        let with_telemetry = soteria.screen_many_seeded(&items);
        soteria_telemetry::set_enabled(false);
        let without_telemetry = soteria.screen_many_seeded(&items);
        soteria_telemetry::set_enabled(was_enabled);
        assert_eq!(with_telemetry, without_telemetry);
    }

    #[test]
    fn empty_training_split_is_a_typed_error() {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [10, 10, 10, 10],
            seed: 0,
            av_noise: false,
            lineages: 3,
        });
        let err = Soteria::train(&SoteriaConfig::tiny(), &corpus, &[], 0).unwrap_err();
        assert_eq!(err, TrainError::EmptySplit);
        let err = Soteria::train(&SoteriaConfig::tiny(), &corpus, &[usize::MAX], 0).unwrap_err();
        assert!(matches!(err, TrainError::IndexOutOfRange { .. }));
    }

    #[test]
    fn oversized_graph_degrades_instead_of_panicking() {
        let (mut soteria, corpus, test) = trained();
        // Tighten the guards far below any real sample: every graph trips.
        soteria.config.guards.max_nodes = Some(1);
        let verdict = soteria.analyze(corpus.samples()[test[0]].graph(), 7);
        assert!(verdict.is_degraded());
        assert!(matches!(
            verdict.fault(),
            Some(FaultKind::GraphTooLarge { .. })
        ));
    }

    #[test]
    fn ae_only_tier_is_bit_identical_where_it_answers() {
        let (soteria, corpus, test) = trained();
        let items = mixed_features(&soteria, &corpus, &test);
        let full = soteria.screen_features_batch(&items);
        let ae_only = soteria.screen_features_batch_ae_only(&items);
        let mut flagged = 0;
        for ((f, a), (features, key)) in full.iter().zip(&ae_only).zip(&items) {
            // Each tier's batch matches its per-sample screen.
            assert_eq!(*f, soteria.screen_one(features, *key, false));
            assert_eq!(*a, soteria.screen_one(features, *key, true));
            match a {
                Verdict::Adversarial { .. } => {
                    // Where the detector answers, the fast tier must be
                    // bit-identical to the full pipeline.
                    assert_eq!(f, a);
                    flagged += 1;
                }
                Verdict::Degraded { reason } => {
                    assert_eq!(reason.slug(), "overload", "unexpected fault: {reason}");
                    assert!(
                        !f.is_degraded(),
                        "full path degraded where ae-only shed: {f:?}"
                    );
                }
                Verdict::Clean { .. } => panic!("ae-only tier can never answer Clean"),
            }
        }
        assert!(flagged > 0, "no adversarial sample in the batch");
    }

    #[test]
    fn a_panic_in_the_batched_math_degrades_only_its_sample() {
        let (soteria, corpus, test) = trained();
        let mut items = mixed_features(&soteria, &corpus, &test);
        let expected_full = soteria.screen_features_batch(&items);
        let expected_ae_only = soteria.screen_features_batch_ae_only(&items);
        // Features from an extractor of another width make the stacked
        // detector pass panic on ragged rows, and the per-sample pass on
        // the detector's input width.
        let graphs: Vec<&Cfg> = test.iter().map(|&i| corpus.samples()[i].graph()).collect();
        let other = FeatureExtractor::fit(&soteria_features::ExtractorConfig::small(), &graphs, 1);
        assert_ne!(other.combined_dim(), soteria.extractor().combined_dim());
        items.insert(2, (other.extract(graphs[0], 5), 5));
        for ae_only in [false, true] {
            let mut verdicts = if ae_only {
                soteria.screen_features_batch_ae_only(&items)
            } else {
                soteria.screen_features_batch(&items)
            };
            let bad = verdicts.remove(2);
            assert!(
                matches!(bad.fault(), Some(FaultKind::Panic { .. })),
                "mis-sized sample must degrade with a panic: {bad:?}"
            );
            let expected = if ae_only {
                &expected_ae_only
            } else {
                &expected_full
            };
            assert_eq!(&verdicts, expected, "ae_only = {ae_only}");
        }
    }

    #[test]
    fn empty_batches_screen_to_empty() {
        let (soteria, _, _) = trained();
        assert!(soteria.screen_many_seeded(&[]).is_empty());
        assert!(soteria.screen_features_batch(&[]).is_empty());
        assert!(soteria.screen_features_batch_ae_only(&[]).is_empty());
    }

    #[test]
    fn screen_binary_degrades_on_garbage_and_analyzes_real_binaries() {
        let (soteria, corpus, test) = trained();
        // Arbitrary bytes must never unwind out of the pipeline.
        let garbage = vec![0xA5u8; 64];
        let verdict = soteria.screen_binary(&garbage, 1);
        assert!(verdict.is_degraded(), "garbage must degrade: {verdict:?}");
        // A genuine corpus binary round-trips to a real verdict.
        let bytes = corpus.samples()[test[0]].binary().to_bytes();
        let verdict = soteria.screen_binary(&bytes, 2);
        assert!(!verdict.is_degraded(), "real binary degraded: {verdict:?}");
    }
}
