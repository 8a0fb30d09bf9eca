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
use soteria_resilience::FaultKind;
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

/// Wall-clock breakdown of one pipeline run ([`Soteria::train_with_metrics`]
/// or [`Soteria::analyze_batch_with_metrics`]): the stages in execution
/// order, plus totals. Purely observational — computing it never changes
/// any result.
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

/// Collects stage timings and mirrors them into the global telemetry
/// registry under `prefix.stage`.
struct StageClock {
    prefix: &'static str,
    run_start: Instant,
    stages: Vec<StageTime>,
}

impl StageClock {
    fn start(prefix: &'static str) -> Self {
        StageClock {
            prefix,
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
            soteria_telemetry::record(&format!("{}.{name}", self.prefix), ms);
        }
        self.stages.push(StageTime {
            name: name.to_string(),
            ms,
        });
        out
    }

    fn finish(self, samples: usize) -> PipelineMetrics {
        let total_ms = self.run_start.elapsed().as_secs_f64() * 1e3;
        soteria_telemetry::record(self.prefix, total_ms);
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
        let mut clock = StageClock::start("pipeline.train");
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

    /// Shared access to the detector (model persistence).
    pub fn detector_ref(&self) -> &AeDetector {
        &self.detector
    }

    /// Shared access to the classifier (model persistence).
    pub fn classifier_ref(&self) -> &FamilyClassifier {
        &self.classifier
    }

    /// Mutable access to the detector (threshold sweeps).
    pub fn detector_mut(&mut self) -> &mut AeDetector {
        &mut self.detector
    }

    /// Mutable access to the classifier (per-model evaluation).
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
    pub fn analyze(&mut self, cfg: &Cfg, walk_seed: u64) -> Verdict {
        let _span = soteria_telemetry::span("pipeline.analyze");
        let guards = self.config.guards.clone();
        match self.extractor.try_extract(cfg, walk_seed, &guards) {
            Ok(features) => self.screen_isolated(&features, walk_seed),
            Err(fault) => degraded(fault),
        }
    }

    /// Analyzes many graphs at once: features are extracted in parallel
    /// (per-graph walk seeds derived from `walk_seed`), then screened and
    /// classified. Equivalent per graph to [`analyze`](Soteria::analyze)
    /// with derived seeds, but much faster on multi-core hosts. Faulting
    /// samples degrade individually; they never abort the batch.
    pub fn analyze_batch(&mut self, graphs: &[&Cfg], walk_seed: u64) -> Vec<Verdict> {
        self.analyze_batch_with_metrics(graphs, walk_seed).0
    }

    /// Like [`analyze_batch`](Soteria::analyze_batch), and additionally
    /// returns the wall-clock breakdown of the two stages (`extract`,
    /// `screen`).
    pub fn analyze_batch_with_metrics(
        &mut self,
        graphs: &[&Cfg],
        walk_seed: u64,
    ) -> (Vec<Verdict>, PipelineMetrics) {
        let mut clock = StageClock::start("pipeline.analyze_batch");
        let guards = self.config.guards.clone();
        let features = clock.stage("extract", || {
            self.extractor
                .extract_batch_isolated(graphs, walk_seed, &guards)
        });
        let verdicts = clock.stage("screen", || {
            features
                .into_iter()
                .enumerate()
                .map(|(i, f)| match f {
                    Ok(f) => self.screen_isolated(&f, walk_seed.wrapping_add(i as u64)),
                    Err(fault) => degraded(fault),
                })
                .collect::<Vec<_>>()
        });
        let metrics = clock.finish(graphs.len());
        (verdicts, metrics)
    }

    /// Analyzes many pre-lifted graphs with an explicit walk seed per
    /// graph — the attack-evaluation batch entry point: crafted
    /// adversarial samples arrive as `(graph, seed)` pairs whose seeds the
    /// harness derived per sample, so the derived-seed scheme of
    /// [`analyze_batch`](Soteria::analyze_batch) does not apply.
    ///
    /// Bit-identical per item to [`analyze`](Soteria::analyze)`(cfg, seed)`:
    /// extraction runs in parallel across the worker pool and screening in
    /// one batched forward pass, but every forward pass is row-independent
    /// and each sample keeps its seed as both walk seed and screen key.
    /// Faults degrade their sample only.
    pub fn analyze_graphs_seeded(&mut self, items: &[(&Cfg, u64)]) -> Vec<Verdict> {
        if items.is_empty() {
            return Vec::new();
        }
        let _span = soteria_telemetry::span("pipeline.analyze_graphs_seeded");
        soteria_telemetry::counter("pipeline.analyze_graphs_seeded.samples", items.len() as u64);
        let guards = self.config.guards.clone();
        let extractor = &self.extractor;
        let jobs = (soteria_nn::backend::warm() + 1).min(items.len());
        let chunk = items.len().div_ceil(jobs.max(1));
        let mut extracted: Vec<Option<Result<SampleFeatures, FaultKind>>> = vec![None; items.len()];
        let tasks: Vec<soteria_nn::backend::ScopedTask<'_>> = items
            .chunks(chunk)
            .zip(extracted.chunks_mut(chunk))
            .map(|(item_chunk, slot_chunk)| {
                let guards = &guards;
                Box::new(move || {
                    let worker = soteria_resilience::isolate(AssertUnwindSafe(|| {
                        for ((cfg, seed), slot) in item_chunk.iter().zip(slot_chunk) {
                            *slot = Some(extractor.try_extract(cfg, *seed, guards));
                        }
                    }));
                    if worker.is_err() {
                        soteria_telemetry::counter("pipeline.screen_many.worker_deaths", 1);
                    }
                }) as soteria_nn::backend::ScopedTask<'_>
            })
            .collect();
        soteria_nn::backend::run_scoped(tasks);

        let mut verdicts: Vec<Option<Verdict>> = vec![None; items.len()];
        let mut batch: Vec<(SampleFeatures, u64)> = Vec::new();
        let mut batch_indices: Vec<usize> = Vec::new();
        for (i, slot) in extracted.into_iter().enumerate() {
            match slot {
                Some(Ok(features)) => {
                    batch_indices.push(i);
                    batch.push((features, items[i].1));
                }
                Some(Err(fault)) => verdicts[i] = Some(degraded(fault)),
                None => {
                    verdicts[i] = Some(degraded(FaultKind::Panic {
                        message: "screening worker died before reaching this sample".to_owned(),
                    }))
                }
            }
        }
        let screened = self.screen_features_batch(&batch);
        for (i, verdict) in batch_indices.into_iter().zip(screened) {
            verdicts[i] = Some(verdict);
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every sample resolved"))
            .collect()
    }

    /// Runs the full pipeline on a serialized binary: parse → lift →
    /// analyze, with every failure mode — malformed container, undecodable
    /// reachable code, guard trips, stage panics — confined to a
    /// [`Verdict::Degraded`]. This is the serving-path entry point for
    /// untrusted input.
    pub fn screen_binary(&mut self, bytes: &[u8], walk_seed: u64) -> Verdict {
        let _span = soteria_telemetry::span("pipeline.screen_binary");
        let lifted = soteria_resilience::isolate(AssertUnwindSafe(|| {
            let binary = soteria_corpus::Binary::parse(bytes).map_err(FaultKind::from)?;
            let lifted = soteria_corpus::disasm::lift(&binary).map_err(FaultKind::from)?;
            Ok(lifted.cfg)
        }));
        match lifted {
            Ok(Ok(cfg)) => self.analyze(&cfg, walk_seed),
            Ok(Err(fault)) | Err(fault) => degraded(fault),
        }
    }

    /// Screens pre-extracted features with the screen stage confined: a
    /// panic (organic or chaos-injected) in the detector or classifier
    /// degrades this sample only.
    fn screen_isolated(&mut self, features: &SampleFeatures, key: u64) -> Verdict {
        let result = soteria_resilience::isolate(AssertUnwindSafe(|| {
            soteria_resilience::chaos_point("pipeline.screen", key);
            self.analyze_features(features)
        }));
        match result {
            Ok(verdict) => verdict,
            Err(fault) => degraded(fault),
        }
    }

    /// Screens many serialized binaries in one call: parse, lift, and
    /// feature extraction run in parallel across worker threads, then the
    /// detector and classifier each run a single batched forward pass over
    /// every surviving sample (so the threaded matmul in `soteria-nn`
    /// amortizes across the batch). Per-sample walk seeds are derived as
    /// `walk_seed.wrapping_add(i)`.
    ///
    /// Bit-identical per item to calling
    /// [`screen_binary`](Soteria::screen_binary)`(bytes[i], walk_seed + i)`
    /// sequentially: every forward pass is row-independent, so batching is
    /// purely a throughput optimization. Faults degrade their sample only.
    pub fn screen_many(&mut self, binaries: &[&[u8]], walk_seed: u64) -> Vec<Verdict> {
        let items: Vec<(&[u8], u64)> = binaries
            .iter()
            .enumerate()
            .map(|(i, &bytes)| (bytes, walk_seed.wrapping_add(i as u64)))
            .collect();
        self.screen_many_seeded(&items)
    }

    /// [`screen_many`](Soteria::screen_many) with an explicit walk seed per
    /// binary. This is the serving-path batch entry point: the screening
    /// service derives each seed from the sample's content so verdicts are
    /// a pure function of the bytes.
    pub fn screen_many_seeded(&mut self, items: &[(&[u8], u64)]) -> Vec<Verdict> {
        if items.is_empty() {
            return Vec::new();
        }
        let _span = soteria_telemetry::span("pipeline.screen_many");
        soteria_telemetry::counter("pipeline.screen_many.samples", items.len() as u64);
        let guards = self.config.guards.clone();
        let extractor = &self.extractor;
        // Extraction chunks run on the shared soteria-nn worker pool (the
        // same threads the batched forward passes below will use), with the
        // calling thread participating as one more worker.
        let jobs = (soteria_nn::backend::warm() + 1).min(items.len());
        let chunk = items.len().div_ceil(jobs.max(1));
        let mut extracted: Vec<Option<Result<SampleFeatures, FaultKind>>> = vec![None; items.len()];
        let tasks: Vec<soteria_nn::backend::ScopedTask<'_>> = items
            .chunks(chunk)
            .zip(extracted.chunks_mut(chunk))
            .map(|(item_chunk, slot_chunk)| {
                let guards = &guards;
                Box::new(move || {
                    // Every stage below is isolated per sample, so this
                    // outer isolate tripping is unexpected — but it keeps a
                    // stray panic from poisoning the pool barrier; the
                    // chunk's unfilled slots degrade individually below.
                    let worker = soteria_resilience::isolate(AssertUnwindSafe(|| {
                        for ((bytes, seed), slot) in item_chunk.iter().zip(slot_chunk) {
                            let lifted = soteria_resilience::isolate(AssertUnwindSafe(|| {
                                let binary = soteria_corpus::Binary::parse(bytes)
                                    .map_err(FaultKind::from)?;
                                let lifted = soteria_corpus::disasm::lift(&binary)
                                    .map_err(FaultKind::from)?;
                                Ok(lifted.cfg)
                            }));
                            *slot = Some(match lifted {
                                Ok(Ok(cfg)) => extractor.try_extract(&cfg, *seed, guards),
                                Ok(Err(fault)) | Err(fault) => Err(fault),
                            });
                        }
                    }));
                    if worker.is_err() {
                        soteria_telemetry::counter("pipeline.screen_many.worker_deaths", 1);
                    }
                }) as soteria_nn::backend::ScopedTask<'_>
            })
            .collect();
        soteria_nn::backend::run_scoped(tasks);

        let mut verdicts: Vec<Option<Verdict>> = vec![None; items.len()];
        let mut batch: Vec<(SampleFeatures, u64)> = Vec::new();
        let mut batch_indices: Vec<usize> = Vec::new();
        for (i, slot) in extracted.into_iter().enumerate() {
            match slot {
                Some(Ok(features)) => {
                    batch_indices.push(i);
                    batch.push((features, items[i].1));
                }
                Some(Err(fault)) => verdicts[i] = Some(degraded(fault)),
                None => {
                    verdicts[i] = Some(degraded(FaultKind::Panic {
                        message: "screening worker died before reaching this sample".to_owned(),
                    }))
                }
            }
        }
        let screened = self.screen_features_batch(&batch);
        for (i, verdict) in batch_indices.into_iter().zip(screened) {
            verdicts[i] = Some(verdict);
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every sample resolved"))
            .collect()
    }

    /// Screens many pre-extracted feature sets in one batched pass: the
    /// detector computes every reconstruction error from one stacked matrix
    /// and the classifier's two CNNs each run a single forward pass over
    /// all surviving samples. Each item carries its own screen key (chaos
    /// gate + provenance); a fault degrades that item only.
    ///
    /// Bit-identical per item to the per-sample screen path — every layer's
    /// forward pass is row-independent, so stacking rows cannot change any
    /// output bit.
    pub fn screen_features_batch(&mut self, items: &[(SampleFeatures, u64)]) -> Vec<Verdict> {
        if items.is_empty() {
            return Vec::new();
        }
        let _span = soteria_telemetry::span("pipeline.screen_features_batch");
        soteria_telemetry::record("pipeline.screen_batch_size", items.len() as f64);
        let mut verdicts: Vec<Option<Verdict>> = vec![None; items.len()];
        // Run each sample's chaos gate first, isolated, so an injected
        // fault degrades its sample exactly as on the per-sample path.
        let mut live: Vec<usize> = Vec::with_capacity(items.len());
        for (i, (_, key)) in items.iter().enumerate() {
            let gate = soteria_resilience::isolate(AssertUnwindSafe(|| {
                soteria_resilience::chaos_point("pipeline.screen", *key);
            }));
            match gate {
                Ok(()) => live.push(i),
                Err(fault) => verdicts[i] = Some(degraded(fault)),
            }
        }
        if !live.is_empty() {
            let batched = soteria_resilience::isolate(AssertUnwindSafe(|| {
                let rows: Vec<&[f64]> = live.iter().map(|&i| items[i].0.combined()).collect();
                let errors = self.detector.reconstruction_errors_of(&rows);
                let threshold = self.detector.stats().threshold();
                let mut resolved: Vec<(usize, Verdict)> = Vec::with_capacity(live.len());
                let mut clean: Vec<(usize, f64)> = Vec::new();
                for (idx, &i) in live.iter().enumerate() {
                    let re = errors[idx];
                    if re > threshold {
                        soteria_telemetry::counter("pipeline.verdicts.adversarial", 1);
                        resolved.push((
                            i,
                            Verdict::Adversarial {
                                reconstruction_error: re,
                            },
                        ));
                    } else {
                        clean.push((i, re));
                    }
                }
                let clean_features: Vec<&SampleFeatures> =
                    clean.iter().map(|&(i, _)| &items[i].0).collect();
                let reports = self.classifier.classify_batch(&clean_features);
                for (&(i, re), report) in clean.iter().zip(reports) {
                    soteria_telemetry::counter("pipeline.verdicts.clean", 1);
                    resolved.push((
                        i,
                        Verdict::Clean {
                            family: report.voted_label,
                            reconstruction_error: re,
                            report,
                        },
                    ));
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
                    // isolated path so each resolves (or degrades) on its
                    // own. The chaos gate already passed for these keys and
                    // is deterministic, so it passes again.
                    for &i in &live {
                        verdicts[i] = Some(self.screen_isolated(&items[i].0, items[i].1));
                    }
                }
            }
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every item resolved"))
            .collect()
    }

    /// The brownout fast path: runs **only the AE detector** over a batch
    /// of pre-extracted features, skipping the (much heavier) ensemble
    /// classifier entirely.
    ///
    /// For samples the detector flags (reconstruction error above
    /// threshold) the full pipeline never consults the classifier — see
    /// [`analyze_features`](Soteria::analyze_features) — so the
    /// `Adversarial` verdicts returned here are **bit-identical** to what
    /// the full path would produce, and safe to cache under the sample's
    /// content key. Samples the detector passes would normally go on to
    /// classification; here they return
    /// `Degraded(FaultKind::Overload { tier: "ae-only" })` instead, which
    /// is load-derived and must never be cached.
    ///
    /// Faults (chaos gates, detector panics) degrade their sample only,
    /// mirroring [`screen_features_batch`](Soteria::screen_features_batch).
    pub fn screen_features_batch_ae_only(
        &mut self,
        items: &[(SampleFeatures, u64)],
    ) -> Vec<Verdict> {
        if items.is_empty() {
            return Vec::new();
        }
        let _span = soteria_telemetry::span("pipeline.screen_ae_only");
        soteria_telemetry::counter("pipeline.screen_ae_only.samples", items.len() as u64);
        let mut verdicts: Vec<Option<Verdict>> = vec![None; items.len()];
        // Same per-sample chaos gate (and stage name) as the full path, so
        // a chaos schedule injects identically into both tiers.
        let mut live: Vec<usize> = Vec::with_capacity(items.len());
        for (i, (_, key)) in items.iter().enumerate() {
            let gate = soteria_resilience::isolate(AssertUnwindSafe(|| {
                soteria_resilience::chaos_point("pipeline.screen", *key);
            }));
            match gate {
                Ok(()) => live.push(i),
                Err(fault) => verdicts[i] = Some(degraded(fault)),
            }
        }
        if !live.is_empty() {
            let batched = soteria_resilience::isolate(AssertUnwindSafe(|| {
                let rows: Vec<&[f64]> = live.iter().map(|&i| items[i].0.combined()).collect();
                let errors = self.detector.reconstruction_errors_of(&rows);
                let threshold = self.detector.stats().threshold();
                live.iter()
                    .zip(errors)
                    .map(|(&i, re)| {
                        if re > threshold {
                            soteria_telemetry::counter("pipeline.verdicts.adversarial", 1);
                            (
                                i,
                                Verdict::Adversarial {
                                    reconstruction_error: re,
                                },
                            )
                        } else {
                            (
                                i,
                                degraded(FaultKind::Overload {
                                    tier: "ae-only".to_owned(),
                                }),
                            )
                        }
                    })
                    .collect::<Vec<_>>()
            }));
            match batched {
                Ok(resolved) => {
                    for (i, verdict) in resolved {
                        verdicts[i] = Some(verdict);
                    }
                }
                Err(fault) => {
                    // Detector panics are rare enough that attributing the
                    // whole sub-batch is acceptable for a shedding tier.
                    for &i in &live {
                        verdicts[i] = Some(degraded(fault.clone()));
                    }
                }
            }
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every item resolved"))
            .collect()
    }

    /// Runs detector + classifier on pre-extracted features (the reuse
    /// path).
    pub fn analyze_features(&mut self, features: &SampleFeatures) -> Verdict {
        let re = self.detector.reconstruction_error(features.combined());
        if re > self.detector.stats().threshold() {
            soteria_telemetry::counter("pipeline.verdicts.adversarial", 1);
            return Verdict::Adversarial {
                reconstruction_error: re,
            };
        }
        let report = self.classifier.classify(features);
        soteria_telemetry::counter("pipeline.verdicts.clean", 1);
        Verdict::Clean {
            family: report.voted_label,
            reconstruction_error: re,
            report,
        }
    }
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

    #[test]
    fn most_clean_test_samples_pass_the_detector() {
        let (mut soteria, corpus, test) = trained();
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
        let (mut soteria, corpus, test) = trained();
        let selection = TargetSelection::select(&corpus);
        let target = selection.sample(
            &corpus,
            selection
                .target(Family::Benign, soteria_gea::SizeClass::Large)
                .unwrap(),
        );
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
    fn analyze_graphs_seeded_matches_per_sample_analyze() {
        let (mut soteria, corpus, test) = trained();
        // Arbitrary, non-consecutive seeds — the crafted-sample screening
        // path uses harness-derived seeds, not an offset scheme.
        let items: Vec<(&Cfg, u64)> = test
            .iter()
            .map(|&i| {
                (
                    corpus.samples()[i].graph(),
                    (i as u64).wrapping_mul(0x9e37) ^ 0xA77,
                )
            })
            .collect();
        let sequential: Vec<Verdict> = items
            .iter()
            .map(|&(cfg, seed)| soteria.analyze(cfg, seed))
            .collect();
        let batched = soteria.analyze_graphs_seeded(&items);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn clean_verdicts_carry_reports() {
        let (mut soteria, corpus, test) = trained();
        for &i in &test {
            if let Verdict::Clean {
                family,
                report,
                reconstruction_error,
            } = soteria.analyze(corpus.samples()[i].graph(), i as u64)
            {
                assert_eq!(family, report.voted_label);
                assert!(reconstruction_error <= soteria.detector_mut().stats().threshold());
                return;
            }
        }
        panic!("no clean verdict in the whole test split");
    }

    #[test]
    fn analyze_batch_runs_every_graph() {
        let (mut soteria, corpus, test) = trained();
        let graphs: Vec<&soteria_cfg::Cfg> =
            test.iter().map(|&i| corpus.samples()[i].graph()).collect();
        let verdicts = soteria.analyze_batch(&graphs, 99);
        assert_eq!(verdicts.len(), graphs.len());
        // Most clean samples pass (same invariant as the per-sample path).
        let passed = verdicts.iter().filter(|v| !v.is_adversarial()).count();
        assert!(passed * 10 >= verdicts.len() * 5);
    }

    #[test]
    fn feature_reuse_path_matches_analyze() {
        let (mut soteria, corpus, test) = trained();
        let g = corpus.samples()[test[0]].graph();
        let features = soteria.features(g, 7);
        let a = soteria.analyze_features(&features);
        let b = soteria.analyze(g, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn train_and_analyze_metrics_cover_all_stages() {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [8, 8, 8, 8],
            seed: 77,
            av_noise: false,
            lineages: 3,
        });
        let split = corpus.split(0.75, 1);
        let (mut soteria, train_metrics) =
            Soteria::train_with_metrics(&SoteriaConfig::tiny(), &corpus, &split.train, 5)
                .expect("train");
        assert_eq!(train_metrics.samples, split.train.len());
        for stage in ["fit", "extract", "detector", "classifier"] {
            assert!(
                train_metrics.stage_ms(stage).is_some_and(|ms| ms >= 0.0),
                "missing stage {stage}"
            );
        }
        // Stages nest inside the run, so their sum cannot exceed it.
        let stage_sum: f64 = train_metrics.stages.iter().map(|s| s.ms).sum();
        assert!(stage_sum <= train_metrics.total_ms + 1.0);
        assert!(train_metrics.samples_per_sec() > 0.0);

        let graphs: Vec<&Cfg> = split
            .test
            .iter()
            .map(|&i| corpus.samples()[i].graph())
            .collect();
        let (verdicts, analyze_metrics) = soteria.analyze_batch_with_metrics(&graphs, 3);
        assert_eq!(verdicts.len(), graphs.len());
        assert_eq!(analyze_metrics.samples, graphs.len());
        assert!(analyze_metrics.stage_ms("extract").is_some());
        assert!(analyze_metrics.stage_ms("screen").is_some());
        assert!(analyze_metrics.stage_ms("no_such_stage").is_none());
    }

    #[test]
    fn verdicts_are_identical_with_telemetry_on_and_off() {
        // Telemetry must be purely observational: toggling it cannot
        // change a single verdict bit. Train once, then compare full
        // analyze_batch output under both settings.
        let (mut soteria, corpus, test) = trained();
        let graphs: Vec<&Cfg> = test.iter().map(|&i| corpus.samples()[i].graph()).collect();
        let was_enabled = soteria_telemetry::enabled();
        soteria_telemetry::set_enabled(true);
        let with_telemetry = soteria.analyze_batch(&graphs, 42);
        soteria_telemetry::set_enabled(false);
        let without_telemetry = soteria.analyze_batch(&graphs, 42);
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
    fn screen_many_is_bit_identical_to_sequential_screen_binary() {
        let (mut soteria, corpus, test) = trained();
        let mut binaries: Vec<Vec<u8>> = test
            .iter()
            .take(6)
            .map(|&i| corpus.samples()[i].binary().to_bytes())
            .collect();
        // A malformed sample in the middle must degrade alone.
        binaries.insert(3, vec![0xA5u8; 64]);
        let refs: Vec<&[u8]> = binaries.iter().map(Vec::as_slice).collect();
        let batched = soteria.screen_many(&refs, 41);
        let sequential: Vec<Verdict> = refs
            .iter()
            .enumerate()
            .map(|(i, bytes)| soteria.screen_binary(bytes, 41u64.wrapping_add(i as u64)))
            .collect();
        assert_eq!(batched, sequential);
        assert!(batched[3].is_degraded());
        assert!(batched.iter().filter(|v| !v.is_degraded()).count() >= 4);
    }

    #[test]
    fn seeded_batch_screening_matches_one_by_one_extraction() {
        // Batch extraction (worker-pool fan-out, fast path) vs one-by-one
        // screening with the same explicit per-item seeds: verdicts — and
        // therefore the underlying feature vectors — must be bit-identical
        // through `screen_many_seeded`, including non-consecutive seeds the
        // `screen_many` wrapper would never produce.
        let (mut soteria, corpus, test) = trained();
        let binaries: Vec<Vec<u8>> = test
            .iter()
            .take(5)
            .map(|&i| corpus.samples()[i].binary().to_bytes())
            .collect();
        let items: Vec<(&[u8], u64)> = binaries
            .iter()
            .enumerate()
            .map(|(i, b)| (b.as_slice(), 0xC0FF_EE00 ^ (i as u64).wrapping_mul(0x9E37)))
            .collect();
        let batched = soteria.screen_many_seeded(&items);
        let sequential: Vec<Verdict> = items
            .iter()
            .map(|(bytes, seed)| soteria.screen_binary(bytes, *seed))
            .collect();
        assert_eq!(batched, sequential);
        assert!(batched.iter().all(|v| !v.is_degraded()));
    }

    #[test]
    fn screen_features_batch_matches_per_sample_screen() {
        let (mut soteria, corpus, test) = trained();
        let items: Vec<(soteria_features::SampleFeatures, u64)> = test
            .iter()
            .take(5)
            .map(|&i| {
                let seed = 300 + i as u64;
                (soteria.features(corpus.samples()[i].graph(), seed), seed)
            })
            .collect();
        let batched = soteria.screen_features_batch(&items);
        for ((features, key), batched_verdict) in items.iter().zip(&batched) {
            let single = soteria.screen_isolated(features, *key);
            assert_eq!(*batched_verdict, single);
        }
    }

    #[test]
    fn ae_only_tier_is_bit_identical_where_it_answers() {
        let (mut soteria, corpus, test) = trained();
        // Mix clean test samples with GEA-merged ones so both detector
        // outcomes appear in one batch.
        let selection = TargetSelection::select(&corpus);
        let target = selection.sample(
            &corpus,
            selection
                .target(Family::Benign, soteria_gea::SizeClass::Large)
                .unwrap(),
        );
        let malicious: Vec<usize> = test
            .iter()
            .copied()
            .filter(|&i| corpus.samples()[i].family() != Family::Benign)
            .take(3)
            .collect();
        let mut items: Vec<(soteria_features::SampleFeatures, u64)> = Vec::new();
        for &i in test.iter().take(3) {
            let seed = 900 + i as u64;
            items.push((soteria.features(corpus.samples()[i].graph(), seed), seed));
        }
        for &i in &malicious {
            let seed = 1900 + i as u64;
            let merged = gea_merge(&corpus.samples()[i], target).unwrap();
            items.push((soteria.features(merged.sample().graph(), seed), seed));
        }
        let full = soteria.screen_features_batch(&items);
        let ae_only = soteria.screen_features_batch_ae_only(&items);
        let mut flagged = 0;
        for (f, a) in full.iter().zip(&ae_only) {
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
    fn empty_batches_screen_to_empty() {
        let (mut soteria, _, _) = trained();
        assert!(soteria.screen_many(&[], 0).is_empty());
        assert!(soteria.screen_features_batch(&[]).is_empty());
        assert!(soteria.screen_features_batch_ae_only(&[]).is_empty());
    }

    #[test]
    fn screen_binary_degrades_on_garbage_and_analyzes_real_binaries() {
        let (mut soteria, corpus, test) = trained();
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
