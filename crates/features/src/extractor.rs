//! The end-to-end feature extractor: labeling + walks + n-grams + TF-IDF.

use crate::fastpath::{self, FastTables};
use crate::labeling::{self, Labeling, NodeKeys};
use crate::ngram::{count_walk_set, GramCounts};
use crate::tfidf::Vocabulary;
use crate::walk;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use soteria_cfg::Cfg;
use soteria_resilience::{FaultKind, ResourceGuards};
use std::borrow::Borrow;
use std::panic::AssertUnwindSafe;
use std::sync::OnceLock;

/// Extraction parameters; defaults are the paper's.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractorConfig {
    /// Walk length as a multiple of `|V|` (paper: 5).
    pub walk_multiplier: usize,
    /// Walks per labeling (paper: 10, so 20 total).
    pub walks_per_labeling: usize,
    /// n-gram sizes (paper: 2, 3 and 4).
    pub ngram_sizes: Vec<usize>,
    /// Features kept per labeling (paper: 500).
    pub top_k: usize,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        ExtractorConfig {
            walk_multiplier: 5,
            walks_per_labeling: 10,
            ngram_sizes: vec![2, 3, 4],
            top_k: 500,
        }
    }
}

impl ExtractorConfig {
    /// A scaled-down configuration for fast tests and CI experiments.
    pub fn small() -> Self {
        ExtractorConfig {
            walk_multiplier: 3,
            walks_per_labeling: 4,
            ngram_sizes: vec![2, 3],
            top_k: 128,
        }
    }
}

/// Features of one sample: the per-walk vectors consumed by the voting
/// classifier and the combined vector consumed by the detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleFeatures {
    dbl_walks: Vec<Vec<f64>>,
    lbl_walks: Vec<Vec<f64>>,
    combined: Vec<f64>,
}

impl SampleFeatures {
    /// The ten (by default) DBL walk vectors, each `top_k` wide.
    pub fn dbl_walks(&self) -> &[Vec<f64>] {
        &self.dbl_walks
    }

    /// The ten LBL walk vectors.
    pub fn lbl_walks(&self) -> &[Vec<f64>] {
        &self.lbl_walks
    }

    /// The combined `2·top_k` detector vector (DBL half then LBL half).
    pub fn combined(&self) -> &[f64] {
        &self.combined
    }

    /// The walk vectors of one labeling.
    pub fn walks(&self, labeling: Labeling) -> &[Vec<f64>] {
        match labeling {
            Labeling::Density => &self.dbl_walks,
            Labeling::Level => &self.lbl_walks,
        }
    }
}

/// A fitted feature extractor (vocabularies frozen on the training split).
///
/// The random walks themselves remain random per extraction — that is the
/// paper's randomization defense — while the gram vocabulary and IDF
/// weights are deterministic given the fit seed.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    config: ExtractorConfig,
    dbl_vocab: Vocabulary,
    lbl_vocab: Vocabulary,
    /// The fast path's gram and prefix lookup tables, built lazily from the
    /// vocabularies; rebuilding is cheap and changes no observable state.
    fast: OnceLock<FastTables>,
}

/// Per-labeling gram bags for one sample.
struct SampleGrams {
    /// One bag per walk.
    per_walk: Vec<GramCounts>,
    /// All walks merged.
    merged: GramCounts,
}

impl FeatureExtractor {
    /// Walks + counts grams for one labeling of one (already
    /// reachability-restricted) graph.
    fn grams_for(
        config: &ExtractorConfig,
        cfg: &Cfg,
        labels: &[usize],
        rng: &mut ChaCha8Rng,
    ) -> SampleGrams {
        let walks = {
            let _span = soteria_telemetry::span("features.stage.walks");
            walk::walk_set(
                cfg,
                labels,
                config.walk_multiplier,
                config.walks_per_labeling,
                rng,
            )
        };
        let _span = soteria_telemetry::span("features.stage.ngrams");
        let per_walk: Vec<GramCounts> = walks
            .iter()
            .map(|w| count_walk_set(std::slice::from_ref(w), &config.ngram_sizes))
            .collect();
        let mut merged = GramCounts::new();
        for b in &per_walk {
            merged.merge(b);
        }
        SampleGrams { per_walk, merged }
    }

    /// Labels both ways and walks both labelings.
    fn both_grams(config: &ExtractorConfig, cfg: &Cfg, seed: u64) -> (SampleGrams, SampleGrams) {
        let (reachable, _) = cfg.reachable_subgraph();
        let (dbl, lbl) = {
            let _span = soteria_telemetry::span("features.stage.labeling");
            let keys = NodeKeys::compute(&reachable);
            let dbl = labeling::label_nodes_with(&reachable, Labeling::Density, &keys);
            let lbl = labeling::label_nodes_with(&reachable, Labeling::Level, &keys);
            (dbl, lbl)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let d = Self::grams_for(config, &reachable, &dbl, &mut rng);
        let l = Self::grams_for(config, &reachable, &lbl, &mut rng);
        (d, l)
    }

    /// Fits the DBL and LBL vocabularies on training graphs with a
    /// globally-frequent gram selection.
    ///
    /// `seed` drives the training walks; per-graph seeds are derived from
    /// it so results do not depend on iteration order (training samples are
    /// walked in parallel on the shared worker pool when it is warm).
    ///
    /// Accepts any slice of graphs, owned or borrowed (`&[Cfg]` and
    /// `&[&Cfg]` both work).
    pub fn fit<B: Borrow<Cfg> + Sync>(config: &ExtractorConfig, train: &[B], seed: u64) -> Self {
        let _span = soteria_telemetry::span("features.fit");
        soteria_telemetry::counter("features.fit.samples", train.len() as u64);
        let (dbl_docs, lbl_docs) = Self::train_documents(config, train, seed);
        let _tfidf = soteria_telemetry::span("features.stage.tfidf_fit");
        FeatureExtractor {
            config: config.clone(),
            dbl_vocab: Vocabulary::fit(&dbl_docs, config.top_k),
            lbl_vocab: Vocabulary::fit(&lbl_docs, config.top_k),
            fast: OnceLock::new(),
        }
    }

    /// Like [`fit`](FeatureExtractor::fit) but with class labels: the gram
    /// budget is stratified over the classes (the paper's "top
    /// discriminative grams"), so a majority family cannot crowd minority
    /// classes out of the vocabulary.
    ///
    /// # Panics
    ///
    /// Panics if `train` and `labels` lengths differ.
    pub fn fit_stratified<B: Borrow<Cfg> + Sync>(
        config: &ExtractorConfig,
        train: &[B],
        labels: &[usize],
        classes: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(train.len(), labels.len(), "train/labels mismatch");
        let _span = soteria_telemetry::span("features.fit");
        soteria_telemetry::counter("features.fit.samples", train.len() as u64);
        let (dbl_docs, lbl_docs) = Self::train_documents(config, train, seed);
        let _tfidf = soteria_telemetry::span("features.stage.tfidf_fit");
        FeatureExtractor {
            config: config.clone(),
            dbl_vocab: Vocabulary::fit_stratified(&dbl_docs, labels, classes, config.top_k),
            lbl_vocab: Vocabulary::fit_stratified(&lbl_docs, labels, classes, config.top_k),
            fast: OnceLock::new(),
        }
    }

    /// Walks every training sample and returns its merged DBL/LBL gram
    /// bags, in input order. Samples fan out over the shared worker pool
    /// when it is warm (per-sample derived seeds keep the result
    /// independent of scheduling).
    fn train_documents<B: Borrow<Cfg> + Sync>(
        config: &ExtractorConfig,
        train: &[B],
        seed: u64,
    ) -> (Vec<GramCounts>, Vec<GramCounts>) {
        soteria_pool::map(train, |i, graph| {
            let (d, l) = Self::both_grams(config, graph.borrow(), derive_seed(seed, i as u64));
            (d.merged, l.merged)
        })
        .into_iter()
        .unzip()
    }

    /// Rebuilds a fitted extractor from its configuration and fitted
    /// vocabularies (the binary artifact loader's constructor). The fast
    /// gram-lookup tables are rebuilt lazily on first use, exactly as
    /// after deserialization.
    pub fn from_parts(
        config: ExtractorConfig,
        dbl_vocab: Vocabulary,
        lbl_vocab: Vocabulary,
    ) -> Self {
        FeatureExtractor {
            config,
            dbl_vocab,
            lbl_vocab,
            fast: OnceLock::new(),
        }
    }

    /// The extraction configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Width of each per-labeling vector.
    pub fn per_labeling_dim(&self) -> usize {
        self.config.top_k
    }

    /// Width of the combined detector vector.
    pub fn combined_dim(&self) -> usize {
        2 * self.config.top_k
    }

    /// The fitted DBL vocabulary, in feature order (inspection and
    /// golden-fixture tooling).
    pub fn dbl_vocabulary(&self) -> &Vocabulary {
        &self.dbl_vocab
    }

    /// The fitted LBL vocabulary, in feature order.
    pub fn lbl_vocabulary(&self) -> &Vocabulary {
        &self.lbl_vocab
    }

    /// Extracts features for one sample. `seed` drives this sample's
    /// random walks — pass a fresh value per extraction to exercise the
    /// randomization property, or a fixed one for reproducible tests.
    ///
    /// Every emitted vector is L2-normalized (the standard companion of
    /// TF-IDF): raw term frequencies scale inversely with walk length, and
    /// normalization keeps clean vectors at unit magnitude so the
    /// auto-encoder and CNNs see well-conditioned inputs.
    ///
    /// Runs on the parallel fast path (per-walk RNG streams, arc-indexed
    /// gram counting, scratch arenas — see the `fastpath` module) and falls
    /// back to [`extract_reference`](Self::extract_reference) whenever the
    /// fast path cannot guarantee bit-identical output. Both paths produce the
    /// same bytes for the same `(cfg, seed)`.
    pub fn extract(&self, cfg: &Cfg, seed: u64) -> SampleFeatures {
        let _span = soteria_telemetry::span("features.extract");
        soteria_telemetry::counter("features.extracted", 1);
        let tables = self
            .fast
            .get_or_init(|| FastTables::build(&self.dbl_vocab, &self.lbl_vocab));
        if let Some(out) = fastpath::extract_fast(
            &self.config,
            &self.dbl_vocab,
            &self.lbl_vocab,
            tables,
            cfg,
            seed,
        ) {
            soteria_telemetry::counter("features.fastpath.hits", 1);
            return SampleFeatures {
                dbl_walks: out.dbl_walks,
                lbl_walks: out.lbl_walks,
                combined: out.combined,
            };
        }
        soteria_telemetry::counter("features.fastpath.fallbacks", 1);
        self.extract_reference(cfg, seed)
    }

    /// The sequential reference implementation of [`extract`](Self::extract):
    /// one RNG stream, materialized walks, hash-map gram counting. Retained
    /// verbatim as the differential oracle for the fast path's test battery
    /// and as the fallback when the fast path declines a sample.
    pub fn extract_reference(&self, cfg: &Cfg, seed: u64) -> SampleFeatures {
        let k = self.config.top_k;
        let (d, l) = Self::both_grams(&self.config, cfg, seed);
        let _tfidf = soteria_telemetry::span("features.stage.tfidf_transform");
        let dbl_walks = d
            .per_walk
            .iter()
            .map(|b| l2_normalized(self.dbl_vocab.transform_fixed(b, k)))
            .collect();
        let lbl_walks = l
            .per_walk
            .iter()
            .map(|b| l2_normalized(self.lbl_vocab.transform_fixed(b, k)))
            .collect();
        // The combined vector is one document over the concatenated
        // vocabulary, so it gets a single normalization — normalizing the
        // halves independently would blow sampling noise in a sparse half
        // up to unit magnitude.
        let mut combined = self.dbl_vocab.transform_fixed(&d.merged, k);
        combined.extend(self.lbl_vocab.transform_fixed(&l.merged, k));
        let combined = l2_normalized(combined);
        SampleFeatures {
            dbl_walks,
            lbl_walks,
            combined,
        }
    }

    /// Fallible extraction for one sample: admission control against
    /// `guards` (graph size, walk-step budget), chaos injection, panic
    /// isolation, and a post-hoc wall-clock check. A pathological graph
    /// yields an `Err(FaultKind)` instead of unwinding into the caller.
    pub fn try_extract(
        &self,
        cfg: &Cfg,
        seed: u64,
        guards: &ResourceGuards,
    ) -> Result<SampleFeatures, FaultKind> {
        let budget = guards.start_budget();
        guards.admit_graph(cfg.node_count(), cfg.edge_count())?;
        // Total steps this sample will walk: 2 labelings × walks ×
        // (multiplier · |V|) steps per walk.
        let steps = 2usize
            .saturating_mul(self.config.walks_per_labeling)
            .saturating_mul(self.config.walk_multiplier)
            .saturating_mul(cfg.node_count());
        guards.admit_walk_steps(steps)?;
        let features = soteria_resilience::isolate(AssertUnwindSafe(|| {
            soteria_resilience::chaos_point("features.extract", seed);
            self.extract(cfg, seed)
        }))?;
        budget.check()?;
        Ok(features)
    }

    /// Extracts features for many samples in parallel on the shared worker
    /// pool (deterministic per-sample seeds derived from `seed`). Accepts
    /// any slice of graphs, owned or borrowed.
    ///
    /// # Panics
    ///
    /// Panics if any sample faults. Batch callers that must survive bad
    /// samples use [`extract_batch_isolated`](Self::extract_batch_isolated).
    pub fn extract_batch<B: Borrow<Cfg> + Sync>(
        &self,
        graphs: &[B],
        seed: u64,
    ) -> Vec<SampleFeatures> {
        self.extract_batch_isolated(graphs, seed, &ResourceGuards::unlimited())
            .into_iter()
            .map(|r| r.unwrap_or_else(|fault| panic!("feature extraction failed: {fault}")))
            .collect()
    }

    /// Extracts features for many samples in parallel with per-sample fault
    /// isolation: a panic, oversized graph, or budget overrun in sample `i`
    /// yields `Err(FaultKind)` in slot `i` and leaves every other sample
    /// untouched. Seeds are derived per sample from `seed`, exactly as in
    /// [`extract_batch`](Self::extract_batch).
    ///
    /// Samples fan out over the shared worker pool ([`soteria_pool`]); the
    /// pool is warmed here so batch extraction is parallel by default, as
    /// the previous scoped-thread implementation was.
    pub fn extract_batch_isolated<B: Borrow<Cfg> + Sync>(
        &self,
        graphs: &[B],
        seed: u64,
        guards: &ResourceGuards,
    ) -> Vec<Result<SampleFeatures, FaultKind>> {
        let _span = soteria_telemetry::span("features.extract_batch");
        soteria_telemetry::counter("features.extract_batch.samples", graphs.len() as u64);
        if graphs.is_empty() {
            return Vec::new();
        }
        soteria_pool::warm();
        soteria_pool::map(graphs, |i, graph| {
            // try_extract already confines faults per sample; this outer
            // net turns a panic outside its isolation into this sample's
            // fault, where `map` would re-raise it for the whole batch.
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.try_extract(graph.borrow(), derive_seed(seed, i as u64), guards)
            }))
            .unwrap_or_else(|payload| {
                soteria_telemetry::counter("features.extract_batch.worker_deaths", 1);
                Err(FaultKind::from_panic(payload))
            })
        })
    }
}

/// L2-normalizes a vector in place (zero vectors pass through unchanged).
fn l2_normalized(mut v: Vec<f64>) -> Vec<f64> {
    let norm = v.iter().map(|&x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

/// SplitMix-style seed derivation so per-sample streams are independent.
fn derive_seed(master: u64, i: u64) -> u64 {
    let mut z = master ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_corpus::{Family, SampleGenerator};

    fn graphs(n: usize, family: Family, seed: u64) -> Vec<Cfg> {
        let mut gen = SampleGenerator::new(seed);
        (0..n)
            .map(|_| gen.generate(family).graph().clone())
            .collect()
    }

    fn fitted() -> (FeatureExtractor, Vec<Cfg>) {
        let train = graphs(6, Family::Gafgyt, 2);
        let ex = FeatureExtractor::fit(&ExtractorConfig::small(), &train, 0);
        (ex, train)
    }

    #[test]
    fn dimensions_match_config() {
        let (ex, train) = fitted();
        let f = ex.extract(&train[0], 1);
        assert_eq!(f.combined().len(), ex.combined_dim());
        assert_eq!(f.dbl_walks().len(), ex.config().walks_per_labeling);
        assert_eq!(f.lbl_walks().len(), ex.config().walks_per_labeling);
        for w in f.dbl_walks().iter().chain(f.lbl_walks()) {
            assert_eq!(w.len(), ex.per_labeling_dim());
        }
    }

    #[test]
    fn in_vocabulary_samples_have_nonzero_features() {
        let (ex, train) = fitted();
        let f = ex.extract(&train[0], 3);
        assert!(f.combined().iter().any(|&x| x > 0.0));
    }

    #[test]
    fn extraction_is_randomized_across_seeds() {
        let (ex, train) = fitted();
        let a = ex.extract(&train[0], 1);
        let b = ex.extract(&train[0], 2);
        assert_ne!(a.combined(), b.combined());
        // ...but deterministic for a fixed seed.
        let c = ex.extract(&train[0], 1);
        assert_eq!(a, c);
    }

    #[test]
    fn walks_accessor_selects_labeling() {
        let (ex, train) = fitted();
        let f = ex.extract(&train[0], 4);
        assert_eq!(f.walks(Labeling::Density), f.dbl_walks());
        assert_eq!(f.walks(Labeling::Level), f.lbl_walks());
    }

    #[test]
    fn unreachable_blocks_do_not_affect_features() {
        // Append a dead fragment at the binary level and re-extract: the
        // combined vectors must be identical for equal seeds.
        let mut gen = SampleGenerator::new(9);
        let sample = gen.generate(Family::Mirai);
        let (ex, _) = fitted();
        let clean = ex.extract(sample.graph(), 5);

        let mut binary = sample.binary().clone();
        let base = binary.code().len() as u32;
        binary.append_dead_code(&soteria_corpus::asm::dead_fragment(base, 3));
        let dirty = soteria_corpus::disasm::lift(&binary).unwrap();
        let dirty_features = ex.extract(&dirty.cfg, 5);
        assert_eq!(clean, dirty_features);
    }

    #[test]
    fn batch_matches_individual_extraction() {
        let (ex, train) = fitted();
        let refs: Vec<&Cfg> = train.iter().collect();
        let batch = ex.extract_batch(&refs, 7);
        for (i, f) in batch.iter().enumerate() {
            assert_eq!(f, &ex.extract(&train[i], derive_seed(7, i as u64)));
        }
    }

    #[test]
    fn empty_batch_extraction_is_empty() {
        let (ex, _) = fitted();
        assert!(ex
            .extract_batch_isolated::<Cfg>(&[], 0, &ResourceGuards::unlimited())
            .is_empty());
    }

    #[test]
    fn fit_is_deterministic() {
        let train = graphs(4, Family::Tsunami, 3);
        let a = FeatureExtractor::fit(&ExtractorConfig::small(), &train, 11);
        let b = FeatureExtractor::fit(&ExtractorConfig::small(), &train, 11);
        let g = &train[0];
        assert_eq!(a.extract(g, 0), b.extract(g, 0));
    }

    #[test]
    fn overflowing_path_counts_still_label_and_extract() {
        // 1100 if/else diamonds in series (3301 blocks) have 2^1100
        // shortest paths end to end. The f64 path total overflows, which
        // used to make every betweenness value NaN and panic the labeling
        // sort, so the sample escaped screening as Degraded.
        let mut b = soteria_cfg::CfgBuilder::new();
        let entry = b.add_block(0, 1);
        let mut top = entry;
        for i in 0..1100u64 {
            let then = b.add_block(3 * i + 1, 1);
            let other = b.add_block(3 * i + 2, 1);
            let join = b.add_block(3 * i + 3, 1);
            for (f, t) in [(top, then), (top, other), (then, join), (other, join)] {
                b.add_edge(f, t).unwrap();
            }
            top = join;
        }
        let g = b.build(entry).unwrap();
        for labeling in Labeling::BOTH {
            let mut labels = labeling::label_nodes(&g, labeling);
            labels.sort_unstable();
            assert!(labels.into_iter().eq(0..g.node_count()), "{labeling}");
        }
        let (ex, _) = fitted();
        assert!(ex.try_extract(&g, 1, &ResourceGuards::default()).is_ok());
    }

    #[test]
    fn different_families_get_different_features() {
        let mut train = graphs(4, Family::Mirai, 5);
        train.extend(graphs(4, Family::Benign, 6));
        let ex = FeatureExtractor::fit(&ExtractorConfig::small(), &train, 1);
        let m = ex.extract(&train[0], 0);
        let b = ex.extract(&train[4], 0);
        assert_ne!(m.combined(), b.combined());
    }
}
