//! Corpus assembly: samples, class distributions, and stratified
//! train/test splits.

use crate::avclass::{self, ScanPanel};
use crate::binary::Binary;
use crate::families::Family;
use crate::generator::SampleGenerator;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use soteria_cfg::Cfg;

/// One corpus entry: a named binary with its ground-truth class, its
/// AVClass-assigned label, and its lifted CFG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    name: String,
    family: Family,
    av_label: Family,
    binary: Binary,
    cfg: Cfg,
}

impl Sample {
    /// Assembles a sample from already-lifted parts. `av_label` starts
    /// equal to the ground truth; [`Corpus::generate`] overwrites it with
    /// the simulated AVClass verdict.
    pub fn from_parts(name: String, family: Family, binary: Binary, cfg: Cfg) -> Self {
        Sample {
            name,
            family,
            av_label: family,
            binary,
            cfg,
        }
    }

    /// Unique sample name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ground-truth class.
    pub fn family(&self) -> Family {
        self.family
    }

    /// The label the simulated VirusTotal/AVClass pipeline assigned (what a
    /// real experimenter would train on).
    pub fn av_label(&self) -> Family {
        self.av_label
    }

    /// Overrides the AV label (used by the labeling pipeline).
    pub fn set_av_label(&mut self, label: Family) {
        self.av_label = label;
    }

    /// The binary image.
    pub fn binary(&self) -> &Binary {
        &self.binary
    }

    /// The lifted CFG as cached at construction (may contain dead blocks).
    pub fn graph(&self) -> &Cfg {
        &self.cfg
    }

    /// Re-lifts the CFG from the binary (the canonical radare2-equivalent
    /// path). Tests use it to check the cache is honest, and
    /// `soteria_attacks::validate` re-lifts every crafted example with it,
    /// so it runs in production too.
    ///
    /// # Errors
    ///
    /// Propagates disassembly failures.
    pub fn cfg(&self) -> Result<Cfg, crate::CorpusError> {
        Ok(crate::disasm::lift(&self.binary)?.cfg)
    }
}

/// Corpus composition: how many samples of each class to generate.
///
/// The paper's corpus (Table II) back-solves from the per-class test counts
/// to Benign 3,000 / Gafgyt 11,085 / Mirai 2,365 / Tsunami 260 at an 80/20
/// split; [`CorpusConfig::paper`] uses those numbers and
/// [`CorpusConfig::scaled`] shrinks them proportionally for fast runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Per-class sample counts in [`Family::ALL`] order.
    pub counts: [usize; 4],
    /// Master RNG seed.
    pub seed: u64,
    /// Noise rate of the simulated AV panel (0 disables label noise).
    pub av_noise: bool,
    /// Variant lineages per family (see
    /// [`SampleGenerator::with_lineages`]). Small corpora should use
    /// proportionally few lineages so each base still has several
    /// variants.
    pub lineages: usize,
}

impl CorpusConfig {
    /// The paper-scale corpus: 16,710 samples.
    pub fn paper(seed: u64) -> Self {
        CorpusConfig {
            counts: [3000, 11085, 2365, 260],
            seed,
            av_noise: true,
            lineages: crate::generator::DEFAULT_LINEAGES,
        }
    }

    /// The paper corpus scaled by `factor`. Each class keeps at least 40
    /// samples so the smallest family still has enough train/test
    /// representation for per-class statistics (the paper's Tsunami class
    /// is tiny in relative terms but still has 260 samples).
    pub fn scaled(factor: f64, seed: u64) -> Self {
        let paper = Self::paper(seed);
        let counts = paper
            .counts
            .map(|c| ((c as f64 * factor).round() as usize).max(40).min(c));
        // Keep several variants per lineage for the smallest class.
        let min_class = counts.iter().min().copied().unwrap_or(40);
        let lineages = (min_class / 5).clamp(2, crate::generator::DEFAULT_LINEAGES);
        CorpusConfig {
            counts,
            seed,
            av_noise: true,
            lineages,
        }
    }

    /// Total sample count.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// A fully generated corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    samples: Vec<Sample>,
    config: CorpusConfig,
}

/// Index-based train/test partition of a [`Corpus`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Split {
    /// Indices of training samples.
    pub train: Vec<usize>,
    /// Indices of test samples.
    pub test: Vec<usize>,
}

impl Corpus {
    /// Generates the corpus described by `config`, including simulated
    /// AVClass labels for every malware sample.
    ///
    /// # Example
    ///
    /// ```
    /// use soteria_corpus::{Corpus, CorpusConfig};
    ///
    /// let corpus = Corpus::generate(&CorpusConfig::scaled(0.005, 7));
    /// assert_eq!(corpus.len(), corpus.config().total());
    /// ```
    pub fn generate(config: &CorpusConfig) -> Self {
        let mut gen = SampleGenerator::with_lineages(config.seed, config.lineages);
        let panel = ScanPanel::standard();
        let mut label_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xA5C1A55);
        let mut samples = Vec::with_capacity(config.total());
        for (fi, &count) in config.counts.iter().enumerate() {
            let family = Family::from_index(fi);
            for _ in 0..count {
                let mut s = gen.generate(family);
                if config.av_noise {
                    s.set_av_label(avclass::label_sample(&panel, family, &mut label_rng));
                }
                samples.push(s);
            }
        }
        Corpus {
            samples,
            config: *config,
        }
    }

    /// Wraps externally provided samples (e.g. loaded from disk) as a
    /// corpus. The config records the observed per-class counts.
    pub fn from_samples(samples: Vec<Sample>, seed: u64) -> Self {
        let mut counts = [0usize; 4];
        for s in &samples {
            counts[s.family().index()] += 1;
        }
        Corpus {
            samples,
            config: CorpusConfig {
                counts,
                seed,
                av_noise: false,
                lineages: crate::generator::DEFAULT_LINEAGES,
            },
        }
    }

    /// The generation config.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// All samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Per-class sample counts in [`Family::ALL`] order (by ground truth).
    pub fn class_counts(&self) -> [usize; 4] {
        let mut c = [0; 4];
        for s in &self.samples {
            c[s.family().index()] += 1;
        }
        c
    }

    /// Stratified split: `train_fraction` of each class goes to training,
    /// the rest to test, shuffled deterministically by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is not within `(0, 1)`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> Split {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for family in Family::ALL {
            let mut idx: Vec<usize> = (0..self.samples.len())
                .filter(|&i| self.samples[i].family() == family)
                .collect();
            idx.shuffle(&mut rng);
            let cut = ((idx.len() as f64) * train_fraction).round() as usize;
            train.extend_from_slice(&idx[..cut]);
            test.extend_from_slice(&idx[cut..]);
        }
        train.sort_unstable();
        test.sort_unstable();
        Split { train, test }
    }

    /// Samples of a class within an index set.
    pub fn of_class<'a>(&'a self, indices: &'a [usize], family: Family) -> Vec<&'a Sample> {
        indices
            .iter()
            .map(|&i| &self.samples[i])
            .filter(|s| s.family() == family)
            .collect()
    }

    /// Min / median / max node count of a class's samples (the paper's
    /// Small / Medium / Large GEA target sizes), `None` if the class is
    /// empty.
    pub fn size_quantiles(&self, family: Family) -> Option<(usize, usize, usize)> {
        let mut sizes: Vec<usize> = self
            .samples
            .iter()
            .filter(|s| s.family() == family)
            .map(|s| s.graph().node_count())
            .collect();
        if sizes.is_empty() {
            return None;
        }
        sizes.sort_unstable();
        Some((
            sizes[0],
            sizes[sizes.len() / 2],
            *sizes.last().expect("non-empty"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Corpus {
        Corpus::generate(&CorpusConfig {
            counts: [12, 20, 12, 10],
            seed: 5,
            av_noise: true,
            lineages: 4,
        })
    }

    #[test]
    fn generate_honors_counts() {
        let c = tiny();
        assert_eq!(c.class_counts(), [12, 20, 12, 10]);
        assert_eq!(c.len(), 54);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.samples()[0].binary(), b.samples()[0].binary());
        assert_eq!(a.samples()[31].name(), b.samples()[31].name());
    }

    #[test]
    fn split_is_stratified_and_disjoint() {
        let c = tiny();
        let split = c.split(0.8, 1);
        assert_eq!(split.train.len() + split.test.len(), c.len());
        let mut all: Vec<usize> = split.train.iter().chain(&split.test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), c.len(), "overlap between train and test");
        // Per class, test gets ~20%.
        for f in Family::ALL {
            let n_test = c.of_class(&split.test, f).len();
            let n_total = c.class_counts()[f.index()];
            let expect = (n_total as f64 * 0.2).round() as usize;
            assert!(
                (n_test as isize - expect as isize).abs() <= 1,
                "{f}: test {n_test}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn split_changes_with_seed_but_not_draw() {
        let c = tiny();
        assert_eq!(c.split(0.8, 9), c.split(0.8, 9));
        assert_ne!(c.split(0.8, 9), c.split(0.8, 10));
    }

    #[test]
    fn av_labels_mostly_match_truth() {
        let c = tiny();
        let agree = c
            .samples()
            .iter()
            .filter(|s| s.av_label() == s.family())
            .count();
        assert!(agree as f64 / c.len() as f64 > 0.9);
    }

    #[test]
    fn size_quantiles_are_ordered() {
        let c = tiny();
        for f in Family::ALL {
            let (lo, med, hi) = c.size_quantiles(f).expect("class present");
            assert!(lo <= med && med <= hi);
        }
    }

    #[test]
    fn paper_config_matches_documented_counts() {
        let cfg = CorpusConfig::paper(0);
        assert_eq!(cfg.counts, [3000, 11085, 2365, 260]);
        assert_eq!(cfg.total(), 16710);
    }

    #[test]
    fn scaled_config_keeps_minimums() {
        let cfg = CorpusConfig::scaled(0.0001, 0);
        assert!(cfg.counts.iter().all(|&c| c >= 10));
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn split_rejects_bad_fraction() {
        let c = tiny();
        let _ = c.split(1.0, 0);
    }

    #[test]
    fn sample_cfg_matches_cached_graph() {
        let c = tiny();
        let s = &c.samples()[0];
        assert_eq!(&s.cfg().unwrap(), s.graph());
    }
}
