//! Detector-aware adaptive attacks and the §V probe wrappers.
//!
//! [`AdaptiveAttack`] models the strongest adversary in the threat model:
//! one who holds a copy of the trained autoencoder. It first embeds a
//! target via GEA (to flip the classifier), then greedily applies
//! structural edits that minimize the detector's reconstruction error —
//! under an explicit edit budget, since unbounded rewriting leaves the
//! functionality-preservation story behind.
//!
//! The probe wrappers ([`LowDensityInsert`], [`BlockSplit`],
//! [`Obfuscate`]) lift the `soteria_gea::adaptive` manipulations into the
//! [`Attack`] trait *without changing a byte of their output*: the
//! experiment harness routes through them and must re-emit its historical
//! CSVs unchanged.

use crate::{edits, Attack, AttackKind, CraftedSample};
use soteria::AeDetector;
use soteria_cfg::Cfg;
use soteria_corpus::{asm, corpus::Sample, CorpusError, SampleGenerator};
use soteria_features::FeatureExtractor;
use soteria_gea::{adaptive, gea_merge, SizeClass};

/// Clones a trained detector through its persistence spec (the detector
/// itself is deliberately not `Clone`; an adversary holding a copy is an
/// explicit modeling decision, so the copy goes through the same
/// serialization a leaked model file would).
fn clone_detector(detector: &AeDetector) -> AeDetector {
    let spec =
        soteria_nn::persist::spec_of(detector.model()).expect("autoencoder layers are persistable");
    AeDetector::from_parts(
        spec.into_sequential(),
        detector.stats(),
        detector.config().clone(),
    )
}

/// GEA embedding followed by budgeted reconstruction-error minimization
/// against a copy of the trained detector.
#[derive(Debug)]
pub struct AdaptiveAttack {
    target: Sample,
    size: SizeClass,
    extractor: FeatureExtractor,
    detector: AeDetector,
    budget: usize,
}

impl AdaptiveAttack {
    /// An adversary that embeds `target`, holds copies of `extractor` and
    /// `detector`, and spends at most `budget` greedy edits lowering the
    /// reconstruction error of the merged graph.
    pub fn new(
        target: &Sample,
        size: SizeClass,
        extractor: &FeatureExtractor,
        detector: &AeDetector,
        budget: usize,
    ) -> Self {
        AdaptiveAttack {
            target: target.clone(),
            size,
            extractor: extractor.clone(),
            detector: clone_detector(detector),
            budget,
        }
    }

    fn reconstruction_error(&self, g: &Cfg, seed: u64) -> f64 {
        let f = self.extractor.extract(g, seed);
        self.detector.reconstruction_error(f.combined())
    }
}

impl Attack for AdaptiveAttack {
    fn name(&self) -> String {
        format!(
            "adaptive({}/{},e={})",
            self.target.family(),
            self.size,
            self.budget
        )
    }

    fn kind(&self) -> AttackKind {
        AttackKind::Adaptive
    }

    fn budget(&self) -> Option<usize> {
        Some(self.budget)
    }

    fn craft(&self, original: &Sample, seed: u64) -> Result<CraftedSample, CorpusError> {
        let merged = gea_merge(original, &self.target)?;
        let mut current = merged.sample().graph().clone();
        let mut current_re = self.reconstruction_error(&current, seed);
        let mut spent = 0usize;
        while spent < self.budget {
            let mut best: Option<(f64, Cfg)> = None;
            for cand in edits::candidates(&current) {
                let re = self.reconstruction_error(&cand, seed);
                if best.as_ref().is_none_or(|(b, _)| re < *b) {
                    best = Some((re, cand));
                }
            }
            match best {
                Some((re, cfg)) if re < current_re => {
                    current = cfg;
                    current_re = re;
                    spent += 1;
                }
                _ => break,
            }
        }
        let lowered = asm::assemble(&current);
        let sample = SampleGenerator::lift(
            format!("adaptive[{}]", original.name()),
            original.family(),
            lowered.binary,
        )?;
        Ok(
            CraftedSample::new(original, sample, Some(self.target.family()))
                .with_refinement_edits(spent),
        )
    }
}

/// §V probe: a single low-density block after the exit. Byte-identical to
/// [`soteria_gea::adaptive::insert_low_density_block`]; the seed is
/// unused because the manipulation is deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowDensityInsert;

impl Attack for LowDensityInsert {
    fn name(&self) -> String {
        "probe(lowdensity)".into()
    }

    fn kind(&self) -> AttackKind {
        AttackKind::Probe
    }

    fn craft(&self, original: &Sample, _seed: u64) -> Result<CraftedSample, CorpusError> {
        let sample = adaptive::insert_low_density_block(original)?;
        Ok(CraftedSample::new(original, sample, None))
    }
}

/// §V probe: split `count` blocks. Byte-identical to
/// [`soteria_gea::adaptive::split_blocks`]`(original, count, seed)`.
#[derive(Debug, Clone, Copy)]
pub struct BlockSplit {
    count: usize,
}

impl BlockSplit {
    /// Splits `count` randomly chosen multi-instruction blocks.
    pub fn new(count: usize) -> Self {
        BlockSplit { count }
    }
}

impl Attack for BlockSplit {
    fn name(&self) -> String {
        format!("probe(blocksplit,n={})", self.count)
    }

    fn kind(&self) -> AttackKind {
        AttackKind::Probe
    }

    fn craft(&self, original: &Sample, seed: u64) -> Result<CraftedSample, CorpusError> {
        let sample = adaptive::split_blocks(original, self.count, seed)?;
        Ok(CraftedSample::new(original, sample, None))
    }
}

/// §V probe: hide a fraction of the blocks from the lifter. Byte-identical
/// to [`soteria_gea::adaptive::obfuscate`]`(original, fraction, seed)`.
#[derive(Debug, Clone, Copy)]
pub struct Obfuscate {
    hidden_fraction: f64,
}

impl Obfuscate {
    /// Hides `hidden_fraction` (in `[0, 1)`) of the blocks.
    pub fn new(hidden_fraction: f64) -> Self {
        Obfuscate { hidden_fraction }
    }
}

impl Attack for Obfuscate {
    fn name(&self) -> String {
        format!("probe(obfuscate,f={:.1})", self.hidden_fraction)
    }

    fn kind(&self) -> AttackKind {
        AttackKind::Probe
    }

    fn craft(&self, original: &Sample, seed: u64) -> Result<CraftedSample, CorpusError> {
        let sample = adaptive::obfuscate(original, self.hidden_fraction, seed)?;
        Ok(CraftedSample::new(original, sample, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria::{DetectorConfig, SoteriaConfig};
    use soteria_corpus::Family;
    use soteria_features::ExtractorConfig;

    fn setup() -> (FeatureExtractor, AeDetector, Sample, Sample) {
        let mut gen = SampleGenerator::new(55);
        let clean: Vec<Sample> = (0..6).map(|_| gen.generate(Family::Benign)).collect();
        let graphs: Vec<Cfg> = clean.iter().map(|s| s.graph().clone()).collect();
        let extractor = FeatureExtractor::fit(&ExtractorConfig::small(), &graphs, 5);
        let features: Vec<Vec<f64>> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| extractor.extract(g, i as u64).combined().to_vec())
            .collect();
        let config = DetectorConfig {
            epochs: 3,
            ..SoteriaConfig::tiny().detector
        };
        let detector = AeDetector::train(&config, &features, 9);
        let target = clean[0].clone();
        let original = gen.generate(Family::Mirai);
        (extractor, detector, target, original)
    }

    #[test]
    fn adaptive_attack_respects_its_budget_and_never_raises_re() {
        let (extractor, detector, target, original) = setup();
        let attack = AdaptiveAttack::new(&target, SizeClass::Small, &extractor, &detector, 3);
        let crafted = attack.craft(&original, 11).unwrap();
        assert!(crafted.cost().refinement_edits <= 3);

        // The refined AE's reconstruction error is never above the plain
        // GEA merge's (the greedy loop only adopts strict improvements).
        let merged = gea_merge(&original, &target).unwrap();
        let f_merged = extractor.extract(merged.sample().graph(), 11);
        let f_refined = extractor.extract(crafted.sample().graph(), 11);
        let re_merged = detector.reconstruction_error(f_merged.combined());
        let re_refined = detector.reconstruction_error(f_refined.combined());
        assert!(re_refined <= re_merged, "{re_refined} > {re_merged}");
    }

    #[test]
    fn adaptive_attack_is_reproducible() {
        let (extractor, detector, target, original) = setup();
        let attack = AdaptiveAttack::new(&target, SizeClass::Small, &extractor, &detector, 2);
        let a = attack.craft(&original, 4).unwrap();
        let b = attack.craft(&original, 4).unwrap();
        assert_eq!(
            a.sample().binary().to_bytes(),
            b.sample().binary().to_bytes()
        );
    }

    #[test]
    fn probes_match_the_direct_gea_calls_byte_for_byte() {
        let original = SampleGenerator::new(77).generate(Family::Gafgyt);
        let seed = 0xADA0;

        let via_trait = LowDensityInsert.craft(&original, seed).unwrap();
        let direct = adaptive::insert_low_density_block(&original).unwrap();
        assert_eq!(
            via_trait.sample().binary().to_bytes(),
            direct.binary().to_bytes()
        );

        let via_trait = BlockSplit::new(4).craft(&original, seed ^ 0x20).unwrap();
        let direct = adaptive::split_blocks(&original, 4, seed ^ 0x20).unwrap();
        assert_eq!(
            via_trait.sample().binary().to_bytes(),
            direct.binary().to_bytes()
        );

        let via_trait = Obfuscate::new(0.3).craft(&original, seed ^ 0x40).unwrap();
        let direct = adaptive::obfuscate(&original, 0.3, seed ^ 0x40).unwrap();
        assert_eq!(
            via_trait.sample().binary().to_bytes(),
            direct.binary().to_bytes()
        );
    }

    #[test]
    fn obfuscation_cost_records_removed_edges() {
        let original = SampleGenerator::new(77).generate(Family::Gafgyt);
        let crafted = Obfuscate::new(0.3).craft(&original, 1).unwrap();
        assert!(crafted.cost().edges_removed > 0);
    }
}
