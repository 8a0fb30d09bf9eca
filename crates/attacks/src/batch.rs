//! Parallel batch crafting over the shared worker pool.
//!
//! Per-sample seeds are derived from the master seed with the same
//! SplitMix scheme the feature extractor uses, and every result lands in
//! its input's slot — so the output is a pure function of
//! `(attack, originals, master seed)`, bit-identical at any pool size
//! (including zero workers, where everything runs inline on the caller).

use crate::{derive_seed, Attack, CraftedSample};
use soteria_corpus::{corpus::Sample, CorpusError};

/// The seed [`craft_batch`] hands the sample at `index`, exposed so
/// harnesses can validate, screen, or re-craft individual samples with
/// the exact seed the batch used.
pub fn batch_seed(master_seed: u64, index: u64) -> u64 {
    derive_seed(master_seed, index)
}

/// Crafts one adversarial example per original, in input order.
///
/// Each sample gets the seed `derive_seed(master_seed, index)`; samples
/// fan out over the pool via `soteria_pool::map` when it is warm, with the
/// calling thread participating. Errors are per-sample — one failed craft
/// does not abort the batch.
pub fn craft_batch(
    attack: &dyn Attack,
    originals: &[&Sample],
    master_seed: u64,
) -> Vec<Result<CraftedSample, CorpusError>> {
    soteria_pool::map(originals, |i, original| {
        attack.craft(original, derive_seed(master_seed, i as u64))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubCfgInjection;
    use soteria_corpus::{Family, SampleGenerator};

    #[test]
    fn batch_matches_the_sequential_loop() {
        let mut gen = SampleGenerator::new(13);
        let samples: Vec<Sample> = (0..6).map(|_| gen.generate(Family::Mirai)).collect();
        let refs: Vec<&Sample> = samples.iter().collect();
        let attack = SubCfgInjection::reachable(3);

        let batch = craft_batch(&attack, &refs, 99);
        for (i, (result, original)) in batch.iter().zip(&samples).enumerate() {
            let sequential = attack.craft(original, derive_seed(99, i as u64)).unwrap();
            assert_eq!(
                result.as_ref().unwrap().sample().binary().to_bytes(),
                sequential.sample().binary().to_bytes(),
                "slot {i}"
            );
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let attack = SubCfgInjection::unreachable(1);
        assert!(craft_batch(&attack, &[], 1).is_empty());
    }
}
