//! Differential equivalence battery for the `SOTERIA-STATE v3` artifact.
//!
//! The artifact is the only on-disk form of a trained system, so it must
//! *provably* be the same model: for arbitrary trained configurations, the
//! trained system and the system loaded from its artifact must produce
//! byte-for-byte identical verdicts on clean, GEA-adversarial, and
//! corrupted inputs, at every screening pool size — and reading an
//! artifact back into a state and writing it again must reproduce it
//! byte-for-byte.

use proptest::prelude::*;
use soteria::{Soteria, SoteriaConfig, StateImage, Verdict};
use soteria_corpus::{Corpus, CorpusConfig, Family, FaultInjector};
use soteria_gea::{gea_merge, SizeClass, TargetSelection};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Screening pool sizes the battery replays every comparison at: the
/// degenerate single-sample path, a partial batch, and a full batch.
const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// One trained system, its artifact, and the input pool it is screened
/// against. The loaded system is rebuilt from bytes per case, so every
/// case exercises the real load path.
struct TrainedCase {
    trained: Soteria,
    artifact: Vec<u8>,
    pool: Vec<Vec<u8>>,
}

/// Training dominates this battery's cost, so systems are trained once
/// per (corpus seed, train seed) pair and shared across property cases.
fn bank() -> MutexGuard<'static, HashMap<(u64, u64), TrainedCase>> {
    static BANK: OnceLock<Mutex<HashMap<(u64, u64), TrainedCase>>> = OnceLock::new();
    BANK.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("bank lock")
}

fn build_case(corpus_seed: u64, train_seed: u64) -> TrainedCase {
    let corpus = Corpus::generate(&CorpusConfig {
        counts: [8, 8, 8, 8],
        seed: corpus_seed,
        av_noise: false,
        lineages: 2,
    });
    let split = corpus.split(0.8, 1);
    let soteria =
        Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, train_seed).expect("train");

    // Input pool: clean test binaries, GEA adversarial examples against a
    // benign target, and injector-corrupted mutants.
    let clean: Vec<Vec<u8>> = split
        .test
        .iter()
        .take(4)
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    let selection = TargetSelection::select(&corpus);
    let target = selection.sample(
        &corpus,
        selection
            .target(Family::Benign, SizeClass::Large)
            .expect("benign target exists"),
    );
    let adversarial: Vec<Vec<u8>> = split
        .test
        .iter()
        .filter(|&&i| corpus.samples()[i].family() != Family::Benign)
        .take(2)
        .map(|&i| {
            gea_merge(&corpus.samples()[i], target)
                .expect("merge")
                .sample()
                .binary()
                .to_bytes()
        })
        .collect();
    let injector = FaultInjector::new(corpus_seed ^ train_seed);
    let corrupted: Vec<Vec<u8>> = (0..2u64)
        .map(|i| injector.corrupt(&clean[i as usize % clean.len()], i).0)
        .collect();
    let pool: Vec<Vec<u8>> = clean
        .into_iter()
        .chain(adversarial)
        .chain(corrupted)
        .collect();

    let artifact = soteria
        .save_state()
        .expect("save state")
        .to_artifact()
        .expect("v3 artifact");
    TrainedCase {
        trained: soteria,
        artifact,
        pool,
    }
}

/// Screens the pool in chunks of `chunk` with per-item seeds. The caller
/// compares both the structures and their `Debug` rendering — the latter
/// prints every float at full round-trip precision, so string equality is
/// bit-for-bit verdict equality, not approximate agreement.
fn screen_chunked(
    soteria: &Soteria,
    pool: &[Vec<u8>],
    chunk: usize,
    seed_base: u64,
) -> Vec<Verdict> {
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(pool.len());
    for (c, group) in pool.chunks(chunk).enumerate() {
        let items: Vec<(&[u8], u64)> = group
            .iter()
            .enumerate()
            .map(|(i, b)| (b.as_slice(), seed_base + (c * chunk + i) as u64))
            .collect();
        verdicts.extend(soteria.screen_many_seeded(&items));
    }
    verdicts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The core differential property: the artifact-loaded system is
    /// indistinguishable, verdict-for-verdict and byte-for-byte, from the
    /// trained system it was saved from — at every pool size, across
    /// clean/adversarial/corrupted inputs.
    #[test]
    fn trained_and_artifact_loaded_systems_are_verdict_identical(
        corpus_seed in 61u64..63,
        train_seed in 3u64..5,
        seed_base in 0u64..1_000,
    ) {
        let mut bank = bank();
        let case = bank
            .entry((corpus_seed, train_seed))
            .or_insert_with(|| build_case(corpus_seed, train_seed));

        let image = StateImage::parse(&case.artifact).expect("v3 parse");
        let loaded = Soteria::load_image(&image).expect("v3 load");

        for chunk in POOL_SIZES {
            let from_training = screen_chunked(&case.trained, &case.pool, chunk, seed_base);
            let from_artifact = screen_chunked(&loaded, &case.pool, chunk, seed_base);
            prop_assert_eq!(
                format!("{from_training:?}"),
                format!("{from_artifact:?}"),
                "verdicts diverged at pool size {}",
                chunk
            );
            prop_assert_eq!(&from_training, &from_artifact);
        }
    }

    /// v3 → state → v3 is byte-stable: reading an artifact back into a
    /// state and writing it again reproduces the exact bytes, so nothing
    /// the format carries is lost or perturbed in transit.
    #[test]
    fn v3_to_state_to_v3_round_trip_is_byte_stable(
        corpus_seed in 61u64..63,
        train_seed in 3u64..5,
    ) {
        let mut bank = bank();
        let case = bank
            .entry((corpus_seed, train_seed))
            .or_insert_with(|| build_case(corpus_seed, train_seed));

        let round_tripped = StateImage::parse(&case.artifact)
            .expect("v3 parse")
            .to_state()
            .expect("v3 import")
            .to_artifact()
            .expect("v3 re-export");
        prop_assert_eq!(
            &round_tripped,
            &case.artifact,
            "v3 -> state -> v3 must reproduce the artifact byte-for-byte"
        );

        // The artifact export itself is deterministic, too: same state,
        // same bytes — a requirement for golden-fixture pinning.
        let again = case
            .trained
            .save_state()
            .expect("save state")
            .to_artifact()
            .expect("v3 artifact");
        prop_assert_eq!(&again, &case.artifact);
    }
}
