//! Differential equivalence battery for the `SOTERIA-STATE v3` artifact.
//!
//! The binary artifact is only allowed to exist because it is *provably*
//! the same model: for arbitrary trained configurations, a JSON-loaded
//! system and an artifact-loaded system
//! must produce byte-for-byte identical verdicts on clean, GEA-adversarial,
//! and corrupted inputs, at every screening pool size — and converting
//! v2 → v3 → v2 must reproduce the v2 envelope byte-for-byte.

use proptest::prelude::*;
use soteria::{Soteria, SoteriaConfig, SoteriaState, StateImage, Verdict};
use soteria_corpus::{Corpus, CorpusConfig, Family, FaultInjector};
use soteria_gea::{gea_merge, SizeClass, TargetSelection};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Screening pool sizes the battery replays every comparison at: the
/// degenerate single-sample path, a partial batch, and a full batch.
const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// One trained system, stored as its two serialized forms plus the input
/// pool it is screened against. States are rebuilt from bytes per case,
/// so every case exercises the real load paths.
struct TrainedCase {
    envelope: String,
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

    let state = soteria.save_state().expect("save state");
    TrainedCase {
        envelope: state.to_envelope().expect("v2 envelope"),
        artifact: state.to_artifact().expect("v3 artifact"),
        pool,
    }
}

/// Screens the pool in chunks of `chunk` with per-item seeds. The caller
/// compares both the structures and their `Debug` rendering — the latter
/// prints every float at full round-trip precision, so string equality is
/// bit-for-bit verdict equality, not approximate agreement.
fn screen_chunked(
    soteria: &mut Soteria,
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
    /// JSON-loaded system it was exported from — at every pool size,
    /// across clean/adversarial/corrupted inputs.
    #[test]
    fn artifact_and_json_loads_are_verdict_identical(
        corpus_seed in 61u64..63,
        train_seed in 3u64..5,
        seed_base in 0u64..1_000,
    ) {
        let mut bank = bank();
        let case = bank
            .entry((corpus_seed, train_seed))
            .or_insert_with(|| build_case(corpus_seed, train_seed));

        let mut json_model =
            Soteria::from_state(SoteriaState::from_bytes(case.envelope.as_bytes()).expect("v2 load"));
        let image = StateImage::parse(&case.artifact).expect("v3 parse");
        let mut art_model = Soteria::load_image(&image).expect("v3 load");

        for chunk in POOL_SIZES {
            let from_json = screen_chunked(&mut json_model, &case.pool, chunk, seed_base);
            let from_artifact = screen_chunked(&mut art_model, &case.pool, chunk, seed_base);
            prop_assert_eq!(
                format!("{from_json:?}"),
                format!("{from_artifact:?}"),
                "verdicts diverged at pool size {}",
                chunk
            );
            prop_assert_eq!(&from_json, &from_artifact);
        }
    }

    /// v2 → v3 → v2 is byte-stable: exporting a state to the binary
    /// artifact and reading it back reproduces the exact v2 envelope, so
    /// nothing the JSON format carries is lost or perturbed in transit.
    #[test]
    fn v2_to_v3_to_v2_round_trip_is_byte_stable(
        corpus_seed in 61u64..63,
        train_seed in 3u64..5,
    ) {
        let mut bank = bank();
        let case = bank
            .entry((corpus_seed, train_seed))
            .or_insert_with(|| build_case(corpus_seed, train_seed));

        let state = SoteriaState::from_bytes(case.envelope.as_bytes()).expect("v2 load");
        let artifact = state.to_artifact().expect("v3 export");
        let round_tripped = SoteriaState::from_artifact(&artifact)
            .expect("v3 import")
            .to_envelope()
            .expect("v2 re-export");
        prop_assert_eq!(
            &round_tripped,
            &case.envelope,
            "v2 -> v3 -> v2 must reproduce the envelope byte-for-byte"
        );

        // The artifact export itself is deterministic, too: same state,
        // same bytes — a requirement for golden-fixture pinning.
        prop_assert_eq!(&artifact, &case.artifact);
    }
}
