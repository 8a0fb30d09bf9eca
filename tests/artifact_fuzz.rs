//! Corruption-fuzz battery for the `SOTERIA-STATE v3` artifact.
//!
//! Every artifact-aware mutation — header/table/payload bit flips,
//! truncation at section boundaries, alignment-breaking splices — must
//! leave the loader in one of exactly two states: a typed [`StateError`],
//! or a successful load whose verdicts are bit-identical to the pristine
//! baseline (flips that land in reserved header bytes or inter-section
//! padding are invisible by design, because checksums deliberately do not
//! cover them). A panic, a silently different verdict, or an out-of-bounds
//! read is a failure of the battery.

use proptest::prelude::*;
use soteria::{Soteria, SoteriaConfig, StateError, StateImage, Verdict};
use soteria_corpus::{ArtifactMutation, Corpus, CorpusConfig, FaultInjector};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The pristine artifact plus baseline verdicts for a few probe inputs.
struct Baseline {
    artifact: Vec<u8>,
    probes: Vec<Vec<u8>>,
    verdicts: Vec<Verdict>,
}

/// Trained once and shared across all cases: corruption and loading are
/// cheap, training is not.
fn baseline() -> MutexGuard<'static, Baseline> {
    static BASE: OnceLock<Mutex<Baseline>> = OnceLock::new();
    BASE.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [8, 8, 8, 8],
            seed: 71,
            av_noise: false,
            lineages: 2,
        });
        let split = corpus.split(0.8, 1);
        let soteria =
            Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 13).expect("train");
        let artifact = soteria
            .save_state()
            .expect("save state")
            .to_artifact()
            .expect("v3 artifact");
        let probes: Vec<Vec<u8>> = split
            .test
            .iter()
            .take(3)
            .map(|&i| corpus.samples()[i].binary().to_bytes())
            .collect();
        let verdicts = probe_verdicts(&soteria, &probes);
        Mutex::new(Baseline {
            artifact,
            probes,
            verdicts,
        })
    })
    .lock()
    .expect("baseline lock")
}

fn probe_verdicts(soteria: &Soteria, probes: &[Vec<u8>]) -> Vec<Verdict> {
    let items: Vec<(&[u8], u64)> = probes
        .iter()
        .enumerate()
        .map(|(i, b)| (b.as_slice(), 400 + i as u64))
        .collect();
    soteria.screen_many_seeded(&items)
}

/// The property itself, shared by the proptest sweep and the exhaustive
/// per-mutation loop: a corrupted artifact either fails with a typed
/// error or loads into a system whose verdicts match the baseline
/// bit-for-bit.
fn assert_corruption_is_contained(base: &mut Baseline, corrupted: &[u8], what: &str) {
    match StateImage::parse(corrupted) {
        Err(e) => assert!(
            !e.to_string().is_empty(),
            "{what}: typed error must render a diagnosis"
        ),
        Ok(image) => match Soteria::load_image(&image) {
            Err(e) => assert!(
                !e.to_string().is_empty(),
                "{what}: typed error must render a diagnosis"
            ),
            Ok(loaded) => {
                // The mutation landed in bytes the format deliberately
                // does not interpret; the model must be unchanged.
                let got = probe_verdicts(&loaded, &base.probes);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{:?}", base.verdicts),
                    "{what}: corrupted artifact loaded but produced different verdicts"
                );
            }
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Randomized sweep over every artifact-aware mutation kind.
    #[test]
    fn corrupted_artifacts_never_panic_or_change_verdicts(
        seed in 0u64..1_000, index in 0u64..1_000,
    ) {
        let mut base = baseline();
        let injector = FaultInjector::new(seed);
        let (corrupted, mutation) = injector.corrupt_artifact(&base.artifact, index);
        assert_corruption_is_contained(&mut base, &corrupted, &format!("{mutation} #{index}"));
    }
}

/// Deterministic pass: every mutation kind at many stream positions, so
/// a regression in one kind cannot hide behind proptest's sampling.
#[test]
fn every_mutation_kind_is_contained() {
    let mut base = baseline();
    let injector = FaultInjector::new(5);
    for kind in ArtifactMutation::ALL {
        for index in 0..24u64 {
            let artifact = base.artifact.clone();
            let corrupted = injector.corrupt_artifact_with(&artifact, index, kind);
            assert_corruption_is_contained(&mut base, &corrupted, &format!("{kind} #{index}"));
        }
    }
}

/// Truncation at a section boundary removes declared payload, which the
/// header's total-length field must always catch — boundary truncation
/// can never load.
#[test]
fn boundary_truncation_always_fails_typed() {
    let base = baseline();
    let injector = FaultInjector::new(6);
    for index in 0..24u64 {
        let corrupted = injector.corrupt_artifact_with(
            &base.artifact,
            index,
            ArtifactMutation::TruncateAtBoundary,
        );
        let err = StateImage::parse(&corrupted).expect_err("truncated artifact must not load");
        assert!(
            matches!(
                err,
                StateError::Truncated { .. }
                    | StateError::BadHeader { .. }
                    | StateError::ChecksumMismatch { .. }
            ),
            "truncation produced an unexpected error class: {err}"
        );
    }
}
