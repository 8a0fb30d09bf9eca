//! End-to-end integration: corpus generation → training → screening →
//! classification, exercising the whole crate stack together.

use soteria::{Soteria, SoteriaConfig, Verdict};
use soteria_corpus::{Corpus, CorpusConfig, Family};
use soteria_gea::{append, gea_merge, SizeClass, TargetSelection};

fn setup() -> (Soteria, Corpus, Vec<usize>) {
    let corpus = Corpus::generate(&CorpusConfig {
        counts: [20, 20, 20, 16],
        seed: 424,
        av_noise: true,
        lineages: 4,
    });
    let split = corpus.split(0.8, 9);
    let soteria = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 31).expect("train");
    (soteria, corpus, split.test)
}

#[test]
fn detector_separates_adversarial_from_clean() {
    let (soteria, corpus, test) = setup();
    let selection = TargetSelection::select(&corpus);
    let target = selection
        .sample(
            &corpus,
            selection.target(Family::Benign, SizeClass::Large).unwrap(),
        )
        .clone();

    let mut clean_flagged = 0usize;
    let mut ae_flagged = 0usize;
    let mut ae_total = 0usize;
    for (i, &idx) in test.iter().enumerate() {
        let s = &corpus.samples()[idx];
        if soteria
            .analyze(s.graph(), 10_000 + i as u64)
            .is_adversarial()
        {
            clean_flagged += 1;
        }
        if s.family() != Family::Benign {
            let merged = gea_merge(s, &target).expect("merge");
            ae_total += 1;
            if soteria
                .analyze(merged.sample().graph(), 20_000 + i as u64)
                .is_adversarial()
            {
                ae_flagged += 1;
            }
        }
    }
    let clean_rate = clean_flagged as f64 / test.len() as f64;
    let ae_rate = ae_flagged as f64 / ae_total.max(1) as f64;
    assert!(
        ae_rate >= clean_rate + 0.3,
        "AE detection {ae_rate:.2} must dominate clean FP {clean_rate:.2}"
    );
    assert!(ae_rate > 0.6, "AE detection rate too low: {ae_rate:.2}");
}

#[test]
fn classifier_beats_chance_by_a_wide_margin() {
    let (soteria, corpus, test) = setup();
    let mut correct = 0usize;
    let mut classified = 0usize;
    for (i, &idx) in test.iter().enumerate() {
        let s = &corpus.samples()[idx];
        if let Verdict::Clean { family, .. } = soteria.analyze(s.graph(), 30_000 + i as u64) {
            classified += 1;
            if family == s.family() {
                correct += 1;
            }
        }
    }
    assert!(
        classified > test.len() / 2,
        "detector flagged too many clean"
    );
    let acc = correct as f64 / classified as f64;
    assert!(acc > 0.7, "accuracy {acc:.2} on {classified} samples");
}

#[test]
fn byte_appending_never_changes_the_verdict() {
    let (soteria, corpus, test) = setup();
    for (i, &idx) in test.iter().take(8).enumerate() {
        let s = &corpus.samples()[idx];
        let seed = 40_000 + i as u64;
        let original = soteria.analyze(s.graph(), seed);

        let trailed = append::append_trailing_bytes(s, 2048, 5).expect("append");
        assert_eq!(
            soteria.analyze(trailed.graph(), seed),
            original,
            "trailing bytes changed the verdict of {}",
            s.name()
        );

        let dead = append::inject_dead_section(s, 5).expect("inject");
        assert_eq!(
            soteria.analyze(dead.graph(), seed),
            original,
            "dead section changed the verdict of {}",
            s.name()
        );
    }
}

#[test]
fn feature_reuse_between_detector_and_classifier() {
    // §III-A: the classifier can reuse the detection-phase features.
    let (soteria, corpus, test) = setup();
    let g = corpus.samples()[test[0]].graph();
    let features = soteria.features(g, 77);
    let via_reuse = soteria.screen_features_batch(&[(features, 77)]);
    let via_full = soteria.analyze(g, 77);
    assert_eq!(via_reuse, [via_full]);
}

#[test]
fn targeted_misclassification_is_prevented() {
    // The adversary wants malware classified as benign. Count how often a
    // GEA example both (a) evades the detector and (b) is classified as
    // its target class — the paper's end-to-end attack success metric.
    let (soteria, corpus, test) = setup();
    let selection = TargetSelection::select(&corpus);
    let target = selection
        .sample(
            &corpus,
            selection.target(Family::Benign, SizeClass::Medium).unwrap(),
        )
        .clone();
    let mut attack_successes = 0usize;
    let mut attempts = 0usize;
    for (i, &idx) in test.iter().enumerate() {
        let s = &corpus.samples()[idx];
        if s.family() == Family::Benign {
            continue;
        }
        let merged = gea_merge(s, &target).expect("merge");
        attempts += 1;
        if let Verdict::Clean { family, .. } =
            soteria.analyze(merged.sample().graph(), 50_000 + i as u64)
        {
            if family == Family::Benign {
                attack_successes += 1;
            }
        }
    }
    assert!(attempts > 0);
    let success_rate = attack_successes as f64 / attempts as f64;
    assert!(
        success_rate < 0.25,
        "attack succeeded on {attack_successes}/{attempts} samples"
    );
}
