//! Determinism across the whole stack: equal seeds must give bit-equal
//! corpora, feature vectors, model statistics and verdicts.

use soteria::{Soteria, SoteriaConfig, Verdict};
use soteria_corpus::{Corpus, CorpusConfig};
use soteria_features::{ExtractorConfig, FeatureExtractor};
use soteria_serve::{ScreeningService, ServeConfig};
use std::time::Duration;

fn config() -> CorpusConfig {
    CorpusConfig {
        counts: [12, 12, 12, 12],
        seed: 99,
        av_noise: true,
        lineages: 4,
    }
}

#[test]
fn corpora_are_bit_identical_across_runs() {
    let a = Corpus::generate(&config());
    let b = Corpus::generate(&config());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.samples().iter().zip(b.samples()) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_give_different_corpora() {
    let a = Corpus::generate(&config());
    let mut other = config();
    other.seed = 100;
    let b = Corpus::generate(&other);
    assert_ne!(a.samples()[0].binary(), b.samples()[0].binary());
}

#[test]
fn feature_extraction_is_seed_stable() {
    let corpus = Corpus::generate(&config());
    let graphs: Vec<_> = corpus
        .samples()
        .iter()
        .take(6)
        .map(|s| s.graph().clone())
        .collect();
    let e1 = FeatureExtractor::fit(&ExtractorConfig::small(), &graphs, 5);
    let e2 = FeatureExtractor::fit(&ExtractorConfig::small(), &graphs, 5);
    for (i, g) in graphs.iter().enumerate() {
        assert_eq!(e1.extract(g, i as u64), e2.extract(g, i as u64));
    }
}

#[test]
fn trained_detector_stats_are_reproducible() {
    let corpus = Corpus::generate(&config());
    let split = corpus.split(0.8, 1);
    let a = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 3).expect("train");
    let b = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 3).expect("train");
    assert_eq!(a.detector_ref().stats(), b.detector_ref().stats());

    // And the verdicts agree sample by sample.
    for (i, &idx) in split.test.iter().enumerate() {
        let g = corpus.samples()[idx].graph();
        assert_eq!(a.analyze(g, i as u64), b.analyze(g, i as u64));
    }
}

#[test]
fn screening_service_reproduces_a_recorded_run() {
    // Same corpus seed, same training seed, same service seed: two
    // independently-trained systems behind services with *different*
    // worker counts and batch windows must replay the exact same verdict
    // list. Request seeds derive from content, so neither scheduling nor
    // batching can leak into the answers.
    let corpus = Corpus::generate(&config());
    let split = corpus.split(0.8, 1);
    let requests: Vec<Vec<u8>> = split
        .test
        .iter()
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();

    let run = |workers: usize, window: Duration| -> Vec<Verdict> {
        let soteria =
            Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 3).expect("train");
        let service = ScreeningService::start(
            soteria,
            &ServeConfig {
                workers,
                queue_capacity: requests.len().max(1),
                batch_window: window,
                seed: 99,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<_> = requests
            .iter()
            .map(|b| service.submit(b.clone()).into_ticket().expect("accepted"))
            .collect();
        let verdicts = tickets.into_iter().map(|t| t.wait()).collect();
        drop(service.shutdown());
        verdicts
    };

    let recorded = run(1, Duration::ZERO);
    let replayed = run(3, Duration::from_millis(2));
    assert_eq!(recorded, replayed);
}

#[test]
fn walk_randomization_varies_with_seed_but_not_verdict_struct() {
    // Different walk seeds change features (the randomization defense)
    // while the pipeline still runs deterministically per seed.
    let corpus = Corpus::generate(&config());
    let split = corpus.split(0.8, 1);
    let soteria = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 3).expect("train");
    let g = corpus.samples()[split.test[0]].graph();
    let f1 = soteria.features(g, 1);
    let f2 = soteria.features(g, 2);
    assert_ne!(f1.combined(), f2.combined());
    assert_eq!(f1, soteria.features(g, 1));
}
