//! The batch path against the sequential reference.
//!
//! The worker pool is process-wide and only ever grows, so this is the only
//! test in its binary: a fresh process is the one place `screen_many_seeded`
//! can be seen running inline before the pool is grown.

use soteria::{Soteria, SoteriaConfig, Verdict};
use soteria_corpus::{Corpus, CorpusConfig, Family};
use soteria_gea::{gea_merge, SizeClass, TargetSelection};
use soteria_nn::backend;

#[test]
fn seeded_batch_screening_matches_one_by_one_extraction() {
    // One thread in total: every `warm()` in this process spawns no
    // workers until the pool is grown explicitly below.
    std::env::set_var("SOTERIA_NN_THREADS", "1");
    let corpus = Corpus::generate(&CorpusConfig {
        counts: [14, 14, 14, 12],
        seed: 61,
        av_noise: false,
        lineages: 3,
    });
    let split = corpus.split(0.8, 3);
    let mut soteria =
        Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 5).expect("train");

    // Clean binaries, GEA merges of malicious ones, and garbage.
    let selection = TargetSelection::select(&corpus);
    let target = selection.sample(
        &corpus,
        selection
            .target(Family::Benign, SizeClass::Large)
            .expect("a large benign target"),
    );
    let mut binaries: Vec<Vec<u8>> = split
        .test
        .iter()
        .take(5)
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    for &i in split
        .test
        .iter()
        .filter(|&&i| corpus.samples()[i].family() != Family::Benign)
        .take(3)
    {
        let merged = gea_merge(&corpus.samples()[i], target).expect("merge");
        binaries.push(merged.sample().binary().to_bytes());
    }
    binaries.insert(3, vec![0xA5u8; 64]);
    let truncated = binaries[0][..binaries[0].len() / 2].to_vec();
    binaries.push(truncated);
    // Arbitrary, non-consecutive seeds: callers derive them per sample.
    let items: Vec<(&[u8], u64)> = binaries
        .iter()
        .enumerate()
        .map(|(i, b)| (b.as_slice(), 0xC0FF_EE00 ^ (i as u64).wrapping_mul(0x9E37)))
        .collect();

    let reference: Vec<Verdict> = items
        .iter()
        .map(|&(bytes, seed)| soteria.screen_binary(bytes, seed))
        .collect();
    let inline = soteria.screen_many_seeded(&items);
    assert_eq!(backend::pool_threads(), 0, "inline run used the pool");
    assert!(backend::ensure_threads(3) >= 3);
    let pooled = soteria.screen_many_seeded(&items);

    assert_eq!(inline, reference);
    assert_eq!(pooled, reference);
    assert!(reference[3].is_degraded(), "garbage must degrade alone");
    assert!(reference.last().is_some_and(Verdict::is_degraded));
    assert!(reference.iter().any(Verdict::is_adversarial));
    assert!(reference.iter().any(|v| v.family().is_some()));
}
