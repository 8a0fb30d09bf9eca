//! Differential battery for the extraction fast path.
//!
//! `FeatureExtractor::extract` runs the parallel fast path (per-walk jumped
//! RNG streams, arc-indexed gram counting, scratch arenas);
//! `FeatureExtractor::extract_reference` is the sequential original,
//! retained as the oracle. These tests pin the load-bearing claim of the
//! optimization: for every graph and every seed the two paths produce
//! **bit-identical** `SampleFeatures` — all DBL walk vectors, all LBL walk
//! vectors, and the combined vector (`SampleFeatures` equality compares all
//! three, and the vectors are `f64`s compared exactly).
//!
//! Coverage:
//!
//! * arbitrary small CFGs (proptest over dense adjacency masks, so
//!   self-loops, unreachable nodes, and isolated entries all arise) ×
//!   arbitrary seeds,
//! * the degenerate graphs called out by the walk semantics: single node
//!   (isolated entry consumes zero RNG words), unreachable node (stripped
//!   by the reachability pass), self-loop (neighbor list of one still
//!   consumes a draw per step),
//! * the paper's full-size configuration, not just the test-size one,
//! * every n-gram size set: all 15 non-empty subsets of {1, 2, 3, 4} (the
//!   counting kernel has one code path per size) and a repeated size (which
//!   the fast path declines to the reference),
//! * a vocabulary that lists a gram twice (both paths count its last copy),
//! * worker-count invariance: the same bytes at pool sizes 1, 2, and 8,
//! * seed sensitivity: seeds move the walks, never the vocabulary.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use soteria_cfg::{Cfg, CfgBuilder};
use soteria_corpus::{motifs, Family};
use soteria_features::ngram::Gram;
use soteria_features::{ExtractorConfig, FeatureExtractor, Vocabulary};
use std::sync::OnceLock;

fn grown(seed: u64, target: usize, fam: Family) -> Cfg {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    motifs::grow(&mut rng, &fam.profile(), target)
}

/// One extractor fitted on a fixed mini-corpus, shared across cases so the
/// proptest loop measures extraction, not fitting.
fn shared() -> &'static FeatureExtractor {
    static EX: OnceLock<FeatureExtractor> = OnceLock::new();
    EX.get_or_init(|| {
        let train: Vec<Cfg> = (0..4)
            .map(|i| {
                grown(
                    40 + i,
                    12 + 3 * i as usize,
                    Family::from_index(i as usize % 4),
                )
            })
            .collect();
        FeatureExtractor::fit(&ExtractorConfig::small(), &train, 9)
    })
}

/// Arbitrary small CFG: `n ≤ 8` nodes, every directed edge (including
/// self-loops) present or absent independently, entry fixed at node 0.
/// Unreachable nodes and entries with no undirected neighbors arise
/// naturally from sparse masks.
fn arb_cfg() -> impl Strategy<Value = Cfg> {
    (1usize..=8)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec(any::<bool>(), n * n)))
        .prop_map(|(n, mask)| {
            let mut b = CfgBuilder::new();
            let ids: Vec<_> = (0..n)
                .map(|i| b.add_block(i as u64 * 16, (i as u32 % 7) + 1))
                .collect();
            for f in 0..n {
                for t in 0..n {
                    if mask[f * n + t] {
                        b.add_edge(ids[f], ids[t]).expect("fresh edge");
                    }
                }
            }
            b.build(ids[0]).expect("n >= 1")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core differential property: fast path ≡ reference, bit for bit,
    /// on arbitrary graphs and arbitrary (full-range) seeds.
    #[test]
    fn fast_path_matches_reference_on_arbitrary_graphs(
        cfg in arb_cfg(),
        seed in any::<u64>(),
    ) {
        let ex = shared();
        prop_assert_eq!(ex.extract(&cfg, seed), ex.extract_reference(&cfg, seed));
    }

    /// Same property with a vocabulary fitted on the generated graph
    /// itself, so in-vocabulary hits (not just all-zero vectors) are
    /// exercised for every case.
    #[test]
    fn fast_path_matches_reference_with_self_fitted_vocabulary(
        cfg in arb_cfg(),
        seed in 0u64..1_000,
    ) {
        let ex = FeatureExtractor::fit(
            &ExtractorConfig::small(),
            std::slice::from_ref(&cfg),
            seed ^ 0xABCD,
        );
        prop_assert_eq!(ex.extract(&cfg, seed), ex.extract_reference(&cfg, seed));
    }
}

/// The 15 non-empty subsets of {1, 2, 3, 4}, then a set with a repeat.
fn size_sets() -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = (1..16usize)
        .map(|mask| (1..=4).filter(|&n| mask & (1 << (n - 1)) != 0).collect())
        .collect();
    sets.push(vec![2, 2, 3]);
    sets
}

/// The arbitrary-graph × seed property for every n-gram size set, with a
/// vocabulary fitted on the mini-corpus and one fitted on the case's own
/// graph (so every size's windows hit the vocabulary).
#[test]
fn fast_path_matches_reference_for_every_ngram_size_set() {
    let train: Vec<Cfg> = (0..4)
        .map(|i| {
            grown(
                40 + i,
                12 + 3 * i as usize,
                Family::from_index(i as usize % 4),
            )
        })
        .collect();
    for sizes in size_sets() {
        let config = ExtractorConfig {
            ngram_sizes: sizes.clone(),
            ..ExtractorConfig::small()
        };
        let corpus_fitted = FeatureExtractor::fit(&config, &train, 9);
        proptest::test_runner::run(
            ProptestConfig::with_cases(32),
            &format!("ngram sizes {sizes:?}"),
            |rng| {
                let cfg = arb_cfg().generate(rng);
                let seed = any::<u64>().generate(rng);
                let self_fitted =
                    FeatureExtractor::fit(&config, std::slice::from_ref(&cfg), seed ^ 0xABCD);
                for ex in [&corpus_fitted, &self_fitted] {
                    prop_assert_eq!(
                        ex.extract(&cfg, seed),
                        ex.extract_reference(&cfg, seed),
                        "sizes {:?}",
                        sizes
                    );
                }
                Ok(())
            },
        );
    }
}

/// `Vocabulary::from_parts` accepts a gram listed twice, and the
/// reference counts it into its last copy; the fast path must too.
#[test]
fn a_vocabulary_that_repeats_a_gram_matches_the_reference() {
    let fitted = shared();
    for (sizes, vocab) in [
        (
            vec![2],
            vec![Gram::new(&[0, 1]), Gram::new(&[1, 0]), Gram::new(&[0, 1])],
        ),
        (vec![2, 3], {
            let mut grams = fitted.dbl_vocabulary().grams().to_vec();
            grams.extend_from_within(..8);
            grams
        }),
    ] {
        let config = ExtractorConfig {
            ngram_sizes: sizes,
            ..ExtractorConfig::small()
        };
        let idf: Vec<f64> = (1..=vocab.len()).map(|i| i as f64).collect();
        let repeated = Vocabulary::from_parts(vocab, idf);
        let ex = FeatureExtractor::from_parts(config, repeated.clone(), repeated);
        for g in [with_unreachable_node(), grown(5, 20, Family::Mirai)] {
            for seed in 0..16u64 {
                assert_eq!(
                    ex.extract(&g, seed),
                    ex.extract_reference(&g, seed),
                    "seed {seed}"
                );
            }
        }
    }
}

fn single_node() -> Cfg {
    let mut b = CfgBuilder::new();
    let e = b.add_block(0, 1);
    b.build(e).expect("one node")
}

fn self_loop() -> Cfg {
    let mut b = CfgBuilder::new();
    let e = b.add_block(0, 1);
    b.add_edge(e, e).expect("self-loop");
    b.build(e).expect("one node")
}

fn with_unreachable_node() -> Cfg {
    let mut b = CfgBuilder::new();
    let e = b.add_block(0, 1);
    let f = b.add_block(16, 2);
    let dead = b.add_block(32, 3);
    b.add_edge(e, f).expect("edge");
    b.add_edge(dead, f).expect("edge");
    b.build(e).expect("three nodes")
}

#[test]
fn degenerate_graphs_match_reference_across_many_seeds() {
    let ex = shared();
    for (name, cfg) in [
        ("single node", single_node()),
        ("self loop", self_loop()),
        ("unreachable node", with_unreachable_node()),
    ] {
        for seed in 0..64u64 {
            assert_eq!(
                ex.extract(&cfg, seed),
                ex.extract_reference(&cfg, seed),
                "{name}, seed {seed}"
            );
        }
    }
}

#[test]
fn fast_path_matches_reference_with_paper_config() {
    let train: Vec<Cfg> = (0..3)
        .map(|i| grown(70 + i, 20, Family::from_index(i as usize)))
        .collect();
    let ex = FeatureExtractor::fit(&ExtractorConfig::default(), &train, 1);
    for (i, g) in train.iter().enumerate() {
        for seed in [0u64, 17, u64::MAX] {
            assert_eq!(
                ex.extract(g, seed),
                ex.extract_reference(g, seed),
                "sample {i}, seed {seed}"
            );
        }
    }
}

/// The pool is process-global and only ever grows, so 1 → 2 → 8 exercises
/// three genuinely different worker counts within one process. Every size
/// must reproduce the sequential reference bytes exactly.
#[test]
fn output_is_invariant_across_pool_sizes() {
    let ex = shared();
    let g = grown(99, 24, Family::Mirai);
    let oracle = ex.extract_reference(&g, 42);
    for threads in [1usize, 2, 8] {
        soteria_pool::ensure_threads(threads);
        assert_eq!(ex.extract(&g, 42), oracle, "pool size {threads}");
    }
}

/// Seeds drive the walks and nothing else: different seeds change the
/// features, equal seeds reproduce them, and the fitted vocabulary (the
/// lookup side of the fast path) is untouched throughout.
#[test]
fn seeds_change_walks_but_not_vocabulary() {
    let ex = shared();
    let g = grown(7, 18, Family::Gafgyt);
    let dbl_before = ex.dbl_vocabulary().grams().to_vec();
    let lbl_before = ex.lbl_vocabulary().grams().to_vec();

    let a = ex.extract(&g, 1);
    let b = ex.extract(&g, 2);
    assert_ne!(a.combined(), b.combined(), "seeds must move the walks");
    assert_eq!(a, ex.extract(&g, 1), "equal seeds must reproduce");

    assert_eq!(ex.dbl_vocabulary().grams(), &dbl_before[..]);
    assert_eq!(ex.lbl_vocabulary().grams(), &lbl_before[..]);
    assert_eq!(a.combined().len(), b.combined().len());
}
