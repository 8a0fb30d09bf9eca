//! Quality-side ablations of the design choices DESIGN.md calls out.

use soteria_corpus::{Corpus, CorpusConfig, Family};
use soteria_features::ngram::GramCounts;
use soteria_features::{ExtractorConfig, FeatureExtractor, Vocabulary};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        counts: [16, 40, 16, 12],
        seed: 313,
        av_noise: false,
        lineages: 4,
    })
}

/// Cosine similarity between two vectors.
fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na * nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[test]
fn more_walks_stabilize_features() {
    // Ablation: feature stability (cosine similarity between two
    // independent extractions of the same sample) must grow with the walk
    // count — the justification for the paper's 10 walks.
    let c = corpus();
    let graphs: Vec<_> = c
        .samples()
        .iter()
        .take(10)
        .map(|s| s.graph().clone())
        .collect();
    let stability_at = |count: usize| -> f64 {
        let config = ExtractorConfig {
            walks_per_labeling: count,
            ..ExtractorConfig::small()
        };
        let ex = FeatureExtractor::fit(&config, &graphs, 1);
        let mut acc = 0.0;
        for (i, g) in graphs.iter().enumerate() {
            let a = ex.extract(g, 2 * i as u64);
            let b = ex.extract(g, 2 * i as u64 + 1);
            acc += cosine(a.combined(), b.combined());
        }
        acc / graphs.len() as f64
    };
    let s2 = stability_at(2);
    let s10 = stability_at(10);
    assert!(
        s10 > s2,
        "10 walks ({s10:.3}) should be more stable than 2 ({s2:.3})"
    );
}

#[test]
fn longer_walks_stabilize_features() {
    let c = corpus();
    let graphs: Vec<_> = c
        .samples()
        .iter()
        .take(10)
        .map(|s| s.graph().clone())
        .collect();
    let stability_at = |mult: usize| -> f64 {
        let config = ExtractorConfig {
            walk_multiplier: mult,
            ..ExtractorConfig::small()
        };
        let ex = FeatureExtractor::fit(&config, &graphs, 1);
        let mut acc = 0.0;
        for (i, g) in graphs.iter().enumerate() {
            let a = ex.extract(g, 2 * i as u64);
            let b = ex.extract(g, 2 * i as u64 + 1);
            acc += cosine(a.combined(), b.combined());
        }
        acc / graphs.len() as f64
    };
    let s1 = stability_at(1);
    let s5 = stability_at(5);
    assert!(
        s5 > s1,
        "5x walks ({s5:.3}) should be more stable than 1x ({s1:.3})"
    );
}

#[test]
fn stratified_vocabulary_covers_minority_classes() {
    // Ablation: with a majority-heavy corpus, global top-k selection
    // leaves minority samples sparse; stratified selection fixes it.
    let c = corpus(); // gafgyt-heavy by construction
    let graphs: Vec<_> = c.samples().iter().map(|s| s.graph().clone()).collect();
    let labels: Vec<usize> = c.samples().iter().map(|s| s.family().index()).collect();
    let config = ExtractorConfig::small();

    let global = FeatureExtractor::fit(&config, &graphs, 1);
    let stratified = FeatureExtractor::fit_stratified(&config, &graphs, &labels, 4, 1);

    let nnz = |ex: &FeatureExtractor, fam: Family| -> f64 {
        let mut total = 0usize;
        let mut n = 0usize;
        for (g, &l) in graphs.iter().zip(&labels) {
            if l != fam.index() {
                continue;
            }
            let f = ex.extract(g, 9);
            total += f.combined().iter().filter(|&&x| x != 0.0).count();
            n += 1;
        }
        total as f64 / n.max(1) as f64
    };
    // Tsunami (smallest class) must gain vocabulary coverage.
    let g_cov = nnz(&global, Family::Tsunami);
    let s_cov = nnz(&stratified, Family::Tsunami);
    assert!(
        s_cov > g_cov,
        "stratified coverage {s_cov:.1} must beat global {g_cov:.1}"
    );
}

#[test]
fn ngram_mix_adds_distinct_grams() {
    // 2+3+4-grams give a strictly richer representation than 2-grams.
    let walk: Vec<usize> = (0..50).map(|i| i % 7).collect();
    let mut only2 = GramCounts::new();
    only2.add_walk(&walk, &[2]);
    let mut mixed = GramCounts::new();
    mixed.add_walk(&walk, &[2, 3, 4]);
    assert!(mixed.distinct() > only2.distinct());
    assert!(mixed.total() > only2.total());
}

#[test]
fn top_k_tradeoff_monotone_in_coverage() {
    // A larger vocabulary can only increase per-sample coverage.
    let c = corpus();
    let graphs: Vec<_> = c
        .samples()
        .iter()
        .take(12)
        .map(|s| s.graph().clone())
        .collect();
    let docs: Vec<GramCounts> = graphs
        .iter()
        .map(|g| {
            let (r, _) = g.reachable_subgraph();
            let labels = soteria_features::label_nodes(&r, soteria_features::Labeling::Level);
            use rand::SeedableRng as _;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
            let walks = soteria_features::walk_set(&r, &labels, 3, 4, &mut rng);
            soteria_features::ngram::count_walk_set(&walks, &[2, 3])
        })
        .collect();
    let coverage = |k: usize| -> usize {
        let vocab = Vocabulary::fit(&docs, k);
        docs.iter()
            .map(|d| vocab.transform(d).iter().filter(|&&x| x != 0.0).count())
            .sum()
    };
    let c64 = coverage(64);
    let c256 = coverage(256);
    assert!(
        c256 >= c64,
        "coverage must not shrink with k: {c64} vs {c256}"
    );
}

#[test]
fn lineage_diversity_controls_intra_class_spread() {
    // Fewer lineages -> tighter within-family feature clusters (the
    // variant-dominance property the detector relies on).
    let spread_of = |lineages: usize| -> f64 {
        let c = Corpus::generate(&CorpusConfig {
            counts: [0, 24, 0, 0],
            seed: 17,
            av_noise: false,
            lineages,
        });
        let graphs: Vec<_> = c.samples().iter().map(|s| s.graph().clone()).collect();
        let ex = FeatureExtractor::fit(&ExtractorConfig::small(), &graphs, 1);
        let feats: Vec<Vec<f64>> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| ex.extract(g, i as u64).combined().to_vec())
            .collect();
        // Mean pairwise cosine similarity; higher = tighter.
        let mut acc = 0.0;
        let mut n = 0usize;
        for i in 0..feats.len() {
            for j in i + 1..feats.len() {
                acc += cosine(&feats[i], &feats[j]);
                n += 1;
            }
        }
        1.0 - acc / n as f64 // spread = 1 - mean similarity
    };
    let tight = spread_of(1);
    let loose = spread_of(8);
    assert!(
        loose > tight,
        "8 lineages (spread {loose:.3}) should be looser than 1 ({tight:.3})"
    );
}
