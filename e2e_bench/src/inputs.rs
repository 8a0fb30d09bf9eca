//! Seeded input generation. Everything a workload feeds the program is made
//! here from the workload seed; the program under test only ever sees the
//! serialized bytes.
//!
//! The corpus is a lineage corpus built from the corpus crate's own
//! building blocks (motif growth, structural mutation, salted assembly),
//! with one deliberate difference from `Corpus::generate`: lineage base
//! sizes are fixed quantiles of each family's size profile instead of
//! seeded draws, and variants are assigned to lineages round-robin. A seed
//! therefore changes every graph's structure, mutations and bytes, but not
//! how many binaries of which size a workload screens — with seeded sizes,
//! the mean CFG of a held-out split moved by ±10% between seeds and the
//! screening rate with it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use soteria_attacks::{craft_batch, GeaAttack};
use soteria_corpus::{asm, motifs, mutate::mutate, Corpus, Family, Sample};
use soteria_gea::{SizeClass, TargetSelection};

/// Training samples per family (Benign, Gafgyt, Mirai, Tsunami): ~190,
/// stratified so every lineage of every family is seen in training.
pub const TRAIN_COUNTS: [usize; 4] = [60, 60, 50, 20];
/// Held-out clean variants per family, in the paper corpus's class
/// proportions (Table II); 1600 = 100 chunks of [`CLEAN_CHUNK`].
pub const CLEAN_COUNTS: [usize; 4] = [287, 1062, 226, 25];
/// Binaries per `screen_many_seeded` call on `clean_batch`.
pub const CLEAN_CHUNK: usize = 16;
/// Malware originals embedded with each of the three benign GEA targets;
/// 600 examples = 100 chunks of [`GEA_CHUNK`].
pub const GEA_ORIGINALS: usize = 200;
/// Binaries per `screen_many_seeded` call on `gea_batch`: two originals
/// times the three size classes.
pub const GEA_CHUNK: usize = 6;
/// Distinct contents submitted per `serve_closed` pass.
pub const SERVE_DISTINCT: usize = 768;
/// Submissions per `serve_closed` pass; every fourth repeats content
/// submitted earlier in the pass, so exactly 25% are cache hits.
pub const SERVE_REQUESTS: usize = 1024;
/// Lineage budget per corpus, scaled per family by its lineage share (the
/// corpus generator's default).
const LINEAGE_BUDGET: f64 = 12.0;

/// What a binary really is, for scoring its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// A clean variant of a family; the right verdict is Clean naming it.
    Clean(Family),
    /// A GEA example; the right verdict is Adversarial.
    Gea(SizeClass),
}

/// One generated input: its bytes and what it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The serialized binary handed to the program.
    pub bytes: Vec<u8>,
    /// Ground truth.
    pub truth: Truth,
    /// Node count of the binary's CFG (for the composition diagnostics).
    pub nodes: usize,
}

/// The generated corpus: training rows first, then the held-out clean
/// variants in screening order.
#[derive(Debug)]
pub struct Generated {
    /// Every sample, with graphs (needed by training and crafting only).
    pub corpus: Corpus,
    /// Corpus indices of the training rows.
    pub train: Vec<usize>,
    /// Corpus indices of the held-out clean variants, in list order.
    pub held_out: Vec<usize>,
}

/// Lineages of one family.
fn lineage_count(family: Family) -> usize {
    ((LINEAGE_BUDGET * family.profile().lineage_share).round() as usize).max(1)
}

/// Lineage base sizes of one family: the family's minimum and maximum (the
/// corpus generator pins the same two) and, between them, the log-normal
/// size profile evaluated at evenly spaced z-scores over its 10th..90th
/// percentile.
pub fn lineage_sizes(family: Family) -> Vec<usize> {
    let p = family.profile();
    let n = lineage_count(family);
    (0..n)
        .map(|i| {
            if i == 0 {
                return p.min_nodes;
            }
            if i == n - 1 {
                return p.max_nodes;
            }
            let z = if n <= 3 {
                0.0
            } else {
                -1.2816 + 2.5631 * (i - 1) as f64 / (n - 3) as f64
            };
            let size = (p.median_nodes as f64 * (p.size_sigma * z).exp()).round() as usize;
            size.clamp(p.min_nodes, p.max_nodes)
        })
        .collect()
}

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Makes variants of one family's lineages, `count` of them assigned to
/// lineages round-robin. A variant is its lineage base with, one time in
/// four, a few structural mutations (up to ~4% of the base), lowered to a
/// binary with a fresh salt — the corpus generator's variant policy.
fn variants(
    family: Family,
    bases: &[soteria_cfg::Cfg],
    count: usize,
    rng: &mut ChaCha8Rng,
    names: &mut usize,
) -> Vec<Sample> {
    (0..count)
        .map(|i| {
            let base = &bases[i % bases.len()];
            let max_mut = (base.node_count() / 25).max(1);
            let edits = if rng.gen_bool(0.75) {
                0
            } else {
                rng.gen_range(1..=max_mut)
            };
            let mut mrng = ChaCha8Rng::seed_from_u64(rng.gen());
            let cfg = mutate(base, edits, &mut mrng);
            let lowered = asm::assemble_salted(&cfg, rng.gen());
            *names += 1;
            Sample::from_parts(
                format!("{}-{:06}", family.name(), *names),
                family,
                lowered.binary,
                lowered.laid_out,
            )
        })
        .collect()
}

/// Interleaves per-family lists so every prefix holds the families in
/// (nearly) their overall proportions: position k takes the family that is
/// furthest behind its quota. Depends only on the counts, never the seed.
fn interleave(counts: &[usize; 4]) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    let mut taken = [0usize; 4];
    let mut order = Vec::with_capacity(total);
    for k in 0..total {
        let f = (0..4)
            .filter(|&f| taken[f] < counts[f])
            .min_by(|&a, &b| {
                let lag = |f: usize| taken[f] as f64 - (k as f64 * counts[f] as f64 / total as f64);
                lag(a).total_cmp(&lag(b)).then(a.cmp(&b))
            })
            .expect("k < total leaves a family with quota");
        taken[f] += 1;
        order.push(f);
    }
    order
}

/// Generates the corpus for `seed`.
pub fn generate(seed: u64) -> Generated {
    let mut samples = Vec::new();
    let mut train = Vec::new();
    let mut per_family_held: Vec<Vec<usize>> = vec![Vec::new(); 4];
    let mut names = 0usize;
    for family in Family::ALL {
        let fi = family.index();
        let profile = family.profile();
        let bases: Vec<soteria_cfg::Cfg> = lineage_sizes(family)
            .into_iter()
            .enumerate()
            .map(|(l, size)| {
                let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, (fi * 64 + l) as u64 + 101));
                motifs::grow(&mut rng, &profile, size)
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, fi as u64 + 7));
        for s in variants(family, &bases, TRAIN_COUNTS[fi], &mut rng, &mut names) {
            train.push(samples.len());
            samples.push(s);
        }
        for s in variants(family, &bases, CLEAN_COUNTS[fi], &mut rng, &mut names) {
            per_family_held[fi].push(samples.len());
            samples.push(s);
        }
    }
    let mut cursors = [0usize; 4];
    let held_out = interleave(&CLEAN_COUNTS)
        .into_iter()
        .map(|f| {
            cursors[f] += 1;
            per_family_held[f][cursors[f] - 1]
        })
        .collect();
    Generated {
        corpus: Corpus::from_samples(samples, seed),
        train,
        held_out,
    }
}

fn item_of(sample: &Sample, truth: Truth) -> Item {
    Item {
        bytes: sample.binary().to_bytes(),
        truth,
        nodes: sample.graph().node_count(),
    }
}

/// The held-out clean variants, in list order.
pub fn clean_items(g: &Generated) -> Vec<Item> {
    g.held_out
        .iter()
        .map(|&i| {
            let s = &g.corpus.samples()[i];
            item_of(s, Truth::Clean(s.family()))
        })
        .collect()
}

/// GEA examples: the first [`GEA_ORIGINALS`] held-out malware variants,
/// each merged with the corpus's Small, Medium and Large benign targets
/// (the paper's min/median/max-node selection), in the order
/// `o0·S, o0·M, o0·L, o1·S, …` so every chunk of [`GEA_CHUNK`] holds each
/// size class equally. Also returns the crafting time in seconds.
///
/// # Errors
///
/// Fails if any merge fails to produce a liftable binary.
pub fn gea_items(g: &Generated, seed: u64) -> Result<(Vec<Item>, f64), String> {
    let samples = g.corpus.samples();
    let originals: Vec<&Sample> = g
        .held_out
        .iter()
        .map(|&i| &samples[i])
        .filter(|s| s.family().is_malware())
        .take(GEA_ORIGINALS)
        .collect();
    let selection = TargetSelection::select(&g.corpus);
    let started = std::time::Instant::now();
    let mut crafted = Vec::new();
    for size in SizeClass::ALL {
        let target = selection
            .target(Family::Benign, size)
            .ok_or("corpus has no benign samples")?;
        let attack = GeaAttack::new(selection.sample(&g.corpus, target), size);
        let out = craft_batch(&attack, &originals, seed)
            .into_iter()
            .map(|r| r.map(|c| item_of(c.sample(), Truth::Gea(size))))
            .collect::<Result<Vec<Item>, _>>()
            .map_err(|e| format!("GEA crafting failed: {e}"))?;
        crafted.push(out);
    }
    let craft_s = started.elapsed().as_secs_f64();
    let mut items = Vec::with_capacity(3 * originals.len());
    for i in 0..originals.len() {
        for per_size in &crafted {
            items.push(per_size[i].clone());
        }
    }
    Ok((items, craft_s))
}

/// The `serve_closed` submission order: indices into the first
/// [`SERVE_DISTINCT`] clean items. Every fourth submission repeats a
/// content already submitted in the pass (chosen by the seed), the rest
/// submit each distinct content once, in list order.
pub fn serve_plan(seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 0x5E2E));
    let mut next = 0usize;
    (0..SERVE_REQUESTS)
        .map(|k| {
            if k % 4 == 3 {
                rng.gen_range(0..next)
            } else {
                next += 1;
                next - 1
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_nodes(items: &[Item]) -> f64 {
        items.iter().map(|i| i.nodes as f64).sum::<f64>() / items.len() as f64
    }

    fn family_counts(items: &[Item]) -> [usize; 4] {
        let mut c = [0; 4];
        for i in items {
            if let Truth::Clean(f) = i.truth {
                c[f.index()] += 1;
            }
        }
        c
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let (a, b) = (generate(11), generate(11));
        assert_eq!(clean_items(&a), clean_items(&b));
        assert_eq!(a.train, b.train);
        let (ga, _) = gea_items(&a, 11).expect("craft");
        let (gb, _) = gea_items(&b, 11).expect("craft");
        assert_eq!(ga, gb);
        assert_eq!(serve_plan(11), serve_plan(11));
    }

    /// Seeds change contents, never composition: equal per-family counts
    /// and a mean CFG size within 1% of each other on both lists.
    #[test]
    fn seeds_keep_composition_and_size() {
        let mut clean_means = Vec::new();
        let mut gea_means = Vec::new();
        for seed in [1, 2, 3, 4] {
            let g = generate(seed);
            let clean = clean_items(&g);
            assert_eq!(family_counts(&clean), CLEAN_COUNTS);
            let (gea, _) = gea_items(&g, seed).expect("craft");
            assert_eq!(gea.len(), 3 * GEA_ORIGINALS);
            clean_means.push(mean_nodes(&clean));
            gea_means.push(mean_nodes(&gea));
        }
        for means in [clean_means, gea_means] {
            let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = means.iter().copied().fold(0.0, f64::max);
            assert!(hi / lo < 1.01, "mean CFG nodes spread too wide: {means:?}");
        }
    }

    #[test]
    fn gea_chunks_interleave_the_three_size_classes() {
        let g = generate(5);
        let (gea, _) = gea_items(&g, 5).expect("craft");
        assert_eq!(gea.len() % GEA_CHUNK, 0);
        for chunk in gea.chunks(GEA_CHUNK) {
            for size in SizeClass::ALL {
                let n = chunk.iter().filter(|i| i.truth == Truth::Gea(size)).count();
                assert_eq!(
                    n,
                    GEA_CHUNK / 3,
                    "chunk is not balanced across size classes"
                );
            }
        }
    }

    #[test]
    fn serve_plan_repeats_one_in_four_earlier_contents() {
        let plan = serve_plan(9);
        assert_eq!(plan.len(), SERVE_REQUESTS);
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        for &i in &plan {
            assert!(i < SERVE_DISTINCT);
            if !seen.insert(i) {
                repeats += 1;
            }
        }
        assert_eq!(repeats, SERVE_REQUESTS / 4);
        assert_eq!(seen.len(), SERVE_DISTINCT);
    }
}
