//! The deterministic parallel fast path for feature extraction.
//!
//! [`extract_fast`] produces output bit-identical to the sequential
//! reference implementation
//! ([`FeatureExtractor::extract_reference`](crate::FeatureExtractor::extract_reference))
//! while replacing its three hot data structures:
//!
//! * **Per-walk RNG streams.** The reference draws all `2·count` walks from
//!   one sequential ChaCha8 stream: DBL walks first, then LBL walks. Each
//!   accepted `gen_range` draw consumes exactly one `next_u64` — two 32-bit
//!   keystream words — so walk `w` starts at word `w · 2·len` *unless* a
//!   Lemire rejection (probability ≈ `span / 2⁶⁴` per draw) consumed an
//!   extra draw somewhere before it. The fast path speculates that no
//!   rejection occurs: each walk seeds its own rng, jumps to its predicted
//!   word offset with `set_word_pos`, and afterwards verifies it consumed
//!   exactly the predicted number of words. Any mismatch anywhere flips a
//!   shared flag and the whole sample is recomputed on the reference path,
//!   so a speculation miss costs time, never correctness.
//!
//! * **Arc-indexed gram counting.** Instead of a `HashMap<Gram, u32>` per
//!   walk, each labeling gets one [`ArcGrams`] table per sample, built over
//!   the reachable graph's CSR before the walks fan out: the vocabulary id
//!   of every arc's 2-gram, a flag byte saying whether the arc's label pair
//!   starts some vocabulary 3- or 4-gram, and every node's 1-gram id. A
//!   walk step then bumps `counts[pair[s]]` for the arc slot `s` it took
//!   (and `counts[node[at]]` when size 1 is configured); it packs and looks
//!   up a 3- or 4-gram window in the frozen open-addressing table
//!   ([`VocabIndex`]) only when the arc one or two steps back carries the
//!   matching flag. Out-of-vocabulary ids all name one sink slot past the
//!   vocabulary, so counting takes no branch; each walk's total (the
//!   reference's TF denominator, out-of-vocabulary windows included) is
//!   `Σ_n max(0, L − n + 1)` over the configured sizes for `L` visited
//!   labels. Walks are never materialized as label vectors.
//!
//! * **Scratch arenas.** The flat count/total buffers are checked out of a
//!   process-wide pool and returned after use, so steady-state extraction
//!   does not reallocate them. The arena is a checkout/checkin pool rather
//!   than a thread-local because pool workers *help drain* the queue while
//!   waiting: one OS thread can interleave two extractions' tasks.
//!
//! Bit-identity of the floating-point output holds because every per-gram
//! count and per-walk total is an integer on both paths, and the float
//! expressions (`tf = count / total`, `tf * idf`, index-order L2 norm) are
//! replicated operation for operation.

use crate::ngram::MAX_LABEL;
use crate::tfidf::Vocabulary;
use crate::{labeling, ExtractorConfig, Labeling};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use soteria_cfg::{Cfg, CsrAdjacency};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A frozen open-addressing lookup table from packed gram to id.
///
/// Linear probing over a power-of-two slot array sized at 4× the entry
/// count (load factor ≤ 0.25), keyed by `(len, packed)`. `len == 0` marks
/// an empty slot — constructed grams always have `1 ≤ len ≤ 4`.
#[derive(Debug, Clone)]
pub(crate) struct VocabIndex {
    slots: Vec<Slot>,
    mask: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    len: u8,
    packed: u64,
    id: u32,
}

fn hash_gram(len: u8, packed: u64) -> u64 {
    let mut z = packed.wrapping_add(u64::from(len).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`ArcGrams::flags`] bit: the arc's label pair starts a vocabulary 3-gram.
const STARTS_3: u8 = 1;
/// [`ArcGrams::flags`] bit: the arc's label pair starts a vocabulary 4-gram.
const STARTS_4: u8 = 2;

impl VocabIndex {
    /// Indexes `(len, packed, id)` entries. A repeated key resolves to its
    /// last entry, as [`Vocabulary`]'s own index does, so a vocabulary that
    /// lists a gram twice counts it into the same feature on both paths.
    fn from_entries(entries: impl ExactSizeIterator<Item = (u8, u64, u32)>) -> Self {
        let cap = (4 * entries.len().max(1)).next_power_of_two();
        let mut slots = vec![
            Slot {
                len: 0,
                packed: 0,
                id: 0
            };
            cap
        ];
        let mask = cap - 1;
        for (len, packed, id) in entries {
            let mut at = hash_gram(len, packed) as usize & mask;
            while slots[at].len != 0 && (slots[at].len, slots[at].packed) != (len, packed) {
                at = (at + 1) & mask;
            }
            slots[at] = Slot { len, packed, id };
        }
        VocabIndex { slots, mask }
    }

    /// Maps every vocabulary gram to its feature id.
    pub(crate) fn build(vocab: &Vocabulary) -> Self {
        Self::from_entries(
            vocab
                .grams()
                .iter()
                .enumerate()
                .map(|(i, g)| (g.len() as u8, g.packed(), i as u32)),
        )
    }

    /// Maps every label pair that starts a vocabulary 3- or 4-gram, keyed
    /// as a 2-gram, to its `STARTS_3 | STARTS_4` bits.
    fn prefixes(vocab: &Vocabulary) -> Self {
        let mut bits: BTreeMap<u64, u8> = BTreeMap::new();
        for g in vocab.grams() {
            let flag = match g.len() {
                3 => STARTS_3,
                4 => STARTS_4,
                _ => continue,
            };
            *bits.entry(g.packed() & 0xFFFF_FFFF).or_default() |= flag;
        }
        Self::from_entries(
            bits.into_iter()
                .map(|(pair, flag)| (2, pair, u32::from(flag))),
        )
    }

    #[inline]
    fn get(&self, len: u8, packed: u64) -> Option<u32> {
        let mut at = hash_gram(len, packed) as usize & self.mask;
        loop {
            let s = self.slots[at];
            if s.len == 0 {
                return None;
            }
            if s.len == len && s.packed == packed {
                return Some(s.id);
            }
            at = (at + 1) & self.mask;
        }
    }
}

/// One labeling's frozen lookup tables.
#[derive(Debug, Clone)]
struct LabelingTables {
    /// Vocabulary gram → feature id.
    grams: VocabIndex,
    /// Label pair → the `STARTS_*` bits of the 3- and 4-grams it starts.
    prefixes: VocabIndex,
    /// The count slot every out-of-vocabulary window bumps: one past the
    /// vocabulary.
    sink: u32,
}

impl LabelingTables {
    fn build(vocab: &Vocabulary) -> Self {
        LabelingTables {
            grams: VocabIndex::build(vocab),
            prefixes: VocabIndex::prefixes(vocab),
            sink: vocab.len() as u32,
        }
    }
}

/// Both labelings' tables, built once per fitted extractor and cached
/// behind a `OnceLock` (rebuilt transparently after loading).
#[derive(Debug, Clone)]
pub(crate) struct FastTables {
    dbl: LabelingTables,
    lbl: LabelingTables,
}

impl FastTables {
    pub(crate) fn build(dbl: &Vocabulary, lbl: &Vocabulary) -> Self {
        FastTables {
            dbl: LabelingTables::build(dbl),
            lbl: LabelingTables::build(lbl),
        }
    }
}

/// The configured n-gram sizes as one flag per size (index 1..=4), or
/// `None` when a size lies outside 1..=4 or repeats: the per-size kernel
/// counts each size once, where the reference counts a repeated size as
/// often as it is listed.
fn size_set(sizes: &[usize]) -> Option<[bool; 5]> {
    let mut set = [false; 5];
    for &n in sizes {
        if !(1..=4).contains(&n) || std::mem::replace(&mut set[n], true) {
            return None;
        }
    }
    Some(set)
}

/// One labeling's gram ids laid over a graph's CSR, built once per sample
/// before the walks fan out, so a walk step reads arrays instead of
/// packing and hashing its windows. Out-of-vocabulary ids are the tables'
/// sink.
struct ArcGrams<'a> {
    csr: &'a CsrAdjacency,
    labels: &'a [usize],
    grams: &'a VocabIndex,
    /// Per arc slot `s` (see [`CsrAdjacency::offsets`]) from `u` to `v`:
    /// the id of the 2-gram `(label u, label v)`.
    pair: Vec<u32>,
    /// Per arc slot: `STARTS_3` / `STARTS_4` when the arc's label pair
    /// starts some vocabulary 3- / 4-gram.
    flags: Vec<u8>,
    /// Per node: the id of its label's 1-gram.
    node: Vec<u32>,
}

impl<'a> ArcGrams<'a> {
    fn build(csr: &'a CsrAdjacency, labels: &'a [usize], tables: &'a LabelingTables) -> Self {
        let id = |len, packed| tables.grams.get(len, packed).unwrap_or(tables.sink);
        let arcs = csr.targets().len();
        let (mut pair, mut flags) = (Vec::with_capacity(arcs), Vec::with_capacity(arcs));
        for (u, &lu) in labels.iter().enumerate() {
            for &v in csr.neighbors(u) {
                let packed = lu as u64 | (labels[v as usize] as u64) << 16;
                pair.push(id(2, packed));
                flags.push(tables.prefixes.get(2, packed).map_or(0, |f| f as u8));
            }
        }
        let node = labels.iter().map(|&l| id(1, l as u64)).collect();
        ArcGrams {
            csr,
            labels,
            grams: &tables.grams,
            pair,
            flags,
            node,
        }
    }

    /// Walks `len` steps from `entry` and counts every configured window
    /// into `counts` (one slot per vocabulary gram, then the sink).
    /// Returns the walk's window total, in vocabulary or not, which is the
    /// reference's TF denominator.
    fn count_walk<R: Rng>(
        &self,
        entry: usize,
        len: usize,
        sizes: [bool; 5],
        rng: &mut R,
        counts: &mut [u32],
    ) -> u64 {
        let (offsets, targets) = (self.csr.offsets(), self.csr.targets());
        let mut at = entry;
        // The last four labels, newest in the top 16 bits, so the n-label
        // window ending here packs as `window >> (16 * (4 - n))`.
        let mut window = (self.labels[at] as u64) << 48;
        // Flags of the arcs taken one and two steps back (0 until taken).
        let (mut back1, mut back2) = (0u8, 0u8);
        let mut visited = 1u64;
        if sizes[1] {
            counts[self.node[at] as usize] += 1;
        }
        for _ in 0..len {
            let lo = offsets[at] as usize;
            let degree = offsets[at + 1] as usize - lo;
            if degree == 0 {
                break;
            }
            let s = lo + rng.gen_range(0..degree);
            at = targets[s] as usize;
            visited += 1;
            window = window >> 16 | (self.labels[at] as u64) << 48;
            if sizes[1] {
                counts[self.node[at] as usize] += 1;
            }
            if sizes[2] {
                counts[self.pair[s] as usize] += 1;
            }
            if sizes[3] && back1 & STARTS_3 != 0 {
                if let Some(id) = self.grams.get(3, window >> 16) {
                    counts[id as usize] += 1;
                }
            }
            if sizes[4] && back2 & STARTS_4 != 0 {
                if let Some(id) = self.grams.get(4, window) {
                    counts[id as usize] += 1;
                }
            }
            back2 = back1;
            back1 = self.flags[s];
        }
        (1..=4u64)
            .filter(|&n| sizes[n as usize])
            .map(|n| (visited + 1).saturating_sub(n))
            .sum()
    }
}

/// Reusable count/total buffers for one extraction.
#[derive(Default)]
struct Scratch {
    /// Per-walk dense counts: `count` DBL blocks then `count` LBL blocks,
    /// each one slot per vocabulary gram plus the sink.
    counts: Vec<u32>,
    /// Column sums over walks, DBL block then LBL block.
    merged: Vec<u32>,
    /// Per-walk window totals (including out-of-vocabulary windows).
    totals: Vec<u64>,
}

static SCRATCH_POOL: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());
const SCRATCH_POOL_CAP: usize = 32;

fn checkout() -> Scratch {
    SCRATCH_POOL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .pop()
        .unwrap_or_default()
}

fn checkin(scratch: Scratch) {
    let mut pool = SCRATCH_POOL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if pool.len() < SCRATCH_POOL_CAP {
        pool.push(scratch);
    }
}

/// The fast path's output; the extractor wraps it into `SampleFeatures`.
pub(crate) struct FastOutput {
    pub(crate) dbl_walks: Vec<Vec<f64>>,
    pub(crate) lbl_walks: Vec<Vec<f64>>,
    pub(crate) combined: Vec<f64>,
}

/// One walk's unit of work: its global index (which fixes its RNG word
/// offset), its labeling's tables, and disjoint output slices.
struct WalkUnit<'a> {
    w: usize,
    arcs: &'a ArcGrams<'a>,
    idf: &'a [f64],
    vlen: usize,
    counts: &'a mut [u32],
    total: &'a mut u64,
    out: &'a mut [f64],
}

/// Runs one walk end to end: jump the RNG to the walk's predicted word
/// offset, walk and count fused, verify the speculation, then transform and
/// normalize into the walk's output slice.
fn run_unit(
    unit: &mut WalkUnit<'_>,
    entry: usize,
    len: usize,
    sizes: [bool; 5],
    seed: u64,
    words_per_walk: u64,
    ok: &AtomicBool,
) {
    if !ok.load(Ordering::Relaxed) {
        return;
    }
    let start = (unit.w as u64).wrapping_mul(words_per_walk);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rng.set_word_pos(start);
    let total = unit
        .arcs
        .count_walk(entry, len, sizes, &mut rng, unit.counts);
    if rng.get_word_pos() != start.wrapping_add(words_per_walk) {
        // A Lemire rejection shifted the sequential stream: this walk (and
        // every later one) no longer matches the reference. Abort the whole
        // sample; the caller falls back to the reference path.
        ok.store(false, Ordering::Relaxed);
        return;
    }
    *unit.total = total;
    if total > 0 {
        for i in 0..unit.vlen {
            let c = unit.counts[i];
            if c > 0 {
                let tf = f64::from(c) / total as f64;
                unit.out[i] = tf * unit.idf[i];
            }
        }
    }
    // Same operation order as the reference's `l2_normalized`.
    let norm = unit.out.iter().map(|&x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in unit.out.iter_mut() {
            *x /= norm;
        }
    }
}

/// Extracts one sample on the fast path, or returns `None` when the fast
/// path cannot guarantee bit-identical output and the caller must use the
/// reference implementation: an n-gram size outside 1..=4 (the reference
/// panics on those, and the fallback reproduces that), a repeated n-gram
/// size, a label outside the packable range, a vocabulary wider than
/// `top_k`, or an RNG speculation miss.
pub(crate) fn extract_fast(
    config: &ExtractorConfig,
    dbl_vocab: &Vocabulary,
    lbl_vocab: &Vocabulary,
    tables: &FastTables,
    cfg: &Cfg,
    seed: u64,
) -> Option<FastOutput> {
    let k = config.top_k;
    let sizes = size_set(&config.ngram_sizes)?;
    if dbl_vocab.len() > k || lbl_vocab.len() > k {
        return None;
    }

    let (reachable, _) = cfg.reachable_subgraph();
    let (dbl_labels, lbl_labels) = {
        let _span = soteria_telemetry::span("features.stage.labeling");
        let keys = labeling::NodeKeys::compute(&reachable);
        (
            labeling::label_nodes_with(&reachable, Labeling::Density, &keys),
            labeling::label_nodes_with(&reachable, Labeling::Level, &keys),
        )
    };
    if dbl_labels
        .iter()
        .chain(lbl_labels.iter())
        .any(|&l| l > MAX_LABEL)
    {
        return None;
    }

    let csr = reachable.csr_adjacency();
    let entry = reachable.entry().index();
    let len = config.walk_multiplier * reachable.node_count();
    let count = config.walks_per_labeling;
    let total_walks = 2 * count;
    let (dl, ll) = (dbl_vocab.len(), lbl_vocab.len());
    // Every accepted uniform draw costs exactly two keystream words; a walk
    // from an isolated entry stops before its first draw.
    let words_per_walk = if csr.degree(entry) == 0 {
        0
    } else {
        2 * len as u64
    };

    let mut scratch = checkout();
    let (dstride, lstride) = (dl + 1, ll + 1);
    scratch.counts.clear();
    scratch.counts.resize(count * (dstride + lstride), 0);
    scratch.totals.clear();
    scratch.totals.resize(total_walks, 0);
    scratch.merged.clear();
    scratch.merged.resize(dl + ll, 0);

    let mut dbl_walks: Vec<Vec<f64>> = (0..count).map(|_| vec![0.0; k]).collect();
    let mut lbl_walks: Vec<Vec<f64>> = (0..count).map(|_| vec![0.0; k]).collect();

    let ok = AtomicBool::new(true);
    {
        let _span = soteria_telemetry::span("features.stage.walks");
        let dbl_arcs = ArcGrams::build(csr, &dbl_labels, &tables.dbl);
        let lbl_arcs = ArcGrams::build(csr, &lbl_labels, &tables.lbl);
        let (dbl_flat, lbl_flat) = scratch.counts.split_at_mut(count * dstride);
        let (dbl_totals, lbl_totals) = scratch.totals.split_at_mut(count);
        let mut units: Vec<WalkUnit<'_>> = Vec::with_capacity(total_walks);
        for (w, ((counts, out), total)) in dbl_flat
            .chunks_mut(dstride)
            .zip(dbl_walks.iter_mut())
            .zip(dbl_totals.iter_mut())
            .enumerate()
        {
            units.push(WalkUnit {
                w,
                arcs: &dbl_arcs,
                idf: dbl_vocab.idf_weights(),
                vlen: dl,
                counts,
                total,
                out,
            });
        }
        for (j, ((counts, out), total)) in lbl_flat
            .chunks_mut(lstride)
            .zip(lbl_walks.iter_mut())
            .zip(lbl_totals.iter_mut())
            .enumerate()
        {
            units.push(WalkUnit {
                w: count + j,
                arcs: &lbl_arcs,
                idf: lbl_vocab.idf_weights(),
                vlen: ll,
                counts,
                total,
                out,
            });
        }

        let jobs = (soteria_pool::pool_threads() + 1).min(units.len().max(1));
        if jobs <= 1 {
            for unit in &mut units {
                run_unit(unit, entry, len, sizes, seed, words_per_walk, &ok);
            }
        } else {
            let per = units.len().div_ceil(jobs);
            let ok = &ok;
            let tasks: Vec<soteria_pool::ScopedTask<'_>> = units
                .chunks_mut(per)
                .map(|chunk| {
                    Box::new(move || {
                        for unit in chunk.iter_mut() {
                            run_unit(unit, entry, len, sizes, seed, words_per_walk, ok);
                        }
                    }) as soteria_pool::ScopedTask<'_>
                })
                .collect();
            soteria_telemetry::counter("features.fastpath.walk_jobs", tasks.len() as u64);
            soteria_pool::run_scoped(tasks);
        }
    }
    if !ok.load(Ordering::Relaxed) {
        checkin(scratch);
        return None;
    }

    // Merged vectors are integer column sums over the per-walk counts
    // (order-independent), then the same transform + single normalization
    // as the reference's combined vector.
    let _span = soteria_telemetry::span("features.stage.tfidf_transform");
    let (dbl_flat, lbl_flat) = scratch.counts.split_at(count * dstride);
    let (dbl_merged, lbl_merged) = scratch.merged.split_at_mut(dl);
    for walk in dbl_flat.chunks(dstride) {
        for (m, &c) in dbl_merged.iter_mut().zip(walk.iter()) {
            *m += c;
        }
    }
    for walk in lbl_flat.chunks(lstride) {
        for (m, &c) in lbl_merged.iter_mut().zip(walk.iter()) {
            *m += c;
        }
    }
    let dbl_total: u64 = scratch.totals[..count].iter().sum();
    let lbl_total: u64 = scratch.totals[count..].iter().sum();

    let mut combined = vec![0.0f64; 2 * k];
    if dbl_total > 0 {
        for (i, &c) in dbl_merged.iter().enumerate() {
            if c > 0 {
                let tf = f64::from(c) / dbl_total as f64;
                combined[i] = tf * dbl_vocab.idf(i);
            }
        }
    }
    if lbl_total > 0 {
        for (i, &c) in lbl_merged.iter().enumerate() {
            if c > 0 {
                let tf = f64::from(c) / lbl_total as f64;
                combined[k + i] = tf * lbl_vocab.idf(i);
            }
        }
    }
    let norm = combined.iter().map(|&x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in &mut combined {
            *x /= norm;
        }
    }

    checkin(scratch);
    Some(FastOutput {
        dbl_walks,
        lbl_walks,
        combined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ngram::Gram;
    use crate::ngram::GramCounts;

    fn vocab_of(walks: &[&[usize]], sizes: &[usize], k: usize) -> Vocabulary {
        let docs: Vec<GramCounts> = walks
            .iter()
            .map(|w| {
                let mut c = GramCounts::new();
                c.add_walk(w, sizes);
                c
            })
            .collect();
        Vocabulary::fit(&docs, k)
    }

    #[test]
    fn vocab_index_finds_every_gram_and_rejects_others() {
        let vocab = vocab_of(&[&[0, 1, 2, 3, 0, 1], &[2, 2, 2]], &[2, 3], 64);
        let index = VocabIndex::build(&vocab);
        for (i, g) in vocab.grams().iter().enumerate() {
            assert_eq!(index.get(g.len() as u8, g.packed()), Some(i as u32));
        }
        let absent = Gram::new(&[9, 9, 9, 9]);
        assert_eq!(index.get(absent.len() as u8, absent.packed()), None);
    }

    #[test]
    fn vocab_index_on_empty_vocabulary_is_empty() {
        let vocab = Vocabulary::fit(&[], 8);
        let index = VocabIndex::build(&vocab);
        assert_eq!(index.get(2, 0), None);
    }

    /// Five nodes with a 2-cycle (0 ⇄ 1), a self-loop on 2 and a triangle
    /// through 3, labeled so label pairs repeat across arcs.
    fn looped_graph() -> (Cfg, Vec<usize>) {
        let mut b = soteria_cfg::CfgBuilder::new();
        let n: Vec<_> = (0..5).map(|i| b.add_block(16 * i, 1)).collect();
        for (f, t) in [(0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (3, 1), (3, 4)] {
            b.add_edge(n[f], n[t]).unwrap();
        }
        (b.build(n[0]).unwrap(), vec![0, 1, 2, 1, 0])
    }

    /// Hand-picked grams of every length: some label pairs start 3-grams,
    /// some 4-grams, some both, and several walk windows stay outside.
    fn looped_vocab() -> Vocabulary {
        let grams: Vec<Gram> = [
            &[0][..],
            &[2],
            &[0, 1],
            &[2, 2],
            &[1, 2],
            &[0, 1, 2],
            &[2, 2, 1],
            &[1, 0, 1],
            &[0, 1, 2, 2],
            &[2, 2, 2, 1],
            &[1, 2, 1, 0],
        ]
        .iter()
        .map(|w| Gram::new(w))
        .collect();
        let idf = vec![1.0; grams.len()];
        Vocabulary::from_parts(grams, idf)
    }

    #[test]
    fn arc_grams_hold_each_arcs_vocabulary_ids_and_start_flags() {
        let (g, labels) = looped_graph();
        let vocab = looped_vocab();
        let tables = LabelingTables::build(&vocab);
        let csr = g.csr_adjacency();
        let arcs = ArcGrams::build(csr, &labels, &tables);
        let id_of = |w: &[usize]| {
            let gram = Gram::new(w);
            vocab
                .grams()
                .iter()
                .position(|&v| v == gram)
                .map_or(vocab.len() as u32, |i| i as u32)
        };
        let starts = |n: usize, pair: [usize; 2]| {
            vocab
                .grams()
                .iter()
                .any(|v| v.len() == n && v.labels()[..2] == pair)
        };
        assert_eq!(arcs.pair.len(), csr.targets().len());
        let mut seen_flags = 0u8;
        for u in 0..g.node_count() {
            assert_eq!(arcs.node[u], id_of(&[labels[u]]), "node {u}");
            let slots = csr.offsets()[u] as usize..csr.offsets()[u + 1] as usize;
            for s in slots {
                let v = csr.targets()[s] as usize;
                let pair = [labels[u], labels[v]];
                assert_eq!(arcs.pair[s], id_of(&pair), "arc {u} -> {v}");
                let mut want = 0;
                if starts(3, pair) {
                    want |= STARTS_3;
                }
                if starts(4, pair) {
                    want |= STARTS_4;
                }
                assert_eq!(arcs.flags[s], want, "arc {u} -> {v}");
                seen_flags |= want;
            }
        }
        // The graph reaches both flags, the sink and a self-loop arc.
        assert_eq!(seen_flags, STARTS_3 | STARTS_4);
        assert!(arcs.pair.contains(&(vocab.len() as u32)));
        assert!(csr.neighbors(2).contains(&2));
    }

    #[test]
    fn a_walk_counted_through_the_arc_tables_equals_the_reference_counts() {
        let (g, labels) = looped_graph();
        let vocab = looped_vocab();
        let tables = LabelingTables::build(&vocab);
        let csr = g.csr_adjacency();
        let arcs = ArcGrams::build(csr, &labels, &tables);
        let adjacency = g.undirected_adjacency();
        for mask in 1..16usize {
            let sizes: Vec<usize> = (1..=4).filter(|&n| mask & (1 << (n - 1)) != 0).collect();
            let set = size_set(&sizes).unwrap();
            for (seed, len) in [(0u64, 0usize), (1, 1), (2, 2), (3, 40), (4, 400)] {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut counts = vec![0u32; vocab.len() + 1];
                let total = arcs.count_walk(0, len, set, &mut rng, &mut counts);

                let mut twin = ChaCha8Rng::seed_from_u64(seed);
                let walk =
                    crate::walk::walk_adjacency(&adjacency, g.entry(), &labels, len, &mut twin);
                let mut reference = GramCounts::new();
                reference.add_walk(&walk, &sizes);
                assert_eq!(total, reference.total(), "sizes {sizes:?}, seed {seed}");
                for (i, gram) in vocab.grams().iter().enumerate() {
                    let want = if sizes.contains(&gram.len()) {
                        reference.count(*gram)
                    } else {
                        0
                    };
                    assert_eq!(counts[i], want, "{gram}, sizes {sizes:?}, seed {seed}");
                }
                assert_eq!(rng.get_word_pos(), twin.get_word_pos());
            }
        }
    }

    #[test]
    fn size_sets_decline_repeats_and_sizes_outside_1_to_4() {
        assert_eq!(size_set(&[2, 3, 4]), Some([false, false, true, true, true]));
        assert_eq!(size_set(&[4, 1]), Some([false, true, false, false, true]));
        assert_eq!(size_set(&[]), Some([false; 5]));
        assert_eq!(size_set(&[2, 2, 3]), None);
        assert_eq!(size_set(&[0, 2]), None);
        assert_eq!(size_set(&[2, 5]), None);
    }

    #[test]
    fn scratch_pool_round_trips() {
        let mut s = checkout();
        s.counts.resize(10, 7);
        checkin(s);
        let s2 = checkout();
        // Buffers come back with stale contents; extract_fast re-zeroes.
        checkin(s2);
    }
}
