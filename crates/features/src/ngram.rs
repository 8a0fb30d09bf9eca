//! n-gram extraction over walk label sequences.
//!
//! A gram is a short window (the paper uses n ∈ {2, 3, 4}) of consecutive
//! labels from a random walk. Grams are packed into a fixed-size key for
//! cheap hashing: each label occupies 16 bits (labels are bounded by
//! `|V| - 1` and the paper's graphs stay far below 65,536 nodes).

use std::collections::HashMap;

/// Maximum label value a gram can carry.
pub const MAX_LABEL: usize = u16::MAX as usize;

/// A packed n-gram of walk labels, `2 ≤ n ≤ 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gram {
    len: u8,
    packed: u64,
}

impl Gram {
    /// Packs a window of labels.
    ///
    /// # Panics
    ///
    /// Panics if the window length is not in `1..=4` or a label exceeds
    /// [`MAX_LABEL`].
    pub fn new(labels: &[usize]) -> Self {
        assert!(
            (1..=4).contains(&labels.len()),
            "gram length {} not in 1..=4",
            labels.len()
        );
        let mut packed = 0u64;
        for (i, &l) in labels.iter().enumerate() {
            assert!(l <= MAX_LABEL, "label {l} exceeds 16 bits");
            packed |= (l as u64) << (16 * i);
        }
        Gram {
            len: labels.len() as u8,
            packed,
        }
    }

    /// Number of labels in the gram.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the gram is empty (never true for constructed grams).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw packed label bits (16 bits per label, first label in the low
    /// bits) — the fast path's interned key and the binary artifact's
    /// on-disk form.
    pub fn packed(&self) -> u64 {
        self.packed
    }

    /// Rebuilds a gram from its raw parts (the inverse of
    /// [`packed`](Gram::packed) + [`len`](Gram::len), used by the binary
    /// artifact loader).
    ///
    /// # Panics
    ///
    /// Panics if `len` is not in `1..=4` or `packed` carries bits beyond
    /// `len` labels.
    pub fn from_raw(len: u8, packed: u64) -> Self {
        assert!((1..=4).contains(&len), "gram length {len} not in 1..=4");
        assert!(
            len == 4 || packed >> (16 * len as u32) == 0,
            "packed bits beyond gram length"
        );
        Gram { len, packed }
    }

    /// Unpacks the labels.
    pub fn labels(&self) -> Vec<usize> {
        (0..self.len as usize)
            .map(|i| ((self.packed >> (16 * i)) & 0xFFFF) as usize)
            .collect()
    }
}

impl std::fmt::Display for Gram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let labels: Vec<String> = self.labels().iter().map(|l| l.to_string()).collect();
        write!(f, "({})", labels.join(","))
    }
}

/// A bag of gram counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GramCounts {
    counts: HashMap<Gram, u32>,
    total: u64,
}

impl GramCounts {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every n-gram of each size in `sizes` from `walk`.
    pub fn add_walk(&mut self, walk: &[usize], sizes: &[usize]) {
        for &n in sizes {
            if walk.len() < n {
                continue;
            }
            for window in walk.windows(n) {
                *self.counts.entry(Gram::new(window)).or_insert(0) += 1;
                self.total += 1;
            }
        }
    }

    /// Merges another bag into this one.
    pub fn merge(&mut self, other: &GramCounts) {
        for (&g, &c) in &other.counts {
            *self.counts.entry(g).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Count of one gram.
    pub fn count(&self, gram: Gram) -> u32 {
        self.counts.get(&gram).copied().unwrap_or(0)
    }

    /// Total grams added (with multiplicity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct grams.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(gram, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Gram, u32)> + '_ {
        self.counts.iter().map(|(&g, &c)| (g, c))
    }

    /// The `k` most frequent grams, ties broken by gram order for
    /// determinism.
    pub fn top_k(&self, k: usize) -> Vec<Gram> {
        let mut pairs: Vec<(Gram, u32)> = self.iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs.into_iter().take(k).map(|(g, _)| g).collect()
    }
}

/// Convenience: count the grams of a whole walk set.
pub fn count_walk_set(walks: &[Vec<usize>], sizes: &[usize]) -> GramCounts {
    let mut counts = GramCounts::new();
    for w in walks {
        counts.add_walk(w, sizes);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_round_trips_labels() {
        for labels in [vec![5], vec![1, 2], vec![3, 1, 4], vec![9, 8, 7, 6]] {
            assert_eq!(Gram::new(&labels).labels(), labels);
            assert_eq!(Gram::new(&labels).len(), labels.len());
        }
    }

    #[test]
    fn grams_of_different_length_never_collide() {
        // [0,0] vs [0,0,0]: same packed bits, different len.
        assert_ne!(Gram::new(&[0, 0]), Gram::new(&[0, 0, 0]));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Gram::new(&[1, 2, 3]).to_string(), "(1,2,3)");
    }

    #[test]
    #[should_panic(expected = "not in 1..=4")]
    fn oversized_gram_panics() {
        let _ = Gram::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "exceeds 16 bits")]
    fn oversized_label_panics() {
        let _ = Gram::new(&[70_000]);
    }

    #[test]
    fn add_walk_counts_all_windows() {
        let mut c = GramCounts::new();
        c.add_walk(&[0, 1, 0, 1], &[2, 3]);
        // 2-grams: (0,1),(1,0),(0,1) ; 3-grams: (0,1,0),(1,0,1).
        assert_eq!(c.count(Gram::new(&[0, 1])), 2);
        assert_eq!(c.count(Gram::new(&[1, 0])), 1);
        assert_eq!(c.count(Gram::new(&[0, 1, 0])), 1);
        assert_eq!(c.total(), 5);
        assert_eq!(c.distinct(), 4);
    }

    #[test]
    fn short_walks_skip_large_ngrams() {
        let mut c = GramCounts::new();
        c.add_walk(&[1, 2], &[2, 3, 4]);
        assert_eq!(c.total(), 1); // only the single 2-gram
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = GramCounts::new();
        a.add_walk(&[0, 1], &[2]);
        let mut b = GramCounts::new();
        b.add_walk(&[0, 1, 0], &[2]);
        a.merge(&b);
        assert_eq!(a.count(Gram::new(&[0, 1])), 2);
        assert_eq!(a.count(Gram::new(&[1, 0])), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn top_k_orders_by_frequency_then_gram() {
        let mut c = GramCounts::new();
        c.add_walk(&[0, 1, 0, 1, 0], &[2]); // (0,1)x2, (1,0)x2
        c.add_walk(&[2, 3], &[2]); // (2,3)x1
        let top = c.top_k(2);
        assert_eq!(top.len(), 2);
        // (0,1) and (1,0) tie at 2; gram order puts (1,0) first, whose
        // packed value (label 1 in the low 16 bits) is smaller.
        assert_eq!(top[0], Gram::new(&[1, 0]));
        assert_eq!(top[1], Gram::new(&[0, 1]));
    }

    #[test]
    fn top_k_with_large_k_returns_all() {
        let mut c = GramCounts::new();
        c.add_walk(&[0, 1, 2], &[2]);
        assert_eq!(c.top_k(100).len(), 2);
    }

    #[test]
    fn count_walk_set_merges_walks() {
        let walks = vec![vec![0, 1], vec![0, 1]];
        let c = count_walk_set(&walks, &[2]);
        assert_eq!(c.count(Gram::new(&[0, 1])), 2);
    }
}
