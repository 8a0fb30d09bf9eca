//! The [`Cfg`] type: an immutable control flow graph.

use crate::block::{BasicBlock, BlockId};
use crate::traversal;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Compressed-sparse-row form of a graph's **undirected** adjacency: all
/// neighbor lists flattened into one `targets` array with per-node
/// `offsets`. Neighbor order is identical to
/// [`Cfg::undirected_neighbors`] (sorted, deduplicated), so walking CSR
/// visits exactly the nodes the `Vec<Vec<BlockId>>` form would — this is
/// what lets the feature-extraction fast path swap representations without
/// perturbing a single RNG draw.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrAdjacency {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for node `v`
    /// (`node_count + 1` entries, first 0, last `targets.len()`).
    offsets: Vec<u32>,
    /// Concatenated neighbor indices, each list sorted ascending.
    targets: Vec<u32>,
}

impl CsrAdjacency {
    fn build(cfg: &Cfg) -> Self {
        let n = cfg.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        let mut scratch: Vec<BlockId> = Vec::new();
        for v in 0..n {
            scratch.clear();
            scratch.extend(cfg.succ[v].iter().chain(cfg.pred[v].iter()).copied());
            scratch.sort_unstable();
            scratch.dedup();
            targets.extend(scratch.iter().map(|b| b.index() as u32));
            offsets.push(u32::try_from(targets.len()).expect("edge count exceeds u32::MAX"));
        }
        CsrAdjacency { offsets, targets }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Undirected neighbors of node `v` as dense indices, sorted ascending.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Undirected degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The offsets array: node `v`'s neighbors are the arc slots
    /// `offsets()[v]..offsets()[v + 1]` of [`targets`](Self::targets), so
    /// a table with one entry per slot describes every arc `v → w`.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every node's neighbor list, concatenated in node order: the target
    /// of each arc slot.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }
}

/// An immutable control flow graph.
///
/// Nodes are [`BasicBlock`]s indexed by dense [`BlockId`]s; edges are
/// directed and deduplicated. Construct one with
/// [`CfgBuilder`](crate::CfgBuilder).
///
/// Traversal and centrality results are computed on demand by the
/// functions in the [`traversal`] and [`centrality`](crate::centrality)
/// modules (convenience methods on `Cfg` forward to them). The one thing
/// the graph *does* cache is its undirected CSR adjacency
/// ([`Cfg::csr_adjacency`]), built lazily on first use — sound because the
/// graph is immutable, and invisible to equality, serialization, and the
/// builder round-trip.
///
/// # Example
///
/// ```
/// use soteria_cfg::CfgBuilder;
///
/// # fn main() -> Result<(), soteria_cfg::CfgError> {
/// let mut b = CfgBuilder::new();
/// let a = b.add_block(0, 1);
/// let c = b.add_block(4, 1);
/// b.add_edge(a, c)?;
/// let cfg = b.build(a)?;
/// assert_eq!(cfg.successors(a), &[c]);
/// assert_eq!(cfg.predecessors(c), &[a]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cfg {
    pub(crate) blocks: Vec<BasicBlock>,
    pub(crate) succ: Vec<Vec<BlockId>>,
    pub(crate) pred: Vec<Vec<BlockId>>,
    pub(crate) entry: BlockId,
    pub(crate) edge_count: usize,
    /// Lazily built undirected CSR adjacency. Pure function of the fields
    /// above, so it is excluded from equality and serialization.
    #[serde(skip)]
    pub(crate) csr: OnceLock<CsrAdjacency>,
}

/// Equality ignores the lazily built CSR cache: two graphs with the same
/// structure are equal whether or not either has been walked yet.
impl PartialEq for Cfg {
    fn eq(&self, other: &Self) -> bool {
        self.blocks == other.blocks
            && self.succ == other.succ
            && self.pred == other.pred
            && self.entry == other.entry
            && self.edge_count == other.edge_count
    }
}

impl Cfg {
    /// Number of basic blocks (`|V|`).
    pub fn node_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of directed edges (`|E|`).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The designated entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The basic block payload for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// All block ids in dense order.
    pub fn block_ids(&self) -> impl ExactSizeIterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Direct successors of `id`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    pub fn successors(&self, id: BlockId) -> &[BlockId] {
        &self.succ[id.index()]
    }

    /// Direct predecessors of `id`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    pub fn predecessors(&self, id: BlockId) -> &[BlockId] {
        &self.pred[id.index()]
    }

    /// In-degree of `id`.
    pub fn in_degree(&self, id: BlockId) -> usize {
        self.pred[id.index()].len()
    }

    /// Out-degree of `id`.
    pub fn out_degree(&self, id: BlockId) -> usize {
        self.succ[id.index()].len()
    }

    /// Undirected neighbors of `id`: the sorted, deduplicated union of
    /// predecessors and successors.
    ///
    /// The paper's random walk treats the CFG as undirected; this is the
    /// neighbor set the walk samples from.
    pub fn undirected_neighbors(&self, id: BlockId) -> Vec<BlockId> {
        let mut n: Vec<BlockId> = self.succ[id.index()]
            .iter()
            .chain(self.pred[id.index()].iter())
            .copied()
            .collect();
        n.sort_unstable();
        n.dedup();
        n
    }

    /// Precomputed undirected neighbor lists for every node — use this
    /// instead of calling [`undirected_neighbors`](Cfg::undirected_neighbors)
    /// in a loop (walks, centrality BFS) to avoid per-step allocation.
    pub fn undirected_adjacency(&self) -> Vec<Vec<BlockId>> {
        self.block_ids()
            .map(|v| self.undirected_neighbors(v))
            .collect()
    }

    /// The undirected adjacency in CSR form, built on first call and cached
    /// for the graph's lifetime. Neighbor lists are identical (content and
    /// order) to [`undirected_adjacency`](Cfg::undirected_adjacency); the
    /// flat layout is what the walk fast path in `soteria-features` chases
    /// instead of re-materializing `Vec<Vec<BlockId>>` per labeling.
    pub fn csr_adjacency(&self) -> &CsrAdjacency {
        self.csr.get_or_init(|| {
            soteria_telemetry::counter("cfg.csr.builds", 1);
            CsrAdjacency::build(self)
        })
    }

    /// Iterates over all directed edges `(from, to)` in dense order.
    pub fn edges(&self) -> impl Iterator<Item = (BlockId, BlockId)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |&t| (BlockId::new(i), t)))
    }

    /// Exit blocks: blocks with no successors.
    pub fn exits(&self) -> Vec<BlockId> {
        self.block_ids()
            .filter(|&id| self.succ[id.index()].is_empty())
            .collect()
    }

    /// BFS level of every block: `Some(0)` for the entry, `Some(k)` for a
    /// block whose shortest directed path from the entry has `k` edges, and
    /// `None` for blocks unreachable from the entry.
    ///
    /// The paper defines a node's *level* as `1 + S_v` where `S_v` is the
    /// smallest number of steps from the entry; we return `S_v` itself and
    /// let callers add 1 where the paper's 1-based convention matters.
    pub fn levels(&self) -> Vec<Option<usize>> {
        traversal::bfs_levels(self, self.entry)
    }

    /// The set of blocks reachable from the entry (always includes the
    /// entry itself).
    pub fn reachable(&self) -> Vec<bool> {
        traversal::reachable_from(self, self.entry)
    }

    /// Returns the subgraph induced by the blocks reachable from the entry,
    /// with ids re-densified, plus the mapping `old id -> new id`.
    ///
    /// This is the "feature extraction ignores unreachable blocks" property
    /// the paper relies on to defeat byte-appending AEs: lifting a binary
    /// may surface dead blocks, and this method drops them before labeling.
    pub fn reachable_subgraph(&self) -> (Cfg, Vec<Option<BlockId>>) {
        let reach = self.reachable();
        let mut remap: Vec<Option<BlockId>> = vec![None; self.node_count()];
        let mut blocks = Vec::new();
        for (i, &r) in reach.iter().enumerate() {
            if r {
                remap[i] = Some(BlockId::new(blocks.len()));
                blocks.push(self.blocks[i]);
            }
        }
        let mut succ = vec![Vec::new(); blocks.len()];
        let mut pred = vec![Vec::new(); blocks.len()];
        let mut edge_count = 0;
        for (i, outs) in self.succ.iter().enumerate() {
            let Some(ni) = remap[i] else { continue };
            for &t in outs {
                // A reachable source implies a reachable target.
                let nt = remap[t.index()].expect("edge from reachable block to unreachable block");
                succ[ni.index()].push(nt);
                pred[nt.index()].push(ni);
                edge_count += 1;
            }
        }
        for v in succ.iter_mut().chain(pred.iter_mut()) {
            v.sort_unstable();
        }
        let entry = remap[self.entry.index()].expect("entry is always reachable");
        (
            Cfg {
                blocks,
                succ,
                pred,
                entry,
                edge_count,
                csr: OnceLock::new(),
            },
            remap,
        )
    }

    /// Total instruction count across all blocks.
    pub fn instruction_count(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| u64::from(b.instruction_count()))
            .sum()
    }

    /// Whether the directed edge `from -> to` exists.
    pub fn has_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.succ[from.index()].binary_search(&to).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use crate::CfgBuilder;

    fn diamond() -> crate::Cfg {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let l = b.add_block(1, 1);
        let r = b.add_block(2, 1);
        let x = b.add_block(3, 1);
        b.add_edge(e, l).unwrap();
        b.add_edge(e, r).unwrap();
        b.add_edge(l, x).unwrap();
        b.add_edge(r, x).unwrap();
        b.build(e).unwrap()
    }

    #[test]
    fn counts_and_entry() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.entry().index(), 0);
    }

    #[test]
    fn successors_and_predecessors_are_sorted() {
        let g = diamond();
        let e = crate::BlockId::new(0);
        let x = crate::BlockId::new(3);
        assert_eq!(
            g.successors(e),
            &[crate::BlockId::new(1), crate::BlockId::new(2)]
        );
        assert_eq!(
            g.predecessors(x),
            &[crate::BlockId::new(1), crate::BlockId::new(2)]
        );
        assert_eq!(g.in_degree(e), 0);
        assert_eq!(g.out_degree(e), 2);
    }

    #[test]
    fn undirected_neighbors_union_both_directions() {
        let g = diamond();
        let l = crate::BlockId::new(1);
        assert_eq!(
            g.undirected_neighbors(l),
            vec![crate::BlockId::new(0), crate::BlockId::new(3)]
        );
    }

    #[test]
    fn edges_iterates_every_edge_once() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(crate::BlockId::new(0), crate::BlockId::new(1))));
    }

    #[test]
    fn exits_are_sink_blocks() {
        let g = diamond();
        assert_eq!(g.exits(), vec![crate::BlockId::new(3)]);
    }

    #[test]
    fn levels_of_diamond() {
        let g = diamond();
        let lv = g.levels();
        assert_eq!(lv[0], Some(0));
        assert_eq!(lv[1], Some(1));
        assert_eq!(lv[2], Some(1));
        assert_eq!(lv[3], Some(2));
    }

    #[test]
    fn reachable_subgraph_drops_dead_blocks() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let live = b.add_block(1, 1);
        let dead = b.add_block(2, 1);
        let dead2 = b.add_block(3, 1);
        b.add_edge(e, live).unwrap();
        b.add_edge(dead, dead2).unwrap();
        let g = b.build(e).unwrap();

        let (sub, remap) = g.reachable_subgraph();
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(remap[dead.index()].is_none());
        assert!(remap[dead2.index()].is_none());
        assert_eq!(remap[e.index()], Some(sub.entry()));
    }

    #[test]
    fn reachable_subgraph_of_fully_reachable_graph_is_identity() {
        let g = diamond();
        let (sub, remap) = g.reachable_subgraph();
        assert_eq!(sub, g);
        assert!(remap
            .iter()
            .enumerate()
            .all(|(i, m)| m.map(|b| b.index()) == Some(i)));
    }

    #[test]
    fn has_edge_matches_edge_list() {
        let g = diamond();
        for (f, t) in g.edges() {
            assert!(g.has_edge(f, t));
        }
        assert!(!g.has_edge(crate::BlockId::new(3), crate::BlockId::new(0)));
    }

    #[test]
    fn instruction_count_sums_blocks() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 5);
        let f = b.add_block(1, 7);
        b.add_edge(e, f).unwrap();
        let g = b.build(e).unwrap();
        assert_eq!(g.instruction_count(), 12);
    }

    #[test]
    fn csr_adjacency_matches_vec_adjacency() {
        let g = diamond();
        let csr = g.csr_adjacency();
        let vecs = g.undirected_adjacency();
        assert_eq!(csr.node_count(), g.node_count());
        for (v, neighbors) in vecs.iter().enumerate() {
            let want: Vec<u32> = neighbors.iter().map(|b| b.index() as u32).collect();
            assert_eq!(csr.neighbors(v), want.as_slice(), "node {v}");
            assert_eq!(csr.degree(v), neighbors.len());
        }
    }

    #[test]
    fn csr_cache_is_invisible_to_equality_and_serde() {
        let g = diamond();
        let cold = diamond();
        let _ = g.csr_adjacency();
        assert_eq!(g, cold, "populated cache must not affect equality");
        let json = serde_json::to_string(&g).unwrap();
        let back: crate::Cfg = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        // The deserialized graph rebuilds its own cache on demand.
        assert_eq!(back.csr_adjacency(), g.csr_adjacency());
    }

    #[test]
    fn csr_covers_self_loops_and_isolated_entries() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        b.add_edge(e, e).unwrap();
        let g = b.build(e).unwrap();
        assert_eq!(g.csr_adjacency().neighbors(0), &[0]);

        let mut b = CfgBuilder::new();
        let lone = b.add_block(0, 1);
        let g = b.build(lone).unwrap();
        assert_eq!(g.csr_adjacency().neighbors(0), &[] as &[u32]);
        assert_eq!(g.csr_adjacency().degree(0), 0);
    }

    #[test]
    fn self_loop_counts_as_one_edge() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        b.add_edge(e, e).unwrap();
        let g = b.build(e).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(e), &[e]);
        assert_eq!(g.predecessors(e), &[e]);
        assert_eq!(g.undirected_neighbors(e), vec![e]);
    }
}
