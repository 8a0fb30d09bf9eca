//! The random-CFG strategy shared by `tests/proptests.rs` and the
//! centrality oracle inside the crate. The including module must have
//! `BlockId`, `Cfg` and `CfgBuilder` in scope.

use super::{BlockId, Cfg, CfgBuilder};
use proptest::prelude::*;

/// Strategy: a random connected-ish digraph with `n` in 1..=max_nodes.
/// Every non-entry node gets at least one incoming edge from an
/// earlier-indexed node, guaranteeing reachability from the entry; extra
/// random edges are sprinkled on top.
pub fn arb_cfg(max_nodes: usize) -> impl Strategy<Value = Cfg> {
    (1..=max_nodes).prop_flat_map(move |n| {
        let backbone = proptest::collection::vec(0..n.max(1), n.saturating_sub(1));
        let extras = proptest::collection::vec((0..n, 0..n), 0..n * 2);
        (backbone, extras).prop_map(move |(backbone, extras)| {
            let mut b = CfgBuilder::new();
            let ids: Vec<BlockId> = (0..n).map(|i| b.add_block(i as u64 * 16, 1)).collect();
            for (i, &src) in backbone.iter().enumerate() {
                let to = ids[i + 1];
                let from = ids[src.min(i)];
                let _ = b.add_edge_idempotent(from, to);
            }
            for (f, t) in extras {
                let _ = b.add_edge_idempotent(ids[f], ids[t]);
            }
            b.build(ids[0]).expect("non-empty graph builds")
        })
    })
}
