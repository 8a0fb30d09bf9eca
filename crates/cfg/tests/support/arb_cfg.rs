//! The random-CFG strategies shared by `tests/proptests.rs` and the
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

/// Strategy: a block-rich graph of 1..=max_gadgets gadgets; see
/// [`block_rich`].
pub fn arb_block_rich(max_gadgets: usize) -> impl Strategy<Value = Cfg> {
    (1..=max_gadgets, any::<u64>()).prop_map(|(gadgets, seed)| block_rich(gadgets, seed))
}

/// A seeded graph full of cut vertices: each gadget hangs on a random
/// node — a cycle of 3–8 nodes, a run of if/else diamonds, a pendant
/// tree, a bridge to a new node, a self-loop, or (rarely) a chord that
/// merges the blocks between two nodes. About one gadget in six goes to
/// a second component, which may stay a single isolated node. Edge
/// directions are random; the undirected view is what centrality sees.
pub fn block_rich(gadgets: usize, seed: u64) -> Cfg {
    use rand::{Rng, SeedableRng};

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut b = CfgBuilder::new();
    let add = |b: &mut CfgBuilder| b.add_block(b.block_count() as u64 * 16, 1);
    let wire = |b: &mut CfgBuilder, rng: &mut rand_chacha::ChaCha8Rng, x, y| {
        let (f, t) = if rng.gen_bool(0.5) { (x, y) } else { (y, x) };
        let _ = b.add_edge_idempotent(f, t);
    };
    let entry = add(&mut b);
    let mut parts = [vec![entry], Vec::new()];
    for _ in 0..gadgets {
        let part = &mut parts[usize::from(rng.gen_range(0..6) == 0)];
        if part.is_empty() {
            part.push(add(&mut b));
        }
        let at = part[rng.gen_range(0..part.len())];
        match rng.gen_range(0..12) {
            0..=2 => {
                let mut prev = at;
                for _ in 1..rng.gen_range(3..=8) {
                    let v = add(&mut b);
                    wire(&mut b, &mut rng, prev, v);
                    part.push(v);
                    prev = v;
                }
                wire(&mut b, &mut rng, prev, at);
            }
            3..=5 => {
                let mut top = at;
                for _ in 0..rng.gen_range(1..=3) {
                    let (x, y, join) = (add(&mut b), add(&mut b), add(&mut b));
                    for (f, t) in [(top, x), (top, y), (x, join), (y, join)] {
                        let _ = b.add_edge_idempotent(f, t);
                    }
                    part.extend([x, y, join]);
                    top = join;
                }
            }
            6 | 7 => {
                let mut tree = vec![at];
                for _ in 0..rng.gen_range(1..=6) {
                    let parent = tree[rng.gen_range(0..tree.len())];
                    let v = add(&mut b);
                    wire(&mut b, &mut rng, parent, v);
                    tree.push(v);
                }
                part.extend(&tree[1..]);
            }
            8 | 9 => {
                let v = add(&mut b);
                wire(&mut b, &mut rng, at, v);
                part.push(v);
            }
            10 => {
                let _ = b.add_edge_idempotent(at, at);
            }
            _ => {
                let other = part[rng.gen_range(0..part.len())];
                wire(&mut b, &mut rng, at, other);
            }
        }
    }
    b.build(entry).expect("non-empty graph builds")
}
