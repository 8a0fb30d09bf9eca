//! The two-pass centrality reference and the oracle tests that hold
//! [`CentralityFactors::compute`] to it bit for bit.
//!
//! [`betweenness_ratio`] (Brandes) and [`closeness`] (one more BFS per
//! node) are the plain two-pass implementations and the spec: the kernel
//! must perform the same floating-point operations in the same order, so
//! every factor is bit-identical even when path counts exceed 2^53 and
//! every addition rounds. Workload-sized graphs never get there, which is
//! why the oracle below runs on layered graphs whose path totals reach
//! ~2^68.

use super::CentralityFactors;
use crate::block::BlockId;
use crate::graph::Cfg;
use crate::CfgBuilder;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

#[path = "../../tests/support/arb_cfg.rs"]
mod arb_cfg;

/// The paper's betweenness: for each node `v`, the number of shortest paths
/// between ordered pairs `(s, t)` with `s ≠ v ≠ t` that pass through `v`,
/// divided by the total number of shortest paths between all ordered pairs
/// `(s, t)`, `s ≠ t` — all over the undirected view of the graph.
///
/// Returns all zeros for graphs with fewer than 3 nodes (no interior nodes
/// possible) or no paths.
pub(crate) fn betweenness_ratio(cfg: &Cfg) -> Vec<f64> {
    let n = cfg.node_count();
    let adj = cfg.undirected_adjacency();
    let mut through = vec![0.0f64; n];
    let mut total_paths = 0.0f64;

    // Scratch buffers reused across sources.
    let mut dist: Vec<i64> = vec![-1; n];
    let mut sigma: Vec<f64> = vec![0.0; n];
    let mut order: Vec<BlockId> = Vec::with_capacity(n);

    for s in cfg.block_ids() {
        dist.fill(-1);
        sigma.fill(0.0);
        order.clear();

        dist[s.index()] = 0;
        sigma[s.index()] = 1.0;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let dv = dist[v.index()];
            for &w in &adj[v.index()] {
                if dist[w.index()] < 0 {
                    dist[w.index()] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w.index()] == dv + 1 {
                    sigma[w.index()] += sigma[v.index()];
                }
            }
        }

        // P(v) = total number of shortest-path-DAG paths from v to any node
        // strictly below it; reverse BFS order is a reverse topological
        // order of the DAG.
        let mut p = vec![0.0f64; n];
        for &v in order.iter().rev() {
            let dv = dist[v.index()];
            for &w in &adj[v.index()] {
                if dist[w.index()] == dv + 1 {
                    p[v.index()] += 1.0 + p[w.index()];
                }
            }
        }

        for &v in &order {
            if v != s {
                // sigma[v] shortest paths reach v from s; each extends into
                // p[v] suffix paths, every one a shortest s->t path with v
                // interior (t is strictly below v, so t != v and t != s).
                through[v.index()] += sigma[v.index()] * p[v.index()];
                total_paths += sigma[v.index()];
            }
        }
    }

    if total_paths > 0.0 {
        for t in &mut through {
            *t /= total_paths;
        }
    }
    through
}

/// Normalized closeness centrality over the undirected view, with the
/// Wasserman–Faust correction for disconnected graphs:
/// `C(v) = (r_v / (n-1)) · (r_v / Σ_u d(v, u))` where `r_v` is the number of
/// nodes reachable from `v` (excluding `v`). Isolated nodes get 0.
pub(crate) fn closeness(cfg: &Cfg) -> Vec<f64> {
    let n = cfg.node_count();
    let mut out = vec![0.0f64; n];
    if n <= 1 {
        return out;
    }
    let adj = cfg.undirected_adjacency();
    for v in cfg.block_ids() {
        let dist = bfs_adjacency(&adj, v);
        let mut sum = 0usize;
        let mut reach = 0usize;
        for (u, d) in dist.iter().enumerate() {
            if u != v.index() {
                if let Some(d) = d {
                    sum += d;
                    reach += 1;
                }
            }
        }
        if sum > 0 {
            let r = reach as f64;
            out[v.index()] = (r / (n as f64 - 1.0)) * (r / sum as f64);
        }
    }
    out
}

/// BFS distances over a precomputed adjacency table (see
/// [`Cfg::undirected_adjacency`]).
fn bfs_adjacency(adj: &[Vec<BlockId>], start: BlockId) -> Vec<Option<usize>> {
    let mut dist = vec![None; adj.len()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let next = dist[v.index()].expect("queued node has a distance") + 1;
        for &w in &adj[v.index()] {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(next);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Asserts the kernel reproduces both reference vectors bit for bit.
fn assert_matches_reference(g: &Cfg) {
    let cf = CentralityFactors::compute(g);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(cf.betweenness_values()),
        bits(&betweenness_ratio(g)),
        "betweenness"
    );
    assert_eq!(
        bits(cf.closeness_values()),
        bits(&closeness(g)),
        "closeness"
    );
}

/// A seeded layered graph: `layers` layers of 3–5 blocks, every block
/// wired to 2 distinct random blocks of the next layer. Shortest-path
/// counts multiply from layer to layer; at 64 layers the path total is
/// ~2^68, far past 2^53, so `σ`, `p` and the total round and a reordered
/// sum changes bits. The random wiring makes the summands unequal, so
/// swapping the two terms of a symmetric sum cannot hide a reordering.
fn layered(seed: u64, layers: usize) -> Cfg {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = CfgBuilder::new();
    let mut prev: Vec<BlockId> = Vec::new();
    for _ in 0..layers {
        let width = rng.gen_range(3..6usize);
        let cur: Vec<BlockId> = (0..width)
            .map(|_| b.add_block(b.block_count() as u64 * 16, 1))
            .collect();
        for &u in &prev {
            let first = rng.gen_range(0..width);
            let mut second = rng.gen_range(0..width - 1);
            if second >= first {
                second += 1;
            }
            b.add_edge(u, cur[first]).expect("fresh edge");
            b.add_edge(u, cur[second]).expect("fresh edge");
        }
        prev = cur;
    }
    b.build(BlockId::new(0)).expect("non-empty graph builds")
}

#[test]
fn kernel_matches_reference_bit_for_bit_on_rounding_layered_graphs() {
    for seed in 0..8 {
        assert_matches_reference(&layered(seed, 64));
    }
}

#[test]
fn kernel_matches_reference_on_small_shapes() {
    for g in [layered(99, 1), layered(99, 2), layered(7, 5)] {
        assert_matches_reference(&g);
    }
}

proptest! {
    #[test]
    fn kernel_matches_reference_on_arb_cfg(g in arb_cfg::arb_cfg(40)) {
        assert_matches_reference(&g);
    }
}
