//! Betweenness and closeness centrality, and the paper's *centrality
//! factor* used to break density ties during labeling.
//!
//! The paper (footnote 1) defines for a node `v`:
//!
//! * betweenness `B(v) = Δ(v) / Δ(m)` — the number of shortest paths that
//!   pass *through* `v` (connecting distinct endpoints `j ≠ v ≠ k`) divided
//!   by the total number of shortest paths between all such pairs,
//! * closeness `C(v)` — derived from the average shortest-path distance
//!   between `v` and every other node (we use the standard normalized
//!   closeness `(r_v/(n-1)) · (r_v/Σd)`, the Wasserman–Faust correction for
//!   disconnected graphs, so that *larger is more central* and the factor
//!   `CF(v) = B(v) + C(v)` ranks central nodes first),
//!
//! both over the **undirected** view of the CFG, matching the random-walk
//! section's treatment of the graph as undirected.

use crate::block::BlockId;
use crate::graph::Cfg;
use crate::traversal;
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

/// Per-node centrality values for a graph.
///
/// # Example
///
/// ```
/// use soteria_cfg::{CfgBuilder, CentralityFactors};
///
/// # fn main() -> Result<(), soteria_cfg::CfgError> {
/// // A path a - m - b: every shortest path between the endpoints passes
/// // through m, so m has betweenness 1 and the endpoints have 0.
/// let mut bld = CfgBuilder::new();
/// let a = bld.add_block(0, 1);
/// let m = bld.add_block(1, 1);
/// let b = bld.add_block(2, 1);
/// bld.add_edge(a, m)?;
/// bld.add_edge(m, b)?;
/// let g = bld.build(a)?;
///
/// let cf = CentralityFactors::compute(&g);
/// assert!(cf.betweenness(m) > cf.betweenness(a));
/// assert!(cf.factor(m) > cf.factor(b));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentralityFactors {
    betweenness: Vec<f64>,
    closeness: Vec<f64>,
}

impl CentralityFactors {
    /// Computes betweenness and closeness for every node of `cfg`.
    ///
    /// One breadth-first search per source over the cached
    /// [`Cfg::csr_adjacency`] yields both. The forward sweep counts
    /// shortest paths `σ` (Brandes) and records each node's
    /// shortest-path-DAG children; closeness comes from the same search's
    /// integer distance sum; the dependency sweep then walks the recorded
    /// children in reverse BFS order. `O(V·E)` time, with one set of
    /// `O(V + E)` scratch buffers shared by every source.
    ///
    /// Every floating-point chain runs in the order of the plain two-pass
    /// algorithm (BFS queue order, ascending neighbor order), so the values
    /// are bit-identical to it even where path counts exceed 2^53 and each
    /// addition rounds (DESIGN.md §5). If the path total overflows to
    /// infinity (about 1024 or more if/else diamonds in series),
    /// betweenness is all zeros and the factor falls back to closeness,
    /// which is always finite.
    pub fn compute(cfg: &Cfg) -> Self {
        let _span = soteria_telemetry::span("cfg.centrality");
        let adj = cfg.csr_adjacency();
        let n = adj.node_count();
        let mut betweenness = vec![0.0f64; n];
        let mut closeness = vec![0.0f64; n];
        let mut total_paths = 0.0f64;

        // Scratch shared by every source. `order[..reached]` is the BFS
        // queue and, once drained, the visit order; the DAG children of
        // `order[i]` are `kids[kid_end[i - 1]..kid_end[i]]`, in ascending
        // index order. A source records at most one child per adjacency
        // entry. Only `dist` needs resetting: `sigma` is zeroed when a node
        // is discovered and `p` is written before it is read.
        let entries = (0..n).map(|v| adj.degree(v)).sum();
        let mut dist = vec![UNSEEN; n];
        let mut sigma = vec![0.0f64; n];
        let mut p = vec![0.0f64; n];
        let mut order = vec![0u32; n];
        let mut kid_end = vec![0usize; n];
        let mut kids = vec![0u32; entries];
        let mut reached = 0;

        for s in 0..n {
            for &v in &order[..reached] {
                dist[v as usize] = UNSEEN;
            }
            dist[s] = 0;
            sigma[s] = 1.0;
            order[0] = s as u32;
            reached = 1;
            let mut nkids = 0;
            let mut dist_sum = 0u64;
            let mut head = 0;
            while head < reached {
                let v = order[head] as usize;
                // Every DAG parent of v was dequeued before it, so sigma[v]
                // is final here.
                let sv = sigma[v];
                if head > 0 {
                    total_paths += sv;
                }
                let next = dist[v] + 1;
                for &w in adj.neighbors(v) {
                    let wi = w as usize;
                    if dist[wi] == UNSEEN {
                        dist[wi] = next;
                        sigma[wi] = 0.0;
                        dist_sum += u64::from(next);
                        order[reached] = w;
                        reached += 1;
                    }
                    if dist[wi] == next {
                        sigma[wi] += sv;
                        kids[nkids] = w;
                        nkids += 1;
                    }
                }
                kid_end[head] = nkids;
                head += 1;
            }

            // p[v] = number of DAG paths from v to any node strictly below
            // it. Each of the sigma[v] paths reaching v from s extends into
            // p[v] of them, every one a shortest s->t path with v interior.
            for i in (1..reached).rev() {
                let v = order[i] as usize;
                let mut pv = 0.0f64;
                for &w in &kids[kid_end[i - 1]..kid_end[i]] {
                    pv += 1.0 + p[w as usize];
                }
                p[v] = pv;
                betweenness[v] += sigma[v] * pv;
            }

            // Wasserman–Faust closeness over the nodes s reaches.
            if dist_sum > 0 {
                let r = (reached - 1) as f64;
                closeness[s] = (r / (n as f64 - 1.0)) * (r / dist_sum as f64);
            }
        }

        if !total_paths.is_finite() {
            betweenness.fill(0.0);
        } else if total_paths > 0.0 {
            for b in &mut betweenness {
                *b /= total_paths;
            }
        }
        CentralityFactors {
            betweenness,
            closeness,
        }
    }

    /// Betweenness centrality `B(v) = Δ(v)/Δ(m)`.
    pub fn betweenness(&self, v: BlockId) -> f64 {
        self.betweenness[v.index()]
    }

    /// Normalized closeness centrality `C(v)`.
    pub fn closeness(&self, v: BlockId) -> f64 {
        self.closeness[v.index()]
    }

    /// The centrality factor `CF(v) = B(v) + C(v)` used for tie-breaking.
    pub fn factor(&self, v: BlockId) -> f64 {
        self.betweenness[v.index()] + self.closeness[v.index()]
    }

    /// All betweenness values in dense node order.
    pub fn betweenness_values(&self) -> &[f64] {
        &self.betweenness
    }

    /// All closeness values in dense node order.
    pub fn closeness_values(&self) -> &[f64] {
        &self.closeness
    }
}

/// `dist` marker for a node the current search has not reached.
const UNSEEN: u32 = u32::MAX;

/// The literal quantity named in the paper's footnote: the average
/// shortest-path distance from `v` to the nodes it can reach (undirected).
/// Returns `None` if `v` reaches no other node.
pub fn average_distance(cfg: &Cfg, v: BlockId) -> Option<f64> {
    let dist = traversal::undirected_distances(cfg, v);
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
    if reach == 0 {
        None
    } else {
        Some(sum as f64 / reach as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgBuilder;

    fn path3() -> (Cfg, [BlockId; 3]) {
        let mut b = CfgBuilder::new();
        let a = b.add_block(0, 1);
        let m = b.add_block(1, 1);
        let c = b.add_block(2, 1);
        b.add_edge(a, m).unwrap();
        b.add_edge(m, c).unwrap();
        (b.build(a).unwrap(), [a, m, c])
    }

    #[test]
    fn path_midpoint_betweenness() {
        let (g, [a, m, c]) = path3();
        let b = CentralityFactors::compute(&g).betweenness;
        // Ordered pairs and their shortest paths: (a,m) 1, (a,c) 1, (m,a) 1,
        // (m,c) 1, (c,a) 1, (c,m) 1 -> total 6. Through m: the 2 a<->c
        // paths. B(m) = 2/6.
        assert!((b[m.index()] - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(b[a.index()], 0.0);
        assert_eq!(b[c.index()], 0.0);
    }

    #[test]
    fn betweenness_sums_to_interior_fraction_on_star() {
        // Star: hub h connected to 4 leaves. All leaf-leaf shortest paths
        // (4*3 = 12 ordered) pass through h; total ordered paths = 12 + 8
        // (hub<->leaf) = 20.
        let mut bld = CfgBuilder::new();
        let h = bld.add_block(0, 1);
        let leaves: Vec<_> = (1..=4).map(|i| bld.add_block(i, 1)).collect();
        for &l in &leaves {
            bld.add_edge(h, l).unwrap();
        }
        let g = bld.build(h).unwrap();
        let b = CentralityFactors::compute(&g).betweenness;
        assert!((b[h.index()] - 12.0 / 20.0).abs() < 1e-12);
        for &l in &leaves {
            assert_eq!(b[l.index()], 0.0);
        }
    }

    #[test]
    fn betweenness_counts_parallel_shortest_paths() {
        // Diamond a -> {x, y} -> b: two shortest a<->b paths, one through
        // each middle node.
        let mut bld = CfgBuilder::new();
        let a = bld.add_block(0, 1);
        let x = bld.add_block(1, 1);
        let y = bld.add_block(2, 1);
        let b2 = bld.add_block(3, 1);
        bld.add_edge(a, x).unwrap();
        bld.add_edge(a, y).unwrap();
        bld.add_edge(x, b2).unwrap();
        bld.add_edge(y, b2).unwrap();
        let g = bld.build(a).unwrap();
        let b = CentralityFactors::compute(&g).betweenness;
        // By symmetry x and y have equal betweenness.
        assert!((b[x.index()] - b[y.index()]).abs() < 1e-12);
        assert!(b[x.index()] > 0.0);
        // a and b are never interior: x<->y shortest paths have length 2 and
        // go through either a or b... so a and b DO carry x<->y paths.
        assert!(b[a.index()] > 0.0);
        assert!((b[a.index()] - b[b2.index()]).abs() < 1e-12);
    }

    #[test]
    fn closeness_is_higher_for_central_nodes() {
        let (g, [a, m, c]) = path3();
        let cl = CentralityFactors::compute(&g).closeness;
        assert!(cl[m.index()] > cl[a.index()]);
        assert!((cl[a.index()] - cl[c.index()]).abs() < 1e-12);
        // m is at distance 1 from both others: C = (2/2)*(2/2) = 1.
        assert!((cl[m.index()] - 1.0).abs() < 1e-12);
        // a: distances 1 and 2, C = (2/2)*(2/3).
        assert!((cl[a.index()] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_of_isolated_node_is_zero() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let _iso = b.add_block(1, 1);
        let g = b.build(e).unwrap();
        let cl = CentralityFactors::compute(&g).closeness;
        assert_eq!(cl, vec![0.0, 0.0]);
    }

    #[test]
    fn closeness_disconnected_component_is_downweighted() {
        // Two 2-cliques: each node reaches 1 of 3 others at distance 1.
        // C = (1/3) * (1/1) = 1/3.
        let mut b = CfgBuilder::new();
        let a = b.add_block(0, 1);
        let a2 = b.add_block(1, 1);
        let c = b.add_block(2, 1);
        let c2 = b.add_block(3, 1);
        b.add_edge(a, a2).unwrap();
        b.add_edge(c, c2).unwrap();
        let g = b.build(a).unwrap();
        let cl = CentralityFactors::compute(&g).closeness;
        for v in cl {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn average_distance_matches_hand_computation() {
        let (g, [a, m, _c]) = path3();
        assert_eq!(average_distance(&g, a), Some(1.5));
        assert_eq!(average_distance(&g, m), Some(1.0));
    }

    #[test]
    fn average_distance_none_for_isolated() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let iso = b.add_block(1, 1);
        let g = b.build(e).unwrap();
        assert_eq!(average_distance(&g, iso), None);
    }

    #[test]
    fn factor_is_sum_of_parts() {
        let (g, [_, m, _]) = path3();
        let cf = CentralityFactors::compute(&g);
        assert!((cf.factor(m) - (cf.betweenness(m) + cf.closeness(m))).abs() < 1e-12);
    }

    #[test]
    fn single_node_centralities_are_zero() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let g = b.build(e).unwrap();
        let cf = CentralityFactors::compute(&g);
        assert_eq!(cf.betweenness(e), 0.0);
        assert_eq!(cf.closeness(e), 0.0);
    }

    /// `k` if/else diamonds in series: `3k + 1` blocks and `2^k` shortest
    /// paths from the first block to the last.
    fn diamond_chain(k: usize) -> Cfg {
        let mut b = CfgBuilder::new();
        let entry = b.add_block(0, 1);
        let mut top = entry;
        for i in 0..k as u64 {
            let then = b.add_block(3 * i + 1, 1);
            let other = b.add_block(3 * i + 2, 1);
            let join = b.add_block(3 * i + 3, 1);
            for (f, t) in [(top, then), (top, other), (then, join), (other, join)] {
                b.add_edge(f, t).unwrap();
            }
            top = join;
        }
        b.build(entry).unwrap()
    }

    #[test]
    fn overflowing_path_total_falls_back_to_closeness() {
        // 2^1100 paths end to end: sigma overflows to +inf, and inf * 0 and
        // inf / inf would make every betweenness value NaN.
        let g = diamond_chain(1100);
        let cf = CentralityFactors::compute(&g);
        assert!(cf.betweenness_values().iter().all(|&b| b == 0.0));
        assert_eq!(cf.closeness_values(), reference::closeness(&g).as_slice());
        for v in g.block_ids() {
            assert!(cf.factor(v) > 0.0 && cf.factor(v) == cf.closeness(v));
        }
    }
}
