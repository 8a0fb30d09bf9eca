//! Graph traversals: BFS levels, reachability, DFS orders, and undirected
//! shortest paths.

use crate::block::BlockId;
use crate::graph::Cfg;
use std::collections::VecDeque;

/// BFS levels over *directed* edges from `start`.
///
/// Returns, for each block, `Some(k)` where `k` is the minimum number of
/// edges on a directed path from `start`, or `None` if unreachable.
///
/// # Example
///
/// ```
/// use soteria_cfg::{CfgBuilder, traversal};
///
/// # fn main() -> Result<(), soteria_cfg::CfgError> {
/// let mut b = CfgBuilder::new();
/// let a = b.add_block(0, 1);
/// let c = b.add_block(1, 1);
/// b.add_edge(a, c)?;
/// let g = b.build(a)?;
/// assert_eq!(traversal::bfs_levels(&g, a), vec![Some(0), Some(1)]);
/// # Ok(())
/// # }
/// ```
pub fn bfs_levels(cfg: &Cfg, start: BlockId) -> Vec<Option<usize>> {
    let mut levels = vec![None; cfg.node_count()];
    let mut queue = VecDeque::new();
    levels[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let next = levels[v.index()].expect("queued node has a level") + 1;
        for &w in cfg.successors(v) {
            if levels[w.index()].is_none() {
                levels[w.index()] = Some(next);
                queue.push_back(w);
            }
        }
    }
    levels
}

/// Blocks reachable from `start` over directed edges (including `start`).
pub fn reachable_from(cfg: &Cfg, start: BlockId) -> Vec<bool> {
    let mut seen = vec![false; cfg.node_count()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(v) = stack.pop() {
        for &w in cfg.successors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    seen
}

/// Depth-first preorder over directed edges from `start`, visiting
/// successors in ascending id order. Unreachable blocks are absent.
pub fn dfs_preorder(cfg: &Cfg, start: BlockId) -> Vec<BlockId> {
    let mut seen = vec![false; cfg.node_count()];
    let mut order = Vec::new();
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        order.push(v);
        // Push in reverse so the smallest successor is visited first.
        for &w in cfg.successors(v).iter().rev() {
            if !seen[w.index()] {
                stack.push(w);
            }
        }
    }
    order
}

/// Single-source shortest path lengths over the *undirected* view of the
/// graph. Returns `None` for nodes in other components.
///
/// Searches the graph's cached [`Cfg::csr_adjacency`], so one call per node
/// (the whole-graph statistics of the Alasmary baseline) builds the
/// adjacency once.
pub fn undirected_distances(cfg: &Cfg, start: BlockId) -> Vec<Option<usize>> {
    let adj = cfg.csr_adjacency();
    let mut dist = vec![None; adj.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start.index());
    while let Some(v) = queue.pop_front() {
        let next = dist[v].expect("queued node has a distance") + 1;
        for &w in adj.neighbors(v) {
            let w = w as usize;
            if dist[w].is_none() {
                dist[w] = Some(next);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Number of weakly connected components (components of the undirected
/// view).
pub fn weak_component_count(cfg: &Cfg) -> usize {
    let mut seen = vec![false; cfg.node_count()];
    let mut components = 0;
    for s in cfg.block_ids() {
        if seen[s.index()] {
            continue;
        }
        components += 1;
        let mut stack = vec![s];
        seen[s.index()] = true;
        while let Some(v) = stack.pop() {
            for w in cfg.undirected_neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgBuilder;

    /// entry -> a -> b, entry -> b, plus an isolated island c -> d.
    fn graph_with_island() -> (Cfg, [BlockId; 5]) {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let a = b.add_block(1, 1);
        let bb = b.add_block(2, 1);
        let c = b.add_block(3, 1);
        let d = b.add_block(4, 1);
        b.add_edge(e, a).unwrap();
        b.add_edge(a, bb).unwrap();
        b.add_edge(e, bb).unwrap();
        b.add_edge(c, d).unwrap();
        (b.build(e).unwrap(), [e, a, bb, c, d])
    }

    #[test]
    fn bfs_levels_take_shortest_path() {
        let (g, [e, a, bb, c, d]) = graph_with_island();
        let lv = bfs_levels(&g, e);
        assert_eq!(lv[e.index()], Some(0));
        assert_eq!(lv[a.index()], Some(1));
        // b is reachable both via a (2 steps) and directly (1 step).
        assert_eq!(lv[bb.index()], Some(1));
        assert_eq!(lv[c.index()], None);
        assert_eq!(lv[d.index()], None);
    }

    #[test]
    fn reachability_excludes_island() {
        let (g, [e, a, bb, c, d]) = graph_with_island();
        let r = reachable_from(&g, e);
        assert!(r[e.index()] && r[a.index()] && r[bb.index()]);
        assert!(!r[c.index()] && !r[d.index()]);
    }

    #[test]
    fn dfs_preorder_visits_smallest_successor_first() {
        let (g, [e, a, bb, ..]) = graph_with_island();
        assert_eq!(dfs_preorder(&g, e), vec![e, a, bb]);
    }

    #[test]
    fn dfs_handles_cycles() {
        let mut b = CfgBuilder::new();
        let x = b.add_block(0, 1);
        let y = b.add_block(1, 1);
        b.add_edge(x, y).unwrap();
        b.add_edge(y, x).unwrap();
        let g = b.build(x).unwrap();
        assert_eq!(dfs_preorder(&g, x), vec![x, y]);
    }

    #[test]
    fn undirected_distances_ignore_edge_direction() {
        let (g, [e, a, bb, c, d]) = graph_with_island();
        // From d, the only undirected neighbor is c.
        let dist = undirected_distances(&g, d);
        assert_eq!(dist[d.index()], Some(0));
        assert_eq!(dist[c.index()], Some(1));
        assert_eq!(dist[e.index()], None);
        // From a, b and e are both one undirected hop away.
        let dist = undirected_distances(&g, a);
        assert_eq!(dist[e.index()], Some(1));
        assert_eq!(dist[bb.index()], Some(1));
    }

    #[test]
    fn weak_components_count_islands() {
        let (g, _) = graph_with_island();
        assert_eq!(weak_component_count(&g), 2);
    }

    #[test]
    fn single_node_graph() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let g = b.build(e).unwrap();
        assert_eq!(bfs_levels(&g, e), vec![Some(0)]);
        assert_eq!(weak_component_count(&g), 1);
        assert_eq!(dfs_preorder(&g, e), vec![e]);
    }
}
