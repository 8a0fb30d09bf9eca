//! Property-based tests for the CFG substrate.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use soteria_cfg::{
    density, dominators, traversal, BlockId, CentralityFactors, Cfg, CfgBuilder, CfgError,
    GraphStats,
};
use std::collections::HashSet;

#[path = "support/arb_cfg.rs"]
mod arb_cfg;

use arb_cfg::{arb_block_rich, arb_cfg};

/// Every betweenness value is a share of the path total, `Δ(v) ≤ T`, so it
/// lies in [0, 1]; a node with at most one undirected neighbour is inside
/// no shortest path and scores exactly 0.
fn check_betweenness_range(g: &Cfg) -> Result<(), TestCaseError> {
    let adj = g.csr_adjacency();
    for (v, &b) in CentralityFactors::compute(g)
        .betweenness_values()
        .iter()
        .enumerate()
    {
        prop_assert!((0.0..=1.0).contains(&b), "node {v}: {b}");
        if adj.degree(v) <= 1 {
            prop_assert_eq!(b, 0.0, "node {v} has degree {}", adj.degree(v));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn all_nodes_reachable_with_backbone(g in arb_cfg(24)) {
        let r = g.reachable();
        prop_assert!(r.iter().all(|&x| x));
    }

    #[test]
    fn levels_respect_edge_relaxation(g in arb_cfg(24)) {
        // For every edge u -> v with u reachable: level(v) <= level(u) + 1.
        let lv = g.levels();
        for (u, v) in g.edges() {
            if let Some(lu) = lv[u.index()] {
                let lvv = lv[v.index()].expect("successor of reachable node is reachable");
                prop_assert!(lvv <= lu + 1);
            }
        }
    }

    #[test]
    fn node_densities_sum_to_two(g in arb_cfg(24)) {
        // Every edge contributes one in- and one out-degree.
        prop_assume!(g.edge_count() > 0);
        let sum: f64 = density::node_densities(&g).iter().sum();
        prop_assert!((sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn betweenness_values_lie_in_the_unit_interval(g in arb_cfg(20)) {
        check_betweenness_range(&g)?;
    }

    #[test]
    fn block_rich_betweenness_values_lie_in_the_unit_interval(g in arb_block_rich(40)) {
        check_betweenness_range(&g)?;
    }

    #[test]
    fn closeness_in_unit_interval(g in arb_cfg(20)) {
        for &c in CentralityFactors::compute(&g).closeness_values() {
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn reachable_subgraph_is_idempotent(g in arb_cfg(20)) {
        let (s1, _) = g.reachable_subgraph();
        let (s2, _) = s1.reachable_subgraph();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn undirected_distances_are_symmetric(g in arb_cfg(14)) {
        for u in g.block_ids() {
            let du = traversal::undirected_distances(&g, u);
            for v in g.block_ids() {
                let dv = traversal::undirected_distances(&g, v);
                prop_assert_eq!(du[v.index()], dv[u.index()]);
            }
        }
    }

    #[test]
    fn stats_vector_is_always_finite(g in arb_cfg(20)) {
        for x in GraphStats::compute(&g).to_vector() {
            prop_assert!(x.is_finite());
        }
    }

    #[test]
    fn builder_round_trip_preserves_graph(g in arb_cfg(20)) {
        let reopened = CfgBuilder::from(&g).build(g.entry()).expect("rebuild");
        prop_assert_eq!(g, reopened);
    }

    #[test]
    fn builder_ignores_edge_insertion_order(g in arb_cfg(24), seed in any::<u64>()) {
        // Sorted insertion, then the same edges shuffled with repeats: the
        // sorted successor lists must come out identical, and exactly the
        // repeats must be reported as duplicates.
        let blocks = |g: &Cfg| {
            let mut b = CfgBuilder::new();
            for id in g.block_ids() {
                b.push_block(*g.block(id));
            }
            b
        };
        let mut sorted = blocks(&g);
        for (f, t) in g.edges() {
            sorted.add_edge(f, t).expect("edges of a built graph are distinct");
        }
        let sorted = sorted.build(g.entry()).expect("rebuild");

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges: Vec<(BlockId, BlockId)> = g.edges().collect();
        let repeats: Vec<_> = edges.iter().filter(|_| rng.gen_bool(0.3)).copied().collect();
        edges.extend(repeats);
        edges.shuffle(&mut rng);
        let (mut idempotent, mut strict) = (blocks(&g), blocks(&g));
        let mut seen = HashSet::new();
        for (f, t) in edges {
            let first = seen.insert((f, t));
            prop_assert_eq!(idempotent.add_edge_idempotent(f, t), Ok(first));
            let expected = if first { Ok(()) } else { Err(CfgError::DuplicateEdge(f, t)) };
            prop_assert_eq!(strict.add_edge(f, t), expected);
        }
        prop_assert_eq!(&idempotent.build(g.entry()).expect("rebuild"), &sorted);
        prop_assert_eq!(&strict.build(g.entry()).expect("rebuild"), &sorted);
        prop_assert_eq!(&g, &sorted);
    }

    #[test]
    fn entry_dominates_every_reachable_node(g in arb_cfg(20)) {
        let dom = dominators::Dominators::compute(&g);
        for v in g.block_ids() {
            prop_assert!(dom.dominates(g.entry(), v), "entry must dominate {v}");
            // The idom chain always terminates at the entry.
            let mut cur = v;
            let mut hops = 0;
            while cur != g.entry() {
                cur = dom.idom(cur).expect("reachable node has idom");
                hops += 1;
                prop_assert!(hops <= g.node_count(), "idom chain cycle at {v}");
            }
        }
    }

    #[test]
    fn idom_strictly_dominates_its_node(g in arb_cfg(16)) {
        let dom = dominators::Dominators::compute(&g);
        for v in g.block_ids() {
            if v == g.entry() { continue; }
            let i = dom.idom(v).expect("reachable");
            prop_assert!(dom.dominates(i, v));
            prop_assert!(i != v);
        }
    }

    #[test]
    fn dfs_visits_exactly_reachable_nodes(g in arb_cfg(20)) {
        let order = traversal::dfs_preorder(&g, g.entry());
        let reach = g.reachable();
        prop_assert_eq!(order.len(), reach.iter().filter(|&&x| x).count());
        let mut seen = vec![false; g.node_count()];
        for v in &order {
            prop_assert!(!seen[v.index()], "dfs visited a node twice");
            seen[v.index()] = true;
        }
    }
}
