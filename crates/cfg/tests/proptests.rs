//! Property-based tests for the CFG substrate.

use proptest::prelude::*;
use soteria_cfg::{
    density, dominators, traversal, BlockId, CentralityFactors, Cfg, CfgBuilder, GraphStats,
};

#[path = "support/arb_cfg.rs"]
mod arb_cfg;

use arb_cfg::arb_cfg;

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
    fn betweenness_values_are_a_probability_partition(g in arb_cfg(20)) {
        // Each value in [0, 1]; the sum over nodes cannot exceed the longest
        // possible interior count... but at minimum, sum <= n (each path has
        // < n interior nodes). Check range and finiteness.
        for &v in CentralityFactors::compute(&g).betweenness_values() {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
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
