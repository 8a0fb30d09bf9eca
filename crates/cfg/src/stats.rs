//! Whole-graph statistics: the graph-theoretic feature set of the
//! Alasmary et al. baseline (reference \[3\] in the paper).
//!
//! That baseline summarizes a CFG by 23 features: node count, edge count,
//! graph density, and five-number summaries (min, max, mean, median,
//! standard deviation) of four per-node distributions — shortest-path
//! lengths, closeness centrality, betweenness centrality, and degree
//! centrality.

use crate::centrality::CentralityFactors;
use crate::density;
use crate::graph::Cfg;
use crate::traversal;
use serde::{Deserialize, Serialize};

/// Five-number summary of a distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Smallest value (0 if the distribution is empty).
    pub min: f64,
    /// Largest value (0 if empty).
    pub max: f64,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Median (0 if empty).
    pub median: f64,
    /// Population standard deviation (0 if empty).
    pub std_dev: f64,
}

impl Summary {
    /// Summarizes `values`; all fields are 0 for an empty slice.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary::default();
        }
        let n = values.len() as f64;
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN summary input"));
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        Summary {
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            mean,
            median,
            std_dev: var.sqrt(),
        }
    }

    /// The summary as `[min, max, mean, median, std_dev]`.
    pub fn to_array(self) -> [f64; 5] {
        [self.min, self.max, self.mean, self.median, self.std_dev]
    }
}

/// The 23-feature graph-theoretic description of a CFG used by the
/// Alasmary et al. baseline classifier.
///
/// # Example
///
/// ```
/// use soteria_cfg::{CfgBuilder, GraphStats};
///
/// # fn main() -> Result<(), soteria_cfg::CfgError> {
/// let mut b = CfgBuilder::new();
/// let e = b.add_block(0, 1);
/// let f = b.add_block(1, 1);
/// b.add_edge(e, f)?;
/// let g = b.build(e)?;
/// let stats = GraphStats::compute(&g);
/// assert_eq!(stats.node_count, 2);
/// assert_eq!(stats.to_vector().len(), 23);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// `|V|`.
    pub node_count: usize,
    /// `|E|`.
    pub edge_count: usize,
    /// Whole-graph edge density.
    pub density: f64,
    /// Summary of all finite pairwise undirected shortest-path lengths.
    pub shortest_paths: Summary,
    /// Summary of per-node closeness centrality.
    pub closeness: Summary,
    /// Summary of per-node betweenness centrality.
    pub betweenness: Summary,
    /// Summary of per-node degree centrality (`deg(v) / (|V|-1)`,
    /// undirected degree).
    pub degree_centrality: Summary,
}

impl GraphStats {
    /// Computes all 23 features for `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let _span = soteria_telemetry::span("cfg.graph_stats");
        let n = cfg.node_count();

        let mut path_lengths = Vec::new();
        for v in cfg.block_ids() {
            for d in traversal::undirected_distances(cfg, v)
                .into_iter()
                .flatten()
            {
                if d > 0 {
                    path_lengths.push(d as f64);
                }
            }
        }

        let centrality = CentralityFactors::compute(cfg);
        let degree: Vec<f64> = cfg
            .block_ids()
            .map(|v| {
                if n <= 1 {
                    0.0
                } else {
                    cfg.undirected_neighbors(v).len() as f64 / (n as f64 - 1.0)
                }
            })
            .collect();

        GraphStats {
            node_count: n,
            edge_count: cfg.edge_count(),
            density: density::graph_density(cfg),
            shortest_paths: Summary::of(&path_lengths),
            closeness: Summary::of(centrality.closeness_values()),
            betweenness: Summary::of(centrality.betweenness_values()),
            degree_centrality: Summary::of(&degree),
        }
    }

    /// The 23 features as a flat vector, in a fixed documented order:
    /// `[|V|, |E|, density, sp×5, closeness×5, betweenness×5, degree×5]`.
    pub fn to_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(23);
        v.push(self.node_count as f64);
        v.push(self.edge_count as f64);
        v.push(self.density);
        v.extend_from_slice(&self.shortest_paths.to_array());
        v.extend_from_slice(&self.closeness.to_array());
        v.extend_from_slice(&self.betweenness.to_array());
        v.extend_from_slice(&self.degree_centrality.to_array());
        v
    }

    /// Number of features in [`to_vector`](GraphStats::to_vector).
    pub const FEATURE_COUNT: usize = 23;

    /// Human-readable names for each position of
    /// [`to_vector`](GraphStats::to_vector).
    pub fn feature_names() -> [&'static str; 23] {
        [
            "nodes",
            "edges",
            "density",
            "sp_min",
            "sp_max",
            "sp_mean",
            "sp_median",
            "sp_std",
            "close_min",
            "close_max",
            "close_mean",
            "close_median",
            "close_std",
            "between_min",
            "between_max",
            "between_mean",
            "between_median",
            "between_std",
            "degree_min",
            "degree_max",
            "degree_mean",
            "degree_median",
            "degree_std",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgBuilder;

    #[test]
    fn summary_of_empty_is_zero() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn summary_of_constant_has_zero_std() {
        let s = Summary::of(&[2.0, 2.0, 2.0]);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_median_even_and_odd() {
        assert_eq!(Summary::of(&[1.0, 3.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0, 4.0]).median, 2.5);
    }

    #[test]
    fn summary_std_matches_hand_computation() {
        // Population std of [1, 3] = 1.
        let s = Summary::of(&[1.0, 3.0]);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_path_graph() {
        let mut b = CfgBuilder::new();
        let a = b.add_block(0, 1);
        let m = b.add_block(1, 1);
        let c = b.add_block(2, 1);
        b.add_edge(a, m).unwrap();
        b.add_edge(m, c).unwrap();
        let g = b.build(a).unwrap();
        let st = GraphStats::compute(&g);
        assert_eq!(st.node_count, 3);
        assert_eq!(st.edge_count, 2);
        // Ordered pairwise distances: 1,2,1,1,2,1 -> min 1 max 2 mean 4/3.
        assert_eq!(st.shortest_paths.min, 1.0);
        assert_eq!(st.shortest_paths.max, 2.0);
        assert!((st.shortest_paths.mean - 4.0 / 3.0).abs() < 1e-12);
        // Degree centrality: endpoints 1/2, midpoint 1.
        assert_eq!(st.degree_centrality.max, 1.0);
        assert_eq!(st.degree_centrality.min, 0.5);
    }

    #[test]
    fn vector_has_23_named_features() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let g = b.build(e).unwrap();
        let st = GraphStats::compute(&g);
        let v = st.to_vector();
        assert_eq!(v.len(), GraphStats::FEATURE_COUNT);
        assert_eq!(GraphStats::feature_names().len(), GraphStats::FEATURE_COUNT);
        assert_eq!(v[0], 1.0); // node count
        assert_eq!(v[1], 0.0); // edge count
    }

    #[test]
    fn stats_are_invariant_under_block_payloads() {
        // Structure, not contents, drives the features.
        let build = |ic: u32| {
            let mut b = CfgBuilder::new();
            let e = b.add_block(0, ic);
            let f = b.add_block(100, ic * 2);
            b.add_edge(e, f).unwrap();
            b.build(e).unwrap()
        };
        assert_eq!(
            GraphStats::compute(&build(1)),
            GraphStats::compute(&build(50))
        );
    }
}
