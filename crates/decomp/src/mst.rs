//! Minimum spanning forest over the SP conflict graph (paper Fig. 3b) and
//! its two-coloring.
//!
//! Kruskal's algorithm with the [`DisjointSets`] substrate produces one MST
//! per connected component. Because the MST is a tree, it is bipartite: a
//! BFS two-coloring assigns adjacent (= closest, most conflicting) patterns
//! to different masks. The per-component color flip is the only remaining
//! degree of freedom, which is exactly what Algorithm 1 exposes as one
//! n-wise factor per component.

use crate::dsu::DisjointSets;
use crate::graph::{two_color, ConflictGraph, Edge};
use std::collections::HashMap;

/// A minimum spanning forest over a conflict graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MstForest {
    /// The vertex set (pattern indices), ascending.
    pub vertices: Vec<usize>,
    /// Chosen tree edges, ascending by weight.
    pub edges: Vec<Edge>,
    /// `component[i]` is the component id (0-based, dense) of
    /// `vertices[i]`. Isolated vertices get their own component.
    pub component: Vec<usize>,
    /// Number of connected components.
    pub component_count: usize,
}

impl MstForest {
    /// Total weight of the forest.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }
}

/// Runs Kruskal's algorithm on `graph`, returning the spanning forest.
pub fn minimum_spanning_forest(graph: &ConflictGraph) -> MstForest {
    let n = graph.vertices.len();
    // map pattern index -> dense local index
    let local: HashMap<usize, usize> = graph
        .vertices
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    let mut edges = graph.edges.clone();
    edges.sort_by(|a, b| a.weight.total_cmp(&b.weight));
    let mut dsu = DisjointSets::new(n);
    let mut chosen = Vec::new();
    for e in edges {
        let (la, lb) = (local[&e.a], local[&e.b]);
        if dsu.union(la, lb) {
            chosen.push(e);
        }
    }
    // dense component ids in order of first appearance
    let mut component = vec![0usize; n];
    let mut ids: HashMap<usize, usize> = HashMap::new();
    for (i, comp) in component.iter_mut().enumerate() {
        let root = dsu.find(i);
        let next = ids.len();
        *comp = *ids.entry(root).or_insert(next);
    }
    MstForest {
        vertices: graph.vertices.clone(),
        edges: chosen,
        component,
        component_count: ids.len(),
    }
}

/// Two-colors each tree of the forest with [`two_color`]: adjacent MST
/// vertices receive different colors, and the first vertex of each
/// component is fixed at color 0. The colors are aligned with
/// `forest.vertices`; `forest.component` holds the matching component
/// ids.
pub fn two_color_forest(forest: &MstForest) -> Vec<u8> {
    two_color(&forest.vertices, &forest.edges).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;
    use ldmo_layout::Layout;

    fn layout(corners: &[(i32, i32)]) -> Layout {
        Layout::new(
            Rect::new(0, 0, 1200, 1200),
            corners
                .iter()
                .map(|&(x, y)| Rect::square(x, y, 64))
                .collect(),
        )
    }

    #[test]
    fn chain_mst_picks_n_minus_1_edges() {
        // three contacts in a row, gaps 66 and 70: MST has both edges
        let l = layout(&[(0, 0), (130, 0), (264, 0)]);
        let g = ConflictGraph::build(&l, &[0, 1, 2], 80.0);
        let f = minimum_spanning_forest(&g);
        assert_eq!(f.edges.len(), 2);
        assert_eq!(f.component_count, 1);
        assert!((f.total_weight() - (66.0 + 70.0)).abs() < 1e-9);
    }

    #[test]
    fn triangle_drops_heaviest_edge() {
        // L-shaped triple where all three pairwise gaps are ≤ 95:
        // MST keeps the two lightest edges (64 and 66), drops the 91.9
        let l = layout(&[(0, 0), (128, 0), (0, 130)]);
        let g = ConflictGraph::build(&l, &[0, 1, 2], 95.0);
        assert_eq!(g.edge_count(), 3);
        let f = minimum_spanning_forest(&g);
        assert_eq!(f.edges.len(), 2);
        let max_w = f.edges.iter().map(|e| e.weight).fold(0.0, f64::max);
        let dropped: Vec<&Edge> = g
            .edges
            .iter()
            .filter(|e| !f.edges.iter().any(|fe| fe.a == e.a && fe.b == e.b))
            .collect();
        assert_eq!(dropped.len(), 1);
        assert!(dropped[0].weight >= max_w);
    }

    #[test]
    fn fig3_two_components_solved_independently() {
        let l = layout(&[(0, 0), (130, 0), (700, 700), (830, 700), (960, 700)]);
        let g = ConflictGraph::build(&l, &[0, 1, 2, 3, 4], 80.0);
        let f = minimum_spanning_forest(&g);
        assert_eq!(f.component_count, 2);
        assert_eq!(f.edges.len(), 3); // 1 + 2
        assert_eq!(f.component, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn two_coloring_separates_mst_neighbours() {
        let l = layout(&[(0, 0), (130, 0), (264, 0)]);
        let g = ConflictGraph::build(&l, &[0, 1, 2], 80.0);
        let f = minimum_spanning_forest(&g);
        let colors = two_color_forest(&f);
        for e in &f.edges {
            assert_ne!(colors[e.a], colors[e.b], "edge {e:?} monochromatic");
        }
        assert_eq!(colors[0], 0, "smallest pattern anchored to color 0");
        assert!(f.component.iter().all(|&c| c == 0));
    }

    #[test]
    fn isolated_vertices_form_own_components() {
        let l = layout(&[(0, 0), (500, 500)]);
        let g = ConflictGraph::build(&l, &[0, 1], 80.0);
        let f = minimum_spanning_forest(&g);
        assert_eq!(f.component_count, 2);
        assert_eq!(two_color_forest(&f), vec![0, 0]);
        assert_ne!(f.component[0], f.component[1]);
    }

    #[test]
    fn empty_graph() {
        let g = ConflictGraph::default();
        let f = minimum_spanning_forest(&g);
        assert_eq!(f.component_count, 0);
        assert!(two_color_forest(&f).is_empty() && f.component.is_empty());
    }
}
