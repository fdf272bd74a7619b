//! The weighted conflict graph over separated patterns (paper Fig. 3a).
//!
//! Vertices are the `SP` pattern indices; an edge connects two `SP` patterns
//! whose edge-to-edge gap is at most the conflict distance (`nmin`), weighted
//! by that gap. "The closer two patterns are, the stronger their interaction
//! is, so the nearest nodes should be separated in the first place" — which
//! is why the *minimum* spanning tree identifies the pairs that must go to
//! different masks first.

use ldmo_layout::{Layout, MaskAssignment};

/// A weighted undirected edge between two pattern indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Lower endpoint (pattern index into the layout).
    pub a: usize,
    /// Higher endpoint.
    pub b: usize,
    /// Edge-to-edge gap in nm.
    pub weight: f64,
}

/// The conflict graph over a subset of patterns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConflictGraph {
    /// The vertex set: pattern indices, ascending.
    pub vertices: Vec<usize>,
    /// Conflict edges (gap ≤ the conflict distance).
    pub edges: Vec<Edge>,
}

impl ConflictGraph {
    /// Builds the conflict graph over the given `sp` pattern indices of
    /// `layout`, connecting pairs with gap at most `conflict_distance`
    /// (`nmin` in the paper).
    ///
    /// ```
    /// use ldmo_geom::Rect;
    /// use ldmo_layout::Layout;
    /// use ldmo_decomp::ConflictGraph;
    ///
    /// let layout = Layout::new(
    ///     Rect::new(0, 0, 448, 448),
    ///     vec![Rect::square(40, 40, 64), Rect::square(170, 40, 64)],
    /// );
    /// let g = ConflictGraph::build(&layout, &[0, 1], 80.0);
    /// assert_eq!(g.edges.len(), 1); // 66 nm gap ≤ 80
    /// ```
    pub fn build(layout: &Layout, sp: &[usize], conflict_distance: f64) -> Self {
        let mut edges = Vec::new();
        for (i, &pa) in sp.iter().enumerate() {
            for &pb in &sp[i + 1..] {
                let gap = layout.patterns()[pa].gap_to(&layout.patterns()[pb]);
                if gap <= conflict_distance {
                    edges.push(Edge {
                        a: pa.min(pb),
                        b: pa.max(pb),
                        weight: gap,
                    });
                }
            }
        }
        ConflictGraph {
            vertices: sp.to_vec(),
            edges,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph is bipartite (2-colorable), checked by
    /// [`two_color`].
    pub fn is_bipartite(&self) -> bool {
        two_color(&self.vertices, &self.edges).1
    }
}

/// BFS two-coloring of the graph `(vertices, edges)`: each vertex not yet
/// colored, in `vertices` order, roots a BFS at color 0, and the first
/// neighbour to reach a vertex gives it the opposite color, neighbours
/// taken in `edges` order. Returns the colors, aligned with `vertices`,
/// and whether no edge joins two equal colors (the graph is bipartite).
/// On an odd cycle the visit order decides which edges end up
/// monochromatic.
///
/// # Panics
///
/// Panics if an edge endpoint is not in `vertices`.
///
/// ```
/// use ldmo_decomp::{two_color, Edge};
///
/// let edge = |a, b| Edge { a, b, weight: 0.0 };
/// let (colors, bipartite) = two_color(&[0, 1, 2], &[edge(0, 1), edge(1, 2)]);
/// assert_eq!((colors, bipartite), (vec![0, 1, 0], true));
/// let (_, bipartite) = two_color(&[0, 1, 2], &[edge(0, 1), edge(1, 2), edge(0, 2)]);
/// assert!(!bipartite);
/// ```
pub fn two_color(vertices: &[usize], edges: &[Edge]) -> (Vec<u8>, bool) {
    let mut local = vec![usize::MAX; vertices.iter().max().map_or(0, |&v| v + 1)];
    for (i, &v) in vertices.iter().enumerate() {
        local[v] = i;
    }
    let mut adj = vec![Vec::new(); vertices.len()];
    for e in edges {
        adj[local[e.a]].push(local[e.b]);
        adj[local[e.b]].push(local[e.a]);
    }
    let mut colors = vec![u8::MAX; vertices.len()];
    let mut queue = std::collections::VecDeque::new();
    for root in 0..vertices.len() {
        if colors[root] != u8::MAX {
            continue;
        }
        colors[root] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if colors[v] == u8::MAX {
                    colors[v] = 1 - colors[u];
                    queue.push_back(v);
                }
            }
        }
    }
    let proper = edges
        .iter()
        .all(|e| colors[local[e.a]] != colors[local[e.b]]);
    (colors, proper)
}

/// Greedy `k`-mask coloring of `layout`'s patterns: in most-constrained
/// first order (smallest nearest-neighbour gap first, ties by index),
/// each pattern takes the mask that maximizes its minimum same-mask gap,
/// ties to the lower mask. At `k = 2` this is the spacing-uniformity
/// objective of the SUALD-style baseline; at `k = 3` it gives the
/// triple-patterning assignments the ILT engine runs as `K = 3` masks.
///
/// # Panics
///
/// Panics if `num_masks` is 0 or above 255.
pub fn greedy_coloring(layout: &Layout, num_masks: usize) -> MaskAssignment {
    assert!(num_masks >= 1, "need at least one mask");
    let num_masks = u8::try_from(num_masks).expect("at most 255 masks");
    let n = layout.len();
    let gaps = layout.gap_matrix();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ga = gaps[a].iter().copied().fold(f64::INFINITY, f64::min);
        let gb = gaps[b].iter().copied().fold(f64::INFINITY, f64::min);
        ga.total_cmp(&gb)
    });
    let mut assignment = vec![u8::MAX; n];
    for &p in &order {
        let mut best_mask = 0u8;
        let mut best_gap = f64::NEG_INFINITY;
        for m in 0..num_masks {
            let gap = (0..n)
                .filter(|&q| q != p && assignment[q] == m)
                .map(|q| gaps[p][q])
                .fold(f64::INFINITY, f64::min);
            if gap > best_gap {
                best_gap = gap;
                best_mask = m;
            }
        }
        assignment[p] = best_mask;
    }
    assignment
}

/// Whether `layout` is double-patterning compatible: its conflict graph
/// over *all* patterns (edges where the gap is at most `conflict_distance`,
/// the paper's `nmin`) must be bipartite, otherwise some pattern pair
/// closer than `nmin` inevitably shares a mask and cannot print. Real DPL
/// design flows reject such layouts before decomposition.
pub fn is_dpl_compatible(layout: &Layout, conflict_distance: f64) -> bool {
    let all: Vec<usize> = (0..layout.len()).collect();
    ConflictGraph::build(layout, &all, conflict_distance).is_bipartite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    fn layout(corners: &[(i32, i32)]) -> Layout {
        Layout::new(
            Rect::new(0, 0, 1000, 1000),
            corners
                .iter()
                .map(|&(x, y)| Rect::square(x, y, 64))
                .collect(),
        )
    }

    #[test]
    fn edges_only_within_conflict_distance() {
        // gaps: 0-1 = 66 (edge), 1-2 = 120 (no edge)
        let l = layout(&[(0, 0), (130, 0), (314, 0)]);
        let g = ConflictGraph::build(&l, &[0, 1, 2], 80.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!((g.edges[0].a, g.edges[0].b), (0, 1));
        assert!((g.edges[0].weight - 66.0).abs() < 1e-9);
    }

    #[test]
    fn vertices_preserved_even_isolated() {
        let l = layout(&[(0, 0), (500, 500)]);
        let g = ConflictGraph::build(&l, &[0, 1], 80.0);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn subset_of_patterns_respected() {
        let l = layout(&[(0, 0), (130, 0), (260, 0)]);
        // only patterns 0 and 2 in the SP set: their gap is 196 -> no edge
        let g = ConflictGraph::build(&l, &[0, 2], 80.0);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn bipartite_detection() {
        // 4-cycle: bipartite
        let l = layout(&[(0, 0), (130, 0), (0, 130), (130, 130)]);
        let g = ConflictGraph::build(&l, &[0, 1, 2, 3], 80.0);
        assert!(g.is_bipartite());
        // triangle: odd cycle
        let l = layout(&[(0, 0), (128, 0), (64, 110)]);
        let g = ConflictGraph::build(&l, &[0, 1, 2], 80.0);
        assert_eq!(g.edge_count(), 3, "need a full triangle for this test");
        assert!(!g.is_bipartite());
    }

    /// Three contacts in a mutual-conflict triangle (all gaps ≤ 80):
    /// impossible for two masks, trivial for three.
    fn triangle() -> Layout {
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(120, 120, 64),
                Rect::square(248, 120, 64),
                Rect::square(184, 230, 64),
            ],
        )
    }

    #[test]
    fn greedy_coloring_uses_all_three_masks_on_triangle() {
        let a = greedy_coloring(&triangle(), 3);
        let set: std::collections::HashSet<u8> = a.iter().copied().collect();
        assert_eq!(set.len(), 3, "triangle needs three masks: {a:?}");
    }

    #[test]
    fn greedy_two_mask_matches_layout_size() {
        let a = greedy_coloring(&triangle(), 2);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&m| m < 2));
    }

    #[test]
    fn dpl_compatibility_wrapper() {
        let good = layout(&[(0, 0), (130, 0), (260, 0)]);
        assert!(is_dpl_compatible(&good, 80.0));
        let bad = layout(&[(0, 0), (128, 0), (64, 110)]);
        assert!(!is_dpl_compatible(&bad, 80.0));
    }

    #[test]
    fn fig3_two_components() {
        // two clusters far apart, like the paper's Fig. 3
        let l = layout(&[(0, 0), (130, 0), (65, 130), (700, 700), (830, 700)]);
        let g = ConflictGraph::build(&l, &[0, 1, 2, 3, 4], 80.0);
        // cluster 1: edges 0-1 (66), 0-2 and 1-2 (diagonal ~ less than 80?)
        // at least the two horizontal edges exist
        assert!(g.edge_count() >= 2);
        // no edge crosses the clusters
        assert!(g
            .edges
            .iter()
            .all(|e| (e.a < 3 && e.b < 3) || (e.a >= 3 && e.b >= 3)));
    }
}
