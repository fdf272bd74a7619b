//! Algorithm 1: decomposition candidate generation.
//!
//! Glues the classification, MST and covering-array machinery together:
//!
//! ```text
//! SP, VP, NP    <- PatternClassify(L)
//! V             <- SolveMST(SP)            (one flip factor per component)
//! Arrs1         <- 3-wise(components ∪ VP)
//! Arrs2         <- 2-wise(NP)
//! candidates    <- canonical_dedup(Arrs1 × Arrs2)
//! ```
//!
//! Each candidate is a full [`MaskAssignment`] over the layout's patterns:
//! SP patterns take their MST two-coloring XOR the component flip bit, VP
//! patterns take their dedicated factor bit, NP patterns theirs.

use crate::canonical::canonical_dedup;
use crate::covering::covering_array;
use crate::graph::ConflictGraph;
use crate::mst::{minimum_spanning_forest, two_color_forest};
use ldmo_layout::classify::{pattern_sets, ClassifyConfig};
use ldmo_layout::{Layout, MaskAssignment};

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompConfig {
    /// Eq. 6 thresholds (`nmin`, `nmax`).
    pub classify: ClassifyConfig,
    /// Covering strength for the component-flip + VP array (paper: 3).
    pub strength_primary: usize,
    /// Covering strength for the NP array (paper: 2).
    pub strength_secondary: usize,
    /// Upper bound on emitted candidates (the Arrs1 × Arrs2 product is
    /// truncated beyond this; 0 means unlimited).
    pub max_candidates: usize,
}

impl Default for DecompConfig {
    fn default() -> Self {
        DecompConfig {
            classify: ClassifyConfig::default(),
            strength_primary: 3,
            strength_secondary: 2,
            max_candidates: 64,
        }
    }
}

/// Generates decomposition candidates for `layout` per Algorithm 1.
///
/// Candidates are canonical (pattern 0 on mask 0), deduplicated, and in a
/// deterministic order. Layouts with no patterns yield a single empty
/// assignment.
///
/// ```
/// use ldmo_geom::Rect;
/// use ldmo_layout::Layout;
/// use ldmo_decomp::{generate_candidates, DecompConfig};
///
/// // two SP contacts: the MST forces them apart, so exactly one
/// // decomposition exists after canonicalization
/// let layout = Layout::new(
///     Rect::new(0, 0, 448, 448),
///     vec![Rect::square(60, 60, 64), Rect::square(190, 60, 64)],
/// );
/// let cands = generate_candidates(&layout, &DecompConfig::default());
/// assert_eq!(cands, vec![vec![0, 1]]);
/// ```
pub fn generate_candidates(layout: &Layout, cfg: &DecompConfig) -> Vec<MaskAssignment> {
    let sets = pattern_sets(layout, &cfg.classify);
    let graph = ConflictGraph::build(layout, &sets.sp, cfg.classify.nmin);
    let forest = minimum_spanning_forest(&graph);
    let colors = two_color_forest(&forest);

    // Arrs1 factors: one flip per SP component, then one per VP pattern
    let k1 = forest.component_count + sets.vp.len();
    let arrs1 = covering_array(k1, cfg.strength_primary);
    // Arrs2 factors: one per NP pattern
    let arrs2 = covering_array(sets.np.len(), cfg.strength_secondary);

    let n = layout.len();
    let mut rows: Vec<MaskAssignment> = Vec::with_capacity(arrs1.len() * arrs2.len());
    'outer: for r1 in &arrs1 {
        for r2 in &arrs2 {
            let mut assignment = vec![0u8; n];
            for (i, &p) in forest.vertices.iter().enumerate() {
                assignment[p] = colors[i] ^ r1[forest.component[i]];
            }
            for (i, &p) in sets.vp.iter().enumerate() {
                assignment[p] = r1[forest.component_count + i];
            }
            for (j, &p) in sets.np.iter().enumerate() {
                assignment[p] = r2[j];
            }
            rows.push(assignment);
            if cfg.max_candidates > 0 && rows.len() >= cfg.max_candidates * 4 {
                // dedup will shrink this; keep a generous margin before
                // truncating the raw product
                break 'outer;
            }
        }
    }
    let mut out = canonical_dedup(rows);
    if cfg.max_candidates > 0 && out.len() > cfg.max_candidates {
        out.truncate(cfg.max_candidates);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;
    use ldmo_layout::cells;

    fn layout(corners: &[(i32, i32)]) -> Layout {
        Layout::new(
            Rect::new(0, 0, 1000, 1000),
            corners
                .iter()
                .map(|&(x, y)| Rect::square(x, y, 64))
                .collect(),
        )
    }

    /// Counts same-mask pattern pairs with gap ≤ nmin. Odd cycles in the
    /// conflict graph make zero conflicts impossible for some layouts; the
    /// MST guarantees only that *tree* edges are separated (the paper's flow
    /// catches the rest via print-violation checks).
    fn sp_conflicts(layout: &Layout, assignment: &[u8], nmin: f64) -> usize {
        let gaps = layout.gap_matrix();
        let mut conflicts = 0;
        for i in 0..layout.len() {
            for j in (i + 1)..layout.len() {
                if gaps[i][j] <= nmin && assignment[i] == assignment[j] {
                    conflicts += 1;
                }
            }
        }
        conflicts
    }

    #[test]
    fn empty_layout_single_empty_candidate() {
        let l = Layout::new(Rect::new(0, 0, 100, 100), vec![]);
        let cands = generate_candidates(&l, &DecompConfig::default());
        assert_eq!(cands, vec![Vec::<u8>::new()]);
    }

    #[test]
    fn all_candidates_canonical_and_unique() {
        let l = cells::cell("NAND3_X2").expect("known cell");
        let cands = generate_candidates(&l, &DecompConfig::default());
        assert!(!cands.is_empty());
        let mut seen = std::collections::HashSet::new();
        for c in &cands {
            assert_eq!(c.len(), l.len());
            assert_eq!(c[0], 0, "canonical candidates fix pattern 0 on mask 0");
            assert!(seen.insert(c.clone()), "duplicate candidate {c:?}");
        }
    }

    #[test]
    fn mst_neighbours_always_split() {
        // every candidate must separate patterns joined by an MST edge —
        // that is the whole point of the MST structure
        let l = cells::cell("DFF_X1").expect("known cell");
        let cfg = DecompConfig::default();
        let sets = pattern_sets(&l, &cfg.classify);
        let graph = ConflictGraph::build(&l, &sets.sp, cfg.classify.nmin);
        let forest = minimum_spanning_forest(&graph);
        for cand in generate_candidates(&l, &cfg) {
            for e in &forest.edges {
                assert_ne!(
                    cand[e.a], cand[e.b],
                    "MST edge {}-{} not separated in {cand:?}",
                    e.a, e.b
                );
            }
        }
    }

    #[test]
    fn chain_of_three_sp_has_unique_coloring() {
        // A-B-C chain with both gaps ≤ nmin: MST = both edges, so the
        // alternating coloring is forced; only one candidate results
        let l = layout(&[(0, 0), (130, 0), (260, 0)]);
        let cands = generate_candidates(&l, &DecompConfig::default());
        assert_eq!(cands, vec![vec![0, 1, 0]]);
    }

    #[test]
    fn vp_patterns_take_both_masks_across_candidates() {
        // one SP pair plus one VP pattern: candidates must explore the VP
        // pattern on both masks
        let l = layout(&[(0, 0), (130, 0), (0, 150)]);
        let cands = generate_candidates(&l, &DecompConfig::default());
        let vp_values: std::collections::HashSet<u8> = cands.iter().map(|c| c[2]).collect();
        assert_eq!(
            vp_values.len(),
            2,
            "VP pattern stuck on one mask: {cands:?}"
        );
    }

    #[test]
    fn np_patterns_take_both_masks_across_candidates() {
        let l = layout(&[(0, 0), (130, 0), (600, 600)]);
        let cands = generate_candidates(&l, &DecompConfig::default());
        let np_values: std::collections::HashSet<u8> = cands.iter().map(|c| c[2]).collect();
        assert_eq!(np_values.len(), 2);
    }

    #[test]
    fn candidates_respect_max_bound() {
        let cfg = DecompConfig {
            max_candidates: 4,
            ..DecompConfig::default()
        };
        let l = cells::cell("AOI211_X1").expect("known cell");
        let cands = generate_candidates(&l, &cfg);
        assert!(cands.len() <= 4);
        assert!(!cands.is_empty());
    }

    #[test]
    fn all_cell_templates_generate_valid_candidates() {
        let cfg = DecompConfig::default();
        for (name, l) in cells::all_cells() {
            let cands = generate_candidates(&l, &cfg);
            assert!(!cands.is_empty(), "{name} produced no candidates");
            // compute the unavoidable conflict floor: non-bipartite conflict
            // graphs force at least (edges - tree edges adjusted) conflicts;
            // the MST guarantees tree edges are clean, so any candidate's
            // conflicts are at most (total conflict edges - tree edges)
            let sets = pattern_sets(&l, &cfg.classify);
            let graph = ConflictGraph::build(&l, &sets.sp, cfg.classify.nmin);
            let forest = minimum_spanning_forest(&graph);
            let slack = graph.edge_count() - forest.edges.len();
            let best = cands
                .iter()
                .map(|c| sp_conflicts(&l, c, cfg.classify.nmin))
                .min()
                .expect("non-empty");
            assert!(
                best <= slack,
                "{name}: best candidate has {best} conflicts, slack is {slack}"
            );
        }
    }
}
