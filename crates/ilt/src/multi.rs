//! Multiple-patterning decomposition.
//!
//! The paper's framework is formulated for double patterning (Eqs. 3-5),
//! but its introduction motivates general MPL; triple patterning is the
//! industrially relevant next step (the paper's refs [1], [3], [4]). The
//! ILT engine runs any mask count: an [`IltSession`](crate::IltSession)
//! over `K` masks prints `T = min(Σ_i T_i, 1)`. This module supplies the
//! `k`-mask assignments through a greedy conflict-graph coloring.

use ldmo_layout::{Layout, MaskAssignment};

/// Greedy `k`-mask decomposition of the conflict graph: patterns in
/// most-constrained-first order take the mask maximizing the minimum
/// same-mask gap (ties to the lower index). The `k = 2` case coincides
/// with the SUALD-style baseline.
///
/// # Panics
///
/// Panics if `num_masks == 0`.
pub fn greedy_coloring(layout: &Layout, num_masks: usize) -> MaskAssignment {
    assert!(num_masks >= 1, "need at least one mask");
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
        for m in 0..num_masks as u8 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IltConfig, IltSession};
    use ldmo_geom::Rect;

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

    fn fast_cfg() -> IltConfig {
        IltConfig::default()
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
    fn triple_patterning_beats_double_on_triangle() {
        let layout = triangle();
        let tpl =
            IltSession::<3>::prepare(&layout, &greedy_coloring(&layout, 3), &fast_cfg()).run();
        let dpl =
            IltSession::<2>::prepare(&layout, &greedy_coloring(&layout, 2), &fast_cfg()).run();
        assert!(
            tpl.epe_violations() < dpl.epe_violations()
                || tpl.violations.count() < dpl.violations.count(),
            "TPL (epe {}, viol {}) should beat DPL (epe {}, viol {}) on a triangle",
            tpl.epe_violations(),
            tpl.violations.count(),
            dpl.epe_violations(),
            dpl.violations.count()
        );
        assert_eq!(
            tpl.epe_violations(),
            0,
            "three well-separated masks must print cleanly"
        );
    }

    #[test]
    fn single_mask_case_degenerates_gracefully() {
        let layout = Layout::new(Rect::new(0, 0, 448, 448), vec![Rect::square(192, 192, 64)]);
        let out = IltSession::<1>::prepare(&layout, &[0], &fast_cfg()).run();
        assert_eq!(out.masks.len(), 1);
        assert_eq!(out.epe_violations(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond the session's mask count")]
    fn out_of_range_assignment_rejected() {
        let _ = IltSession::<2>::prepare(&triangle(), &[0, 1, 2], &fast_cfg());
    }
}
