//! Print-violation detection.
//!
//! A *print violation* in the paper is a catastrophic printing failure — two
//! patterns merging into one (bridge) or a pattern failing to resolve
//! (missing). The LDMO flow checks for these every three ILT iterations and
//! falls back to another decomposition candidate when they occur
//! (Section III-C); they also enter the training score with the largest
//! weight (`γ = 8000`, Eq. 9).

use crate::components::label_components;
use ldmo_geom::{Grid, Rect};
use std::collections::HashMap;

/// One detected print violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Target pattern `pattern` does not print (no resist above level at its
    /// center).
    Missing {
        /// Index into the target list.
        pattern: usize,
    },
    /// Target patterns `a` and `b` print as a single connected component.
    Bridge {
        /// Lower pattern index.
        a: usize,
        /// Higher pattern index.
        b: usize,
    },
}

/// All violations found in one printed image.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ViolationReport {
    /// Detected violations, deduplicated.
    pub violations: Vec<ViolationKind>,
}

impl ViolationReport {
    /// Total violation count (the `#Violation` term of Eq. 9).
    pub fn count(&self) -> usize {
        self.violations.len()
    }

    /// Whether the print is violation-free.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Detects bridge/missing violations of `printed` against the `targets`.
///
/// Each target pattern is located by its center pixel in the labeled
/// component map of the binarized print. Patterns mapping to background are
/// missing; pairs of patterns mapping to the same component are bridged.
/// Targets are in nm; `printed` is a raster at `nm_per_px` nm per pixel.
///
/// ```
/// use ldmo_geom::{Grid, Rect};
/// use ldmo_litho::detect_violations;
///
/// let targets = [Rect::new(2, 2, 8, 8), Rect::new(12, 2, 18, 8)];
/// let mut printed = Grid::zeros(24, 12);
/// printed.fill_rect(&targets[0], 1.0);
/// printed.fill_rect(&targets[1], 1.0);
/// assert!(detect_violations(&printed, &targets, 0.5, 1.0).is_clean());
/// ```
pub fn detect_violations(
    printed: &Grid,
    targets: &[Rect],
    level: f32,
    nm_per_px: f64,
) -> ViolationReport {
    let labels = label_components(printed, level);
    let (w, h) = printed.shape();
    let mut owner: HashMap<u32, usize> = HashMap::new();
    let mut report = ViolationReport::default();
    for (i, r) in targets.iter().enumerate() {
        let c = r.center_f();
        let cx = ((c.x / nm_per_px) as i32).clamp(0, w as i32 - 1) as usize;
        let cy = ((c.y / nm_per_px) as i32).clamp(0, h as i32 - 1) as usize;
        let lab = labels.label(cx, cy);
        if lab == 0 {
            report
                .violations
                .push(ViolationKind::Missing { pattern: i });
            continue;
        }
        match owner.get(&lab) {
            Some(&j) => {
                report.violations.push(ViolationKind::Bridge {
                    a: j.min(i),
                    b: j.max(i),
                });
            }
            None => {
                owner.insert(lab, i);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_print_no_violations() {
        let targets = [Rect::new(2, 2, 8, 8), Rect::new(14, 2, 20, 8)];
        let mut printed = Grid::zeros(24, 12);
        printed.fill_rect(&targets[0], 1.0);
        printed.fill_rect(&targets[1], 1.0);
        let r = detect_violations(&printed, &targets, 0.5, 1.0);
        assert!(r.is_clean());
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn merged_print_is_bridge() {
        let targets = [Rect::new(2, 2, 8, 8), Rect::new(10, 2, 16, 8)];
        let mut printed = Grid::zeros(24, 12);
        printed.fill_rect(&Rect::new(2, 2, 16, 8), 1.0); // one blob over both
        let r = detect_violations(&printed, &targets, 0.5, 1.0);
        assert_eq!(r.violations, [ViolationKind::Bridge { a: 0, b: 1 }]);
    }

    #[test]
    fn absent_print_is_missing() {
        let targets = [Rect::new(2, 2, 8, 8)];
        let printed = Grid::zeros(12, 12);
        let r = detect_violations(&printed, &targets, 0.5, 1.0);
        assert_eq!(r.violations, [ViolationKind::Missing { pattern: 0 }]);
    }

    #[test]
    fn three_way_bridge_reports_pairs() {
        let targets = [
            Rect::new(2, 2, 6, 6),
            Rect::new(8, 2, 12, 6),
            Rect::new(14, 2, 18, 6),
        ];
        let mut printed = Grid::zeros(24, 8);
        printed.fill_rect(&Rect::new(2, 2, 18, 6), 1.0);
        let r = detect_violations(&printed, &targets, 0.5, 1.0);
        // (0,1) and (0,2) against the first owner
        assert_eq!(
            r.violations,
            [
                ViolationKind::Bridge { a: 0, b: 1 },
                ViolationKind::Bridge { a: 0, b: 2 }
            ]
        );
    }

    #[test]
    fn mixed_missing_and_bridge() {
        let targets = [
            Rect::new(2, 2, 6, 6),
            Rect::new(8, 2, 12, 6),
            Rect::new(16, 2, 20, 6),
        ];
        let mut printed = Grid::zeros(24, 8);
        printed.fill_rect(&Rect::new(2, 2, 12, 6), 1.0); // bridges 0-1, 2 missing
        let r = detect_violations(&printed, &targets, 0.5, 1.0);
        assert_eq!(
            r.violations,
            [
                ViolationKind::Bridge { a: 0, b: 1 },
                ViolationKind::Missing { pattern: 2 }
            ]
        );
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn separate_blobs_not_bridged_even_if_close() {
        let targets = [Rect::new(2, 2, 8, 8), Rect::new(10, 2, 16, 8)];
        let mut printed = Grid::zeros(24, 12);
        printed.fill_rect(&targets[0], 1.0);
        printed.fill_rect(&targets[1], 1.0); // gap of 2px at x=8..10
        let r = detect_violations(&printed, &targets, 0.5, 1.0);
        assert!(r.is_clean());
    }
}
