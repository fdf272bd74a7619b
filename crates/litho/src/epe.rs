//! Edge placement error (paper Definition 1).
//!
//! Checkpoints are sampled along each target edge; at each checkpoint the
//! printed contour (level 0.5 of the resist image) is located along the
//! edge's outward normal, and the signed displacement is the EPE. A
//! checkpoint whose `|EPE|` exceeds the threshold (10 nm in the paper)
//! counts as an EPE violation — the paper's headline metric ("EPE #").

use crate::LithoConfig;
use ldmo_geom::{Grid, Rect, Vec2};

/// Where and how a single EPE measurement was taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpeCheckpoint {
    /// Sub-pixel position of the checkpoint on the target edge.
    pub pos: Vec2,
    /// Outward normal of the target edge at the checkpoint.
    pub normal: Vec2,
    /// Index of the target pattern the edge belongs to.
    pub pattern: usize,
}

/// One EPE measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpeSite {
    /// The checkpoint measured.
    pub checkpoint: EpeCheckpoint,
    /// Signed EPE in nm: positive = printed edge lies outside the target
    /// (over-print), negative = inside (under-print / necking).
    pub epe_nm: f64,
    /// Whether `|EPE|` exceeds the configured threshold.
    pub violation: bool,
}

/// Aggregated EPE measurement over a full layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpeReport {
    /// All individual measurements.
    pub sites: Vec<EpeSite>,
}

impl EpeReport {
    /// Number of violating checkpoints — the paper's "EPE #".
    pub fn violations(&self) -> usize {
        self.sites.iter().filter(|s| s.violation).count()
    }

    /// Largest absolute EPE over all checkpoints (0 when empty).
    pub fn max_abs_nm(&self) -> f64 {
        self.sites
            .iter()
            .map(|s| s.epe_nm.abs())
            .fold(0.0, f64::max)
    }
}

/// Generates the checkpoints for a set of target rectangles: points spaced
/// `cfg.epe_sample_step_nm` apart along every edge (at least one per edge,
/// at the edge midpoint), excluding the corner neighbourhoods where EPE is
/// ill-defined.
pub fn checkpoints_for(targets: &[Rect], cfg: &LithoConfig) -> Vec<EpeCheckpoint> {
    let step = cfg.epe_sample_step_nm.max(1);
    let mut pts = Vec::new();
    for (pi, r) in targets.iter().enumerate() {
        // (start, end, fixed coordinate, axis, outward normal)
        let edges = [
            // bottom edge: y = y0, normal (0, -1)
            (r.x0, r.x1, r.y0, true, Vec2::new(0.0, -1.0)),
            // top edge: y = y1, normal (0, +1)
            (r.x0, r.x1, r.y1, true, Vec2::new(0.0, 1.0)),
            // left edge: x = x0, normal (-1, 0)
            (r.y0, r.y1, r.x0, false, Vec2::new(-1.0, 0.0)),
            // right edge: x = x1, normal (+1, 0)
            (r.y0, r.y1, r.x1, false, Vec2::new(1.0, 0.0)),
        ];
        for (a, b, fixed, horizontal, normal) in edges {
            let len = b - a;
            // keep the configured corner margin at both ends (capped so
            // short edges still get a midpoint checkpoint)
            let margin = cfg.epe_corner_margin_nm.max(step / 2).min(len / 3);
            let lo = a + margin;
            let hi = b - margin;
            let span = hi - lo;
            let n = (span / step).max(0) as usize + 1;
            for k in 0..n {
                let t = if n == 1 {
                    f64::from(lo) + f64::from(span) / 2.0
                } else {
                    f64::from(lo) + f64::from(span) * k as f64 / (n - 1) as f64
                };
                let pos = if horizontal {
                    Vec2::new(t, f64::from(fixed))
                } else {
                    Vec2::new(f64::from(fixed), t)
                };
                pts.push(EpeCheckpoint {
                    pos,
                    normal,
                    pattern: pi,
                });
            }
        }
    }
    pts
}

/// Measures EPE of `printed` against `targets` per the paper's Definition 1.
///
/// The printed contour is located by marching along each checkpoint's normal
/// from `-search` (inside) to `+search` (outside) in quarter-pixel steps and
/// finding the crossing of `cfg.print_level`. If the contour is not found —
/// the pattern failed to print at all, or bloated beyond the search window —
/// the EPE saturates at `±search` and counts as a violation.
///
/// Geometry (`targets`, EPE values) is in nm; `printed` is a raster at
/// `cfg.nm_per_px` nm per pixel.
///
/// ```
/// use ldmo_geom::{Grid, Rect};
/// use ldmo_litho::{measure_epe, LithoConfig};
///
/// let cfg = LithoConfig { nm_per_px: 1.0, ..LithoConfig::default() };
/// let target = Rect::new(20, 20, 60, 60);
/// // a "perfect" print: the binary target itself
/// let mut printed = Grid::zeros(80, 80);
/// printed.fill_rect(&target, 1.0);
/// let report = measure_epe(&printed, &[target], &cfg);
/// assert_eq!(report.violations(), 0);
/// assert!(report.max_abs_nm() <= 1.0);
/// ```
pub fn measure_epe(printed: &Grid, targets: &[Rect], cfg: &LithoConfig) -> EpeReport {
    let search = 2.0 * cfg.epe_threshold_nm;
    let level = cfg.print_level;
    let step = 0.25f64 * cfg.nm_per_px;
    let scale = cfg.nm_per_px;
    let sites = checkpoints_for(targets, cfg)
        .into_iter()
        .map(|cp| {
            let mut epe = None;
            let mut s = -search;
            let mut prev = sample(printed, cp.pos, cp.normal, s, scale);
            while s < search {
                let s_next = s + step;
                let cur = sample(printed, cp.pos, cp.normal, s_next, scale);
                // crossing from printed (>= level) to clear (< level)
                if prev >= level && cur < level {
                    let frac = if (prev - cur).abs() > 1e-12 {
                        f64::from((prev - level) / (prev - cur))
                    } else {
                        0.5
                    };
                    epe = Some(s + frac * step);
                    break;
                }
                prev = cur;
                s = s_next;
            }
            let epe_nm = epe.unwrap_or_else(|| {
                // no contour: decide between "missing" (dark inside) and
                // "bloated" (bright outside) by the innermost sample
                let inner = sample(printed, cp.pos, cp.normal, -search, scale);
                if inner < level {
                    -search
                } else {
                    search
                }
            });
            EpeSite {
                checkpoint: cp,
                epe_nm,
                violation: epe_nm.abs() > cfg.epe_threshold_nm,
            }
        })
        .collect();
    EpeReport { sites }
}

#[inline]
fn sample(grid: &Grid, pos: Vec2, normal: Vec2, s: f64, nm_per_px: f64) -> f32 {
    // positions are in nm; the grid pixel (x, y) covers
    // [x·scale, (x+1)·scale) nm, so its center sits at (x + 0.5)·scale
    let p = pos + normal * s;
    grid.sample_bilinear(p.x / nm_per_px - 0.5, p.y / nm_per_px - 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LithoConfig {
        // pure-geometry tests run at 1 nm per pixel for clarity
        LithoConfig {
            nm_per_px: 1.0,
            ..LithoConfig::default()
        }
    }

    #[test]
    fn perfect_print_zero_epe() {
        let target = Rect::new(20, 20, 60, 60);
        let mut printed = Grid::zeros(96, 96);
        printed.fill_rect(&target, 1.0);
        let r = measure_epe(&printed, &[target], &cfg());
        assert!(!r.sites.is_empty());
        assert_eq!(r.violations(), 0);
        assert!(r.max_abs_nm() <= 1.0, "max {}", r.max_abs_nm());
    }

    #[test]
    fn uniform_shrink_reports_negative_epe() {
        let target = Rect::new(20, 20, 60, 60);
        let shrunk = Rect::new(25, 25, 55, 55); // 5 nm under everywhere
        let mut printed = Grid::zeros(96, 96);
        printed.fill_rect(&shrunk, 1.0);
        let r = measure_epe(&printed, &[target], &cfg());
        assert_eq!(r.violations(), 0, "5nm is under the 10nm threshold");
        for s in &r.sites {
            assert!(
                s.epe_nm < -3.0 && s.epe_nm > -7.0,
                "expected ~-5nm, got {}",
                s.epe_nm
            );
        }
    }

    #[test]
    fn large_shrink_violates_everywhere() {
        let target = Rect::new(20, 20, 60, 60);
        let shrunk = Rect::new(35, 35, 45, 45); // 15 nm under
        let mut printed = Grid::zeros(96, 96);
        printed.fill_rect(&shrunk, 1.0);
        let r = measure_epe(&printed, &[target], &cfg());
        assert_eq!(r.violations(), r.sites.len());
    }

    #[test]
    fn missing_pattern_saturates_negative() {
        let target = Rect::new(20, 20, 60, 60);
        let printed = Grid::zeros(96, 96);
        let r = measure_epe(&printed, &[target], &cfg());
        assert_eq!(r.violations(), r.sites.len());
        for s in &r.sites {
            assert!(s.epe_nm <= -2.0 * cfg().epe_threshold_nm + 1e-9);
        }
    }

    #[test]
    fn bloat_reports_positive_epe() {
        let target = Rect::new(30, 30, 60, 60);
        let bloated = Rect::new(24, 24, 66, 66); // 6 nm over
        let mut printed = Grid::zeros(96, 96);
        printed.fill_rect(&bloated, 1.0);
        let r = measure_epe(&printed, &[target], &cfg());
        assert_eq!(r.violations(), 0);
        for s in &r.sites {
            assert!(s.epe_nm > 4.0 && s.epe_nm < 8.0, "got {}", s.epe_nm);
        }
    }

    #[test]
    fn every_edge_gets_a_checkpoint() {
        let cps = checkpoints_for(&[Rect::new(0, 0, 12, 12)], &cfg());
        // 4 edges, at least one checkpoint each
        assert!(cps.len() >= 4);
        let mut normals: Vec<(i32, i32)> = cps
            .iter()
            .map(|c| (c.normal.x as i32, c.normal.y as i32))
            .collect();
        normals.sort_unstable();
        normals.dedup();
        assert_eq!(normals.len(), 4, "all four edge orientations sampled");
    }

    #[test]
    fn checkpoint_density_scales_with_edge_length() {
        let small = checkpoints_for(&[Rect::new(0, 0, 20, 20)], &cfg()).len();
        let large = checkpoints_for(&[Rect::new(0, 0, 100, 100)], &cfg()).len();
        assert!(large > small);
    }

    #[test]
    fn report_aggregates() {
        let mut r = EpeReport::default();
        assert_eq!(r.violations(), 0);
        assert_eq!(r.max_abs_nm(), 0.0);
        let cp = EpeCheckpoint {
            pos: Vec2::new(0.0, 0.0),
            normal: Vec2::new(1.0, 0.0),
            pattern: 0,
        };
        r.sites.push(EpeSite {
            checkpoint: cp,
            epe_nm: -12.0,
            violation: true,
        });
        r.sites.push(EpeSite {
            checkpoint: cp,
            epe_nm: 4.0,
            violation: false,
        });
        assert_eq!(r.violations(), 1);
        assert_eq!(r.max_abs_nm(), 12.0);
    }
}
