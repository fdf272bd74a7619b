//! Integration tests of the multiple-patterning (MPL) extension: the
//! paper's introduction motivates general MPL; triple patterning handles
//! layouts double patterning cannot. Every mask count runs on the one ILT
//! engine, `IltSession::<K>`.

use ldmo::decomp::{greedy_coloring, is_dpl_compatible};
use ldmo::geom::Rect;
use ldmo::ilt::{IltConfig, IltSession};
use ldmo::layout::Layout;

/// Three contacts in a mutual-conflict triangle (all gaps ≤ 80 nm).
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

fn short_ilt() -> IltConfig {
    IltConfig {
        max_iterations: 12,
        ..IltConfig::default()
    }
}

#[test]
fn triangle_is_not_dpl_compatible() {
    assert!(!is_dpl_compatible(&triangle(), 80.0));
}

#[test]
fn triple_patterning_rescues_non_bipartite_layouts() {
    let layout = triangle();
    let tpl_assignment = greedy_coloring(&layout, 3);
    let tpl = IltSession::<3>::prepare(&layout, &tpl_assignment, &IltConfig::default()).run();
    assert_eq!(
        tpl.violations.count(),
        0,
        "TPL must print the triangle cleanly: {:?}",
        tpl.violations
    );
    assert_eq!(tpl.epe_violations(), 0);
}

#[test]
fn mask_images_partition_the_target() {
    let layout = triangle();
    let assignment = greedy_coloring(&layout, 3);
    let out = IltSession::<3>::prepare(&layout, &assignment, &short_ilt()).run();
    assert_eq!(out.masks.len(), 3);
    // each mask contains some area and the union of drawn patterns per
    // mask equals the drawn target
    let drawn: f64 = (0..3)
        .map(|m| {
            layout
                .rasterize_mask(&assignment, m as u8, 2.0)
                .expect("valid assignment")
                .sum()
        })
        .sum();
    let target = layout.rasterize_target(2.0).sum();
    assert!((drawn - target).abs() < 1e-6);
}

#[test]
fn more_masks_never_hurt_on_dense_grids() {
    // 3×3 grid at 68 nm gaps: DPL manages with a checkerboard; 3 masks
    // give even more spacing slack
    let pitch = 64 + 68;
    let mut pats = Vec::new();
    for r in 0..3 {
        for c in 0..3 {
            pats.push(Rect::square(60 + c * pitch, 60 + r * pitch, 64));
        }
    }
    let layout = Layout::new(Rect::new(0, 0, 448, 448), pats);
    let cfg = IltConfig::default();
    let dpl = IltSession::<2>::prepare(&layout, &greedy_coloring(&layout, 2), &cfg).run();
    let tpl = IltSession::<3>::prepare(&layout, &greedy_coloring(&layout, 3), &cfg).run();
    assert!(
        tpl.epe_violations() <= dpl.epe_violations(),
        "TPL ({}) worse than DPL ({})",
        tpl.epe_violations(),
        dpl.epe_violations()
    );
}
