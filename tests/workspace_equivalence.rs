//! Equivalence harness for the workspace-backed ILT hot path.
//!
//! The buffer-reuse `_into` functions must be *bit-for-bit* identical to
//! the allocating path: `fill(0.0)`-ed reusable buffers are
//! indistinguishable from freshly zeroed allocations, and the accumulation
//! order is unchanged. These tests rebuild the original allocating
//! iteration from the public wrappers and compare entire `optimize()` runs
//! on randomized layouts, plus property-test the convolution primitives.

use ldmo_geom::{Grid, Rect};
use ldmo_ilt::{forward_multi, l2_gradient_multi, optimize, IltConfig};
use ldmo_layout::Layout;
use ldmo_litho::{
    combine_double_pattern, convolve_separable, convolve_separable_into, measure_epe,
    simulate_print, ConvScratch, KernelBank,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Random non-overlapping contact layout: contacts sit in distinct slots
/// of a 3×3 placement grid with ±12 nm jitter, so any subset is a valid
/// (overlap-free) layout.
fn random_layout(rng: &mut StdRng) -> (Layout, Vec<u8>) {
    let mut slots: Vec<(i32, i32)> = (0..9).map(|k| (k % 3, k / 3)).collect();
    slots.shuffle(rng);
    let n = rng.gen_range(2..=4usize);
    let rects: Vec<Rect> = slots[..n]
        .iter()
        .map(|&(i, j)| {
            let jx = rng.gen_range(-12..=12i32);
            let jy = rng.gen_range(-12..=12i32);
            Rect::square(70 + 120 * i + jx, 70 + 120 * j + jy, 64)
        })
        .collect();
    let layout = Layout::new(Rect::new(0, 0, 448, 448), rects);
    let assignment: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
    (layout, assignment)
}

/// The pre-workspace ILT iteration, reconstructed from public allocating
/// wrappers: forward, gradient, max-normalized descent, corridor clamp.
fn reference_optimize(
    layout: &Layout,
    assignment: &[u8],
    cfg: &IltConfig,
) -> (Vec<f64>, [Grid; 2], Grid) {
    let bank = KernelBank::paper_bank(&cfg.litho);
    let scale = cfg.litho.nm_per_px;
    let target = layout.rasterize_target(scale);
    let p0 = 0.25f32;
    let mut p: Vec<Grid> = (0u8..2)
        .map(|m| {
            layout
                .rasterize_mask(assignment, m, scale)
                .expect("assignment covers the layout")
                .map(|v| if v > 0.5 { p0 } else { -p0 })
        })
        .collect();
    let corridors: Vec<Grid> = (0u8..2)
        .map(|m| {
            layout
                .rasterize_mask_expanded(assignment, m, scale, cfg.mrc_expand_nm)
                .expect("assignment covers the layout")
        })
        .collect();
    let mut l2s = Vec::new();
    for _ in 0..cfg.max_iterations {
        let fwd = forward_multi(&p, &target, cfg.theta_m, &bank, &cfg.litho);
        let grads = l2_gradient_multi(&fwd, &target, cfg.theta_m, &bank, &cfg.litho);
        for (pi, g) in p.iter_mut().zip(&grads) {
            let max_abs = g.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            if max_abs > f32::EPSILON {
                let s = cfg.step_size / max_abs;
                for (v, &d) in pi.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *v -= s * d;
                }
            }
        }
        for (pi, c) in p.iter_mut().zip(&corridors) {
            for (v, &cv) in pi.as_mut_slice().iter_mut().zip(c.as_slice()) {
                if cv < 0.5 {
                    *v = -1.0;
                }
            }
        }
        l2s.push(fwd.l2);
    }
    let m1 = p[0].map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    let m2 = p[1].map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    let t1 = simulate_print(&m1, &bank, &cfg.litho);
    let t2 = simulate_print(&m2, &bank, &cfg.litho);
    let printed = combine_double_pattern(&t1, &t2);
    (l2s, [m1, m2], printed)
}

#[test]
fn workspace_optimize_matches_allocating_reference_on_random_layouts() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for case in 0..4 {
        let (layout, assignment) = random_layout(&mut rng);
        let cfg = IltConfig {
            max_iterations: 8,
            ..IltConfig::default()
        };
        let out = optimize(&layout, &assignment, &cfg);
        let (ref_l2s, ref_masks, ref_printed) = reference_optimize(&layout, &assignment, &cfg);

        let traj: Vec<f64> = out.trajectory.iter().map(|s| s.l2).collect();
        assert_eq!(
            traj, ref_l2s,
            "case {case}: L2 trajectory must be bit-identical"
        );
        assert_eq!(out.masks[0], ref_masks[0], "case {case}: mask 0 differs");
        assert_eq!(out.masks[1], ref_masks[1], "case {case}: mask 1 differs");
        assert_eq!(
            out.printed, ref_printed,
            "case {case}: printed image differs"
        );

        let target = layout.rasterize_target(cfg.litho.nm_per_px);
        let ref_l2 = ref_printed.l2_dist_sq(&target).expect("shapes match");
        assert_eq!(
            out.l2.to_bits(),
            ref_l2.to_bits(),
            "case {case}: final L2 differs"
        );

        let ref_epe = measure_epe(&ref_printed, layout.patterns(), &cfg.litho);
        assert_eq!(
            out.epe.violations(),
            ref_epe.violations(),
            "case {case}: EPE violation count differs"
        );
        assert_eq!(
            out.epe.max_abs_nm().to_bits(),
            ref_epe.max_abs_nm().to_bits(),
            "case {case}: max |EPE| differs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `convolve_separable_into` on dirty buffers is bit-identical to the
    /// allocating `convolve_separable`, for arbitrary inputs and odd tap
    /// counts.
    #[test]
    fn convolve_into_matches_allocating(
        vals in proptest::collection::vec(-2.0f32..2.0, 15 * 11),
        taps9 in proptest::collection::vec(0.0f32..1.0, 9),
        half in 0usize..=4,
        garbage in -100.0f32..100.0,
    ) {
        let input = Grid::from_vec(15, 11, vals);
        let taps = &taps9[..2 * half + 1];
        let expected = convolve_separable(&input, taps);
        let mut scratch = ConvScratch::new(15, 11);
        scratch.row.fill(garbage);
        scratch.tmp = Grid::filled(15, 11, garbage);
        let mut out = Grid::filled(15, 11, garbage);
        convolve_separable_into(&input, taps, &mut scratch.row, &mut scratch.tmp, &mut out);
        prop_assert_eq!(&expected, &out);
    }
}
