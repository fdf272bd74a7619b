//! Forward pass and analytic gradient of the multiple-patterning L2
//! objective.
//!
//! With `M_i = sigmoid(θm P_i)` (Eq. 1), `I_i = Σ_k w_k (M_i ⊗ h_k)²`,
//! `T_i = sigmoid(θz (I_i − I_th))` (Eq. 2) and `T = min(Σ_i T_i, 1)`
//! (Eq. 3; `T1 + T2` for double patterning), the gradient of
//! `L = ‖T − T′‖²` with respect to `P_i` is
//!
//! ```text
//! ∂L/∂T   = 2 (T − T′)                      (zero where Σ T_i ≥ 1, the
//!                                            flat branch of the min)
//! ∂T/∂I_i = θz T_i (1 − T_i)
//! ∂I_i/∂M_i = Σ_k 2 w_k  (G ⊙ (M_i ⊗ h_k)) ⊗ h_k    (h_k symmetric)
//! ∂M_i/∂P_i = θm M_i (1 − M_i)
//! ```
//!
//! All products `⊙` are element-wise; the back-convolution uses the same
//! separable fast path as the forward pass.

use ldmo_geom::Grid;
use ldmo_litho::{
    aerial_image_into, combine_prints_into, resist_threshold_into, sigmoid, AerialImage,
    ConvScratch, GradScratch, KernelBank, LithoConfig, LithoWorkspace,
};

/// Forward-pass artifacts for a set of masks (two for the paper's double
/// patterning, any count in general), reused by the gradient.
#[derive(Debug, Clone)]
pub struct PairForward {
    /// Relaxed masks `M_i = sigmoid(θm P_i)`.
    pub masks: Vec<Grid>,
    /// Aerial images with per-kernel fields.
    pub aerials: Vec<AerialImage>,
    /// Per-mask resist images `T_i`.
    pub resists: Vec<Grid>,
    /// Combined print `T = min(Σ T_i, 1)`.
    pub printed: Grid,
    /// Objective value `‖T − T′‖²`.
    pub l2: f64,
}

impl PairForward {
    /// Preallocates the forward-pass buffers for `num_masks` masks on
    /// `width × height` grids under a bank of `num_kernels` kernels, for
    /// use with [`forward_multi_into`].
    pub fn zeros(width: usize, height: usize, num_masks: usize, num_kernels: usize) -> Self {
        PairForward {
            masks: (0..num_masks).map(|_| Grid::zeros(width, height)).collect(),
            aerials: (0..num_masks)
                .map(|_| AerialImage::zeros(width, height, num_kernels))
                .collect(),
            resists: (0..num_masks).map(|_| Grid::zeros(width, height)).collect(),
            printed: Grid::zeros(width, height),
            l2: f64::NAN,
        }
    }
}

/// The fixed inputs of every per-mask pass: the Eq. 1 steepness, the
/// kernel bank and the resist model.
#[derive(Clone, Copy)]
pub(crate) struct Optics<'a> {
    pub(crate) theta_m: f32,
    pub(crate) bank: &'a KernelBank,
    pub(crate) litho: &'a LithoConfig,
}

/// The scratch one mask's back-projection writes: a [`LithoWorkspace`]
/// without its `∂L/∂T`, which every mask reads.
pub(crate) struct GradLane<'a> {
    conv: &'a mut ConvScratch,
    g_int: &'a mut Grid,
    weighted: &'a mut Grid,
    back: &'a mut Grid,
}

impl<'a> GradLane<'a> {
    /// Splits `ws` into its `∂L/∂T` grid and the per-mask rest.
    pub(crate) fn split(ws: &'a mut LithoWorkspace) -> (&'a mut Grid, GradLane<'a>) {
        let LithoWorkspace {
            conv,
            grad:
                GradScratch {
                    dl_dt,
                    g_int,
                    weighted,
                    back,
                },
        } = ws;
        let lane = GradLane {
            conv,
            g_int,
            weighted,
            back,
        };
        (dl_dt, lane)
    }
}

/// Runs the forward model for any number of mask parameter fields.
///
/// Thin wrapper over [`forward_multi_into`] with transient buffers; hot
/// loops should hold a [`PairForward`] and a [`LithoWorkspace`] and call
/// the `_into` variant.
///
/// # Panics
///
/// Panics if `ps` is empty.
pub fn forward_multi(
    ps: &[Grid],
    target: &Grid,
    theta_m: f32,
    bank: &KernelBank,
    litho: &LithoConfig,
) -> PairForward {
    assert!(!ps.is_empty(), "need at least one mask");
    let (w, h) = ps[0].shape();
    let mut ws = LithoWorkspace::new(w, h);
    let mut out = PairForward::zeros(w, h, ps.len(), bank.kernels().len());
    forward_multi_into(ps, target, theta_m, bank, litho, &mut ws, &mut out);
    out
}

/// Buffer-reuse variant of [`forward_multi`]: every artifact is written
/// into `out` (fully overwritten). Allocation-free. The masks run one
/// after another on `ws`; a session with lanes runs the same per-mask
/// pass as one job per mask instead.
///
/// # Panics
///
/// Panics if `ps` is empty or `out`/`ws` were not allocated for this mask
/// count, kernel count and grid shape.
pub fn forward_multi_into(
    ps: &[Grid],
    target: &Grid,
    theta_m: f32,
    bank: &KernelBank,
    litho: &LithoConfig,
    ws: &mut LithoWorkspace,
    out: &mut PairForward,
) {
    assert!(!ps.is_empty(), "need at least one mask");
    assert_eq!(
        out.masks.len(),
        ps.len(),
        "forward buffer mask count mismatch"
    );
    let optics = Optics {
        theta_m,
        bank,
        litho,
    };
    let PairForward {
        masks,
        aerials,
        resists,
        ..
    } = out;
    for (((p, mask), aerial), resist) in ps.iter().zip(masks).zip(aerials).zip(resists) {
        forward_one_into(optics, p, &mut ws.conv, mask, aerial, resist);
    }
    combine_into(out, target);
}

/// One mask's forward pass: `M_i = sigmoid(θm P_i)` (Eq. 1), its aerial
/// image, and the resist image `T_i` (Eq. 2), each fully overwritten.
pub(crate) fn forward_one_into(
    optics: Optics<'_>,
    p: &Grid,
    conv: &mut ConvScratch,
    mask: &mut Grid,
    aerial: &mut AerialImage,
    resist: &mut Grid,
) {
    mask.map_from(p, |v| sigmoid(optics.theta_m * v));
    aerial_image_into(mask, optics.bank, conv, aerial);
    resist_threshold_into(&aerial.intensity, optics.litho, resist);
}

/// The forward pass's shared terms, from every mask's `T_i`: the combined
/// print `T = min(Σ T_i, 1)` (Eq. 3) and its L2 against `target`.
pub(crate) fn combine_into(fwd: &mut PairForward, target: &Grid) {
    combine_prints_into(&fwd.resists, &mut fwd.printed);
    fwd.l2 = fwd.printed.l2_dist_sq(target).expect("shapes match");
}

/// Computes `∂L/∂P_i` for every mask of a forward pass.
///
/// Thin wrapper over [`l2_gradient_multi_into`] with transient buffers.
pub fn l2_gradient_multi(
    fwd: &PairForward,
    target: &Grid,
    theta_m: f32,
    bank: &KernelBank,
    litho: &LithoConfig,
) -> Vec<Grid> {
    let (w, h) = fwd.printed.shape();
    let mut ws = LithoWorkspace::new(w, h);
    let mut grads: Vec<Grid> = (0..fwd.masks.len()).map(|_| Grid::zeros(w, h)).collect();
    l2_gradient_multi_into(fwd, target, theta_m, bank, litho, &mut ws, &mut grads);
    grads
}

/// Buffer-reuse variant of [`l2_gradient_multi`]: the per-mask gradients
/// are written into `grads` (fully overwritten). Allocation-free. The
/// masks run one after another on `ws`.
///
/// # Panics
///
/// Panics if `grads.len() != fwd.masks.len()` or shapes differ.
pub fn l2_gradient_multi_into(
    fwd: &PairForward,
    target: &Grid,
    theta_m: f32,
    bank: &KernelBank,
    litho: &LithoConfig,
    ws: &mut LithoWorkspace,
    grads: &mut [Grid],
) {
    assert_eq!(
        grads.len(),
        fwd.masks.len(),
        "gradient buffer mask count mismatch"
    );
    let optics = Optics {
        theta_m,
        bank,
        litho,
    };
    let (dl_dt, mut lane) = GradLane::split(ws);
    gated_dl_dt_into(fwd, target, dl_dt);
    for (idx, out) in grads.iter_mut().enumerate() {
        grad_one_mask_into(optics, fwd, idx, dl_dt, &mut lane, out);
    }
}

/// `∂L/∂T = 2 (T − T′)`, gated by the min branch of Eq. 3: zero where
/// `Σ T_i ≥ 1`. The one gradient term every mask shares.
pub(crate) fn gated_dl_dt_into(fwd: &PairForward, target: &Grid, dl_dt: &mut Grid) {
    let t = fwd.printed.as_slice();
    let tp = target.as_slice();
    let out = dl_dt.as_mut_slice();
    assert_eq!(t.len(), out.len(), "output shape mismatch");
    for i in 0..out.len() {
        let sum: f32 = fwd.resists.iter().map(|r| r.as_slice()[i]).sum();
        let gate = if sum < 1.0 { 1.0 } else { 0.0 };
        out[i] = 2.0 * (t[i] - tp[i]) * gate;
    }
}

/// One mask's gradient `∂L/∂P_idx` from the shared `dl_dt`, on `lane`'s
/// scratch; overwrites `out`.
pub(crate) fn grad_one_mask_into(
    optics: Optics<'_>,
    fwd: &PairForward,
    idx: usize,
    dl_dt: &Grid,
    lane: &mut GradLane<'_>,
    out: &mut Grid,
) {
    assert_eq!(out.shape(), dl_dt.shape(), "output shape mismatch");
    // G = ∂L/∂I_i = dl_dt ⊙ θz T_i (1 − T_i)
    {
        let t = fwd.resists[idx].as_slice();
        let d = dl_dt.as_slice();
        let g = lane.g_int.as_mut_slice();
        let theta_z = optics.litho.theta_z;
        for i in 0..g.len() {
            g[i] = d[i] * theta_z * t[i] * (1.0 - t[i]);
        }
    }
    // ∂L/∂M_i = Σ_k 2 w_k (G ⊙ field_k) ⊗ h_k
    out.fill(0.0);
    for (k, kernel) in optics.bank.kernels().iter().enumerate() {
        let field = &fwd.aerials[idx].fields[k];
        lane.weighted.zip_from(lane.g_int, field, |g, f| g * f);
        // back-projection is a correlation with h_k; every profile is a
        // palindrome, so it equals the convolution `field_into` computes
        kernel.field_into(lane.weighted, lane.conv, lane.back);
        let wk = 2.0 * kernel.weight() as f32;
        let acc = out.as_mut_slice();
        for (a, &b) in acc.iter_mut().zip(lane.back.as_slice()) {
            *a += wk * b;
        }
    }
    // chain through Eq. 1: ∂M/∂P = θm M (1 − M)
    let m = fwd.masks[idx].as_slice();
    let s = out.as_mut_slice();
    for i in 0..s.len() {
        s[i] *= optics.theta_m * m[i] * (1.0 - m[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;
    use ldmo_litho::CoherentKernel;

    fn tiny_setup() -> (KernelBank, LithoConfig, Grid) {
        // a small, fast optical system for gradient checking
        let litho = LithoConfig {
            nm_per_px: 1.0,
            sigma_primary: 3.0,
            sigma_secondary: 6.0,
            ..LithoConfig::default()
        };
        let bank = KernelBank::new(vec![
            CoherentKernel::difference_of_gaussians(
                3.0,
                6.0,
                0.3,
                0.8 * litho.total_kernel_weight(),
            ),
            CoherentKernel::gaussian(6.0, 0.2 * litho.total_kernel_weight()),
        ]);
        let mut target = Grid::zeros(32, 32);
        target.fill_rect(&Rect::new(10, 10, 22, 22), 1.0);
        (bank, litho, target)
    }

    #[test]
    fn forward_produces_bounded_print() {
        let (bank, litho, target) = tiny_setup();
        let ps = [
            target.map(|v| if v > 0.5 { 0.5 } else { -0.5 }),
            Grid::filled(32, 32, -0.5),
        ];
        let fwd = forward_multi(&ps, &target, 8.0, &bank, &litho);
        assert!(fwd.printed.min() >= 0.0 && fwd.printed.max() <= 1.0);
        assert!(fwd.l2 > 0.0);
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let (bank, litho, target) = tiny_setup();
        let ps = [
            target.map(|v| if v > 0.5 { 0.4 } else { -0.4 }),
            Grid::filled(32, 32, -0.4),
        ];
        let fwd = forward_multi(&ps, &target, 8.0, &bank, &litho);
        let grads = l2_gradient_multi(&fwd, &target, 8.0, &bank, &litho);
        let eps = 5e-3f32;
        // probe a few pixels on each mask, including edge-adjacent ones
        for &(x, y) in &[(10usize, 10usize), (16, 16), (22, 10), (5, 5), (16, 9)] {
            for (pi, g) in grads.iter().enumerate() {
                // central difference to cancel the quadratic term
                let mut pa = ps.clone();
                pa[pi].set(x, y, ps[pi].get(x, y) + eps);
                let mut pb = ps.clone();
                pb[pi].set(x, y, ps[pi].get(x, y) - eps);
                let la = forward_multi(&pa, &target, 8.0, &bank, &litho).l2;
                let lb = forward_multi(&pb, &target, 8.0, &bank, &litho).l2;
                let numeric = ((la - lb) / (2.0 * f64::from(eps))) as f32;
                let analytic = g.get(x, y);
                let denom = numeric.abs().max(analytic.abs()).max(0.05);
                assert!(
                    (numeric - analytic).abs() / denom < 0.15,
                    "mask {pi} at ({x},{y}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn gradient_vanishes_for_closed_masks_on_empty_target() {
        let (bank, litho, _) = tiny_setup();
        let target = Grid::zeros(32, 32);
        let p = Grid::filled(32, 32, -5.0); // masks fully closed
        let fwd = forward_multi(&[p.clone(), p], &target, 8.0, &bank, &litho);
        // the resist sigmoid never reaches exactly 0, so a small residual
        // L2 remains (sigmoid(-θz·Ith)² per pixel)…
        assert!(fwd.l2 < 0.5, "residual L2 {}", fwd.l2);
        // …but the gradient is dead: the coherent fields are ~0, and the
        // mask sigmoid is saturated
        let g1 = &l2_gradient_multi(&fwd, &target, 8.0, &bank, &litho)[0];
        assert!(g1.max().abs() < 1e-6 && g1.min().abs() < 1e-6);
    }

    #[test]
    fn min_gate_blocks_gradient_in_saturated_regions() {
        let (bank, litho, _) = tiny_setup();
        // both masks wide open on a large grid: T1 + T2 >= 1 in the deep
        // interior, so the min gate must zero the gradient there; the probe
        // pixel is farther from the border than the largest kernel radius
        // (18 px), so no boundary gradient can back-propagate into it.
        let target = Grid::zeros(64, 64);
        let p = Grid::filled(64, 64, 2.0);
        let fwd = forward_multi(&[p.clone(), p], &target, 8.0, &bank, &litho);
        assert!(fwd.resists[0].get(32, 32) + fwd.resists[1].get(32, 32) >= 1.0);
        let g1 = &l2_gradient_multi(&fwd, &target, 8.0, &bank, &litho)[0];
        assert_eq!(g1.get(32, 32), 0.0);
    }
}
