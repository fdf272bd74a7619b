#![warn(missing_docs)]
//! # ldmo-litho — lithography simulation substrate
//!
//! A from-scratch substitute for the production lithography engine the DAC'20
//! paper relies on. The model follows the sum-of-coherent-systems structure
//! used by inverse lithography technology (ILT):
//!
//! 1. **Optics** — the aerial intensity of a mask `M` is
//!    `I(x, y) = Σ_k w_k (M ⊗ h_k)²(x, y)` where `h_k` are radially symmetric
//!    Gaussian coherent kernels ([`KernelBank`]). Gaussians reproduce the
//!    low-pass behaviour of 193 nm projection optics: corner rounding,
//!    pattern bridging below the minimum spacing, and proximity interaction
//!    that decays to nothing beyond ~100 nm — exactly the effects the
//!    paper's `nmin`/`nmax` classification (Eq. 6) encodes. Every kernel is
//!    a signed sum of separable Gaussians, so the optics need one
//!    convolution, [`convolve_separable_into`]: vector passes on x86_64,
//!    scalar elsewhere, bit-identical to each other ([`backend`]).
//! 2. **Resist** — the constant-threshold sigmoid model of the paper's Eq. 2:
//!    `T_i = sigmoid(θz (I_i − I_th))` with `θz = 120`, `I_th = 0.039`.
//! 3. **Double patterning** — the printed image of two masks is
//!    `T = min(T1 + T2, 1)` (paper Eq. 3).
//!
//! Printability metrics:
//!
//! - **EPE** (paper Definition 1): edge placement error at checkpoints
//!   sampled on target edges, violation when `|EPE| > 10 nm` ([`measure_epe`]).
//! - **L2 error** (paper Definition 2): `‖T − T′‖²`, computed by the ILT
//!   engine with [`Grid::l2_dist_sq`].
//! - **Print violations**: bridged or missing patterns detected by
//!   connected-component analysis of the printed image ([`detect_violations`]).
//!
//! The kernel bank is calibrated so that a long straight edge of a large
//! pattern prints exactly on target: the total kernel weight is `4·I_th`,
//! which puts the half-amplitude point of the image slope at the threshold.
//!
//! ```
//! use ldmo_geom::{Grid, Rect};
//! use ldmo_litho::{KernelBank, LithoConfig, simulate_print};
//!
//! let cfg = LithoConfig::default();
//! let bank = KernelBank::paper_bank(&cfg);
//! let mut mask = Grid::zeros(128, 128);
//! mask.fill_rect(&Rect::new(30, 30, 100, 100), 1.0);
//! let printed = simulate_print(&mask, &bank, &cfg);
//! // the centre of a large pattern prints solid:
//! assert!(printed.get(64, 64) > 0.9);
//! // far-away background stays empty:
//! assert!(printed.get(5, 5) < 0.1);
//! ```

mod aerial;
pub mod backend;
mod components;
mod conv;
mod epe;
mod kernel;
mod resist;
mod violation;
mod workspace;

pub use aerial::{aerial_image, aerial_image_into, AerialImage};
pub use backend::BackendKind;
pub use components::{label_components, ComponentLabels};
pub use conv::{convolve2d_direct, convolve_separable, convolve_separable_into};
pub use epe::{measure_epe, EpeCheckpoint, EpeReport, EpeSite};
pub use kernel::{CoherentKernel, KernelBank};
pub use resist::{
    combine_double_pattern, combine_prints, combine_prints_into, resist_threshold,
    resist_threshold_into, sigmoid,
};
pub use violation::{detect_violations, ViolationKind, ViolationReport};
pub use workspace::{ConvScratch, GradScratch, LithoWorkspace};

use ldmo_geom::Grid;

/// Global lithography configuration: the paper's published constants plus
/// the optical calibration of our Gaussian substitute model.
#[derive(Debug, Clone, PartialEq)]
pub struct LithoConfig {
    /// Physical size of one raster pixel in nm. Layout geometry is always
    /// in nm; grids are rasterized at this scale (default 2 nm/px, which
    /// keeps a 448 nm cell window on a 224×224 grid as in the paper's
    /// 224×224 CNN input).
    pub nm_per_px: f64,
    /// Resist sigmoid steepness `θz` (paper: 120).
    pub theta_z: f32,
    /// Constant resist threshold `I_th` (paper: 0.039).
    pub intensity_threshold: f32,
    /// Primary coherent-kernel main-lobe sigma in nm.
    pub sigma_primary: f64,
    /// Width (sigma, nm) of the primary kernel's negative interference
    /// ring — the subtracted Gaussian of the DoG shape.
    pub ring_sigma: f64,
    /// Amplitude `a ∈ [0, 1)` of the negative ring. `0` degrades the
    /// primary kernel to a plain Gaussian (no coherent interference).
    pub ring_amplitude: f64,
    /// Secondary (wider, partially coherent background) kernel sigma in nm.
    pub sigma_secondary: f64,
    /// Fraction of the total kernel energy carried by the primary kernel.
    pub primary_weight_fraction: f64,
    /// EPE violation threshold in nm (paper: 10 nm).
    pub epe_threshold_nm: f64,
    /// Spacing between EPE checkpoints along an edge, in nm.
    pub epe_sample_step_nm: i32,
    /// Corner exclusion zone for EPE checkpoints, in nm: EPE is ill-defined
    /// at corners (every optical system rounds them), so checkpoints keep
    /// this margin from edge endpoints, as in production OPC recipes.
    pub epe_corner_margin_nm: i32,
    /// Resist binarization level for EPE edges and printed components (0.5).
    pub print_level: f32,
}

impl LithoConfig {
    /// Total kernel weight that calibrates straight edges to print on
    /// target: an infinite edge produces a field of `0.5`, so intensity
    /// `W · 0.25` must equal the threshold, i.e. `W = 4 · I_th`.
    pub fn total_kernel_weight(&self) -> f64 {
        4.0 * f64::from(self.intensity_threshold)
    }
}

impl Default for LithoConfig {
    fn default() -> Self {
        LithoConfig {
            nm_per_px: 2.0,
            theta_z: 120.0,
            intensity_threshold: 0.039,
            sigma_primary: 48.0,
            ring_sigma: 96.0,
            ring_amplitude: 0.0,
            sigma_secondary: 90.0,
            primary_weight_fraction: 0.85,
            epe_threshold_nm: 10.0,
            epe_sample_step_nm: 10,
            epe_corner_margin_nm: 14,
            print_level: 0.5,
        }
    }
}

/// Runs the full forward model for a single mask: aerial image then resist.
///
/// Returns the resist image `T` with values in `(0, 1)`.
pub fn simulate_print(mask: &Grid, bank: &KernelBank, cfg: &LithoConfig) -> Grid {
    let aerial = aerial_image(mask, bank);
    resist_threshold(&aerial.intensity, cfg)
}

/// Runs the forward model for a double-patterning mask pair and combines the
/// two prints per the paper's Eq. 3.
pub fn simulate_print_pair(
    mask1: &Grid,
    mask2: &Grid,
    bank: &KernelBank,
    cfg: &LithoConfig,
) -> Grid {
    let t1 = simulate_print(mask1, bank, cfg);
    let t2 = simulate_print(mask2, bank, cfg);
    combine_double_pattern(&t1, &t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    #[test]
    fn straight_edge_prints_on_target() {
        // A huge pattern filling the left half: its vertical edge must print
        // within ~1 px of the drawn position thanks to the 4*Ith calibration.
        let cfg = LithoConfig::default();
        let bank = KernelBank::paper_bank(&cfg);
        let mut mask = Grid::zeros(192, 192);
        mask.fill_rect(&Rect::new(0, 0, 96, 192), 1.0);
        let t = simulate_print(&mask, &bank, &cfg);
        // find the 0.5 crossing along the middle row
        let y = 96;
        let mut crossing = None;
        for x in 1..192 {
            let (a, b) = (t.get(x - 1, y), t.get(x, y));
            if a >= 0.5 && b < 0.5 {
                crossing = Some(x as f64 - (0.5 - f64::from(b)) / f64::from(a - b));
            }
        }
        let c = crossing.expect("edge must cross 0.5");
        assert!((c - 96.0).abs() < 1.5, "edge printed at {c}, expected 96");
    }

    #[test]
    fn isolated_small_contact_underprints() {
        // Small contacts receive less dose than large pads: the printed area
        // is smaller than drawn. This is the proximity effect ILT corrects.
        let cfg = LithoConfig::default();
        let bank = KernelBank::paper_bank(&cfg);
        let mut mask = Grid::zeros(128, 128);
        let contact = Rect::centered(64, 64, 30, 30);
        mask.fill_rect(&contact, 1.0);
        let t = simulate_print(&mask, &bank, &cfg);
        let printed_area = t.count_above(0.5) as i64;
        assert!(
            printed_area < contact.area(),
            "printed {printed_area} px vs drawn {}",
            contact.area()
        );
    }

    #[test]
    fn close_patterns_bridge_on_one_mask() {
        // Two contacts at 20 nm spacing on the SAME mask merge in print —
        // the reason the decomposition step exists at all.
        let cfg = LithoConfig::default();
        let bank = KernelBank::paper_bank(&cfg);
        let mut mask = Grid::zeros(180, 180);
        mask.fill_rect(&Rect::new(40, 20, 80, 160), 1.0);
        mask.fill_rect(&Rect::new(100, 20, 140, 160), 1.0);
        let t = simulate_print(&mask, &bank, &cfg);
        // the gap midpoint (x=90) prints when bars are 20 px (40 nm) apart
        assert!(
            t.get(90, 90) > 0.5,
            "gap intensity should bridge, got {}",
            t.get(90, 90)
        );
    }

    #[test]
    fn separated_masks_do_not_bridge() {
        // The same two contacts split across two masks print cleanly.
        let cfg = LithoConfig::default();
        let bank = KernelBank::paper_bank(&cfg);
        let mut m1 = Grid::zeros(180, 180);
        let mut m2 = Grid::zeros(180, 180);
        m1.fill_rect(&Rect::new(40, 20, 80, 160), 1.0);
        m2.fill_rect(&Rect::new(100, 20, 140, 160), 1.0);
        let t = simulate_print_pair(&m1, &m2, &bank, &cfg);
        assert!(
            t.get(90, 90) < 0.5,
            "split patterns must not bridge, got {}",
            t.get(90, 90)
        );
        // but both bars still print
        assert!(t.get(60, 90) > 0.5);
        assert!(t.get(120, 90) > 0.5);
    }
}
