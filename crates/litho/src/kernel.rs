//! Coherent optical kernels — the optical model substitute.
//!
//! The paper's lithography engine uses sum-of-coherent-systems (SOCS)
//! kernels obtained from a Hopkins decomposition of the projection optics.
//! Those kernels are proprietary contest assets; we substitute analytic
//! radially-symmetric kernels that keep the exact mathematical form
//! `I = Σ w_k (M ⊗ h_k)²` — and therefore the exact gradient structure the
//! ILT engine needs.
//!
//! Two kernel shapes are provided:
//!
//! - a plain **Gaussian** (pure low-pass blur), and
//! - a **difference of Gaussians** (DoG): `h = (g_σ − a·g_σr) / (1 − a)`,
//!   normalized to unit DC gain. The subtracted wide Gaussian creates the
//!   *negative side ring* every real projection kernel has (the Airy
//!   pattern's first dark ring): a feature's coherent field turns negative
//!   at 1–3σ from its edges, so a same-mask neighbour in that band loses
//!   amplitude by destructive interference — the physical mechanism behind
//!   the paper's `nmin`/`nmax` proximity classification, and the reason
//!   decomposition (not OPC) must separate close patterns.
//!
//! Each kernel is a signed sum of separable Gaussian components, so both
//! the forward convolution and the gradient back-projection stay on the
//! fast separable path.

use crate::conv::convolve_separable_into;
use crate::workspace::ConvScratch;
use crate::LithoConfig;
use ldmo_geom::Grid;

/// One separable Gaussian component of a coherent kernel.
#[derive(Debug, PartialEq)]
struct Component {
    sigma: f64,
    amplitude: f32,
    profile: Vec<f32>, // odd-length, unit-sum
}

/// A deep copy re-materializes the expanded profile buffer, so it counts
/// as a kernel expansion — this is what makes per-candidate `KernelBank`
/// deep clones (the reload the `Arc`-shared `IltContext` bank eliminates)
/// visible in traces, not just profile sampling in `Component::new`.
impl Clone for Component {
    fn clone(&self) -> Self {
        if ldmo_obs::enabled() {
            kernel_expansion_counter().incr();
        }
        Component {
            sigma: self.sigma,
            amplitude: self.amplitude,
            profile: self.profile.clone(),
        }
    }
}

/// Telemetry: one count per sampled 1-D kernel profile. Expansion is a
/// setup-time cost the flow is supposed to amortize via `IltContext`; this
/// counter makes accidental re-expansion in a loop visible in traces.
fn kernel_expansion_counter() -> ldmo_obs::Counter {
    static COUNTER: std::sync::OnceLock<ldmo_obs::Counter> = std::sync::OnceLock::new();
    *COUNTER.get_or_init(|| ldmo_obs::counter("litho.kernel_expansions"))
}

impl Component {
    fn new(sigma: f64, amplitude: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        if ldmo_obs::enabled() {
            kernel_expansion_counter().incr();
        }
        let radius = (3.0 * sigma).ceil() as i64;
        let mut profile: Vec<f32> = (-radius..=radius)
            .map(|i| (-((i * i) as f64) / (2.0 * sigma * sigma)).exp() as f32)
            .collect();
        let sum: f32 = profile.iter().sum();
        for p in &mut profile {
            *p /= sum;
        }
        Component {
            sigma,
            amplitude: amplitude as f32,
            profile,
        }
    }
}

/// A radially symmetric coherent kernel: a signed sum of separable
/// Gaussians with an intensity weight `w_k`.
#[derive(Debug, Clone, PartialEq)]
pub struct CoherentKernel {
    components: Vec<Component>,
    weight: f64,
}

impl CoherentKernel {
    /// A plain Gaussian kernel with standard deviation `sigma` (pixels) and
    /// intensity weight `weight`, truncated at `3σ`, unit DC gain.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0` or `weight < 0`.
    pub fn gaussian(sigma: f64, weight: f64) -> Self {
        assert!(weight >= 0.0, "weight must be non-negative");
        CoherentKernel {
            components: vec![Component::new(sigma, 1.0)],
            weight,
        }
    }

    /// A difference-of-Gaussians kernel `h = (g_σ − a·g_σr)/(1 − a)` with
    /// main lobe `sigma`, ring width `ring_sigma` and ring amplitude
    /// `ring_amplitude = a ∈ [0, 1)` (pixels). Unit DC gain, so the
    /// straight-edge calibration of the bank is unchanged.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= a < 1`, `0 < sigma < ring_sigma`, `weight >= 0`.
    pub fn difference_of_gaussians(
        sigma: f64,
        ring_sigma: f64,
        ring_amplitude: f64,
        weight: f64,
    ) -> Self {
        assert!(weight >= 0.0, "weight must be non-negative");
        assert!(
            (0.0..1.0).contains(&ring_amplitude),
            "ring amplitude must be in [0, 1)"
        );
        assert!(
            sigma > 0.0 && ring_sigma > sigma,
            "ring sigma must exceed the main-lobe sigma"
        );
        if ring_amplitude == 0.0 {
            return CoherentKernel::gaussian(sigma, weight);
        }
        let norm = 1.0 / (1.0 - ring_amplitude);
        CoherentKernel {
            components: vec![
                Component::new(sigma, norm),
                Component::new(ring_sigma, -ring_amplitude * norm),
            ],
            weight,
        }
    }

    /// Intensity weight `w_k`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The coherent field `M ⊗ h_k` of a mask (may be negative for DoG
    /// kernels — the destructive-interference ring).
    ///
    /// Thin wrapper over [`CoherentKernel::field_into`] with a transient
    /// scratch; hot loops should hold a [`ConvScratch`] and call the
    /// `_into` variant.
    pub fn field(&self, mask: &Grid) -> Grid {
        let (w, h) = mask.shape();
        let mut scratch = ConvScratch::new(w, h);
        let mut out = Grid::zeros(w, h);
        self.field_into(mask, &mut scratch, &mut out);
        out
    }

    /// Buffer-reuse variant of [`CoherentKernel::field`]: accumulates the
    /// signed component sum into `out` (fully overwritten) using `scratch`
    /// for the separable passes. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` or `out` shapes differ from `mask`'s.
    pub fn field_into(&self, mask: &Grid, scratch: &mut ConvScratch, out: &mut Grid) {
        assert_eq!(mask.shape(), out.shape(), "output shape mismatch");
        // first component writes, the rest accumulate: skips a full-grid
        // zero-fill per call on the single-component (plain Gaussian) case
        for (i, c) in self.components.iter().enumerate() {
            convolve_separable_into(
                mask,
                &c.profile,
                &mut scratch.row,
                &mut scratch.tmp,
                &mut scratch.part,
            );
            let a = out.as_mut_slice();
            if i == 0 {
                for (v, &p) in a.iter_mut().zip(scratch.part.as_slice()) {
                    *v = c.amplitude * p;
                }
            } else {
                for (v, &p) in a.iter_mut().zip(scratch.part.as_slice()) {
                    *v += c.amplitude * p;
                }
            }
        }
    }

    /// The separable Gaussian components as `(amplitude, profile)` pairs:
    /// each profile is centered, odd-length and unit-sum. This is the raw
    /// material for external convolution implementations (benchmark
    /// baselines, accelerator ports) that must match the built-in passes
    /// exactly.
    pub fn components(&self) -> impl Iterator<Item = (f32, &[f32])> {
        self.components
            .iter()
            .map(|c| (c.amplitude, c.profile.as_slice()))
    }

    /// Dense 2-D realization of the kernel (sum of outer products), for the
    /// direct convolution oracle ([`crate::convolve2d_direct`]) and its
    /// bench rows. Returns the buffer and its (odd) side length.
    pub fn to_dense(&self) -> (Vec<f32>, usize) {
        let k = self
            .components
            .iter()
            .map(|c| c.profile.len())
            .max()
            .expect("at least one component");
        let mut dense = vec![0.0f32; k * k];
        for c in &self.components {
            let off = (k - c.profile.len()) / 2;
            for y in 0..c.profile.len() {
                for x in 0..c.profile.len() {
                    dense[(y + off) * k + (x + off)] += c.amplitude * c.profile[y] * c.profile[x];
                }
            }
        }
        (dense, k)
    }

    /// Half-extent of the kernel support in pixels.
    pub fn radius(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.profile.len() / 2)
            .max()
            .unwrap_or(0)
    }
}

/// The kernel bank defining the optical system: `I = Σ_k w_k (M ⊗ h_k)²`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBank {
    kernels: Vec<CoherentKernel>,
}

impl KernelBank {
    /// Builds a bank from explicit kernels.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn new(kernels: Vec<CoherentKernel>) -> Self {
        assert!(!kernels.is_empty(), "kernel bank must not be empty");
        KernelBank { kernels }
    }

    /// The two-kernel bank used throughout the reproduction: a DoG kernel
    /// carrying most of the energy (coherent main lobe + destructive ring)
    /// plus a wide plain Gaussian modelling the partially coherent
    /// background. Calibrated so a long straight edge prints exactly at the
    /// drawn position (see [`LithoConfig::total_kernel_weight`]). Sigmas
    /// are given in nm in the config and converted to pixels here via
    /// `cfg.nm_per_px`.
    pub fn paper_bank(cfg: &LithoConfig) -> Self {
        let total = cfg.total_kernel_weight();
        let w1 = total * cfg.primary_weight_fraction;
        let w2 = total - w1;
        let px = cfg.nm_per_px;
        KernelBank::new(vec![
            CoherentKernel::difference_of_gaussians(
                cfg.sigma_primary / px,
                cfg.ring_sigma / px,
                cfg.ring_amplitude,
                w1,
            ),
            CoherentKernel::gaussian(cfg.sigma_secondary / px, w2),
        ])
    }

    /// The kernels in the bank.
    pub fn kernels(&self) -> &[CoherentKernel] {
        &self.kernels
    }

    /// Sum of the intensity weights.
    pub fn total_weight(&self) -> f64 {
        self.kernels.iter().map(CoherentKernel::weight).sum()
    }

    /// Largest kernel radius (pixels of half-extent), i.e. the optical
    /// interaction range. Patterns farther apart than twice this distance
    /// cannot influence each other's print.
    pub fn interaction_radius(&self) -> usize {
        self.kernels
            .iter()
            .map(CoherentKernel::radius)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    #[test]
    fn gaussian_profile_normalized_unit_dc() {
        let k = CoherentKernel::gaussian(5.0, 1.0);
        // DC gain 1: a uniform mask maps to field 1 in the interior
        let g = Grid::filled(64, 64, 1.0);
        let f = k.field(&g);
        assert!((f.get(32, 32) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn dog_has_unit_dc_and_negative_ring() {
        let k = CoherentKernel::difference_of_gaussians(4.0, 8.0, 0.4, 1.0);
        // interior of a large pattern: field 1 (unit DC)
        let mut mask = Grid::zeros(96, 96);
        mask.fill_rect(&Rect::new(24, 24, 72, 72), 1.0);
        let f = k.field(&mask);
        assert!(
            (f.get(48, 48) - 1.0).abs() < 1e-3,
            "center {}",
            f.get(48, 48)
        );
        // outside the pattern at ring distance: field goes negative
        let ring_sample = f.get(48, 84); // 12 px beyond the edge (= 3σ main)
        assert!(
            ring_sample < 0.0,
            "expected destructive ring, got {ring_sample}"
        );
    }

    #[test]
    fn dog_with_zero_ring_is_gaussian() {
        let a = CoherentKernel::difference_of_gaussians(4.0, 8.0, 0.0, 1.0);
        let b = CoherentKernel::gaussian(4.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn straight_edge_field_is_half_for_both_shapes() {
        // unit DC gain puts the field at 0.5 on a long straight edge,
        // which is what the 4·Ith bank calibration relies on
        for k in [
            CoherentKernel::gaussian(5.0, 1.0),
            CoherentKernel::difference_of_gaussians(5.0, 10.0, 0.4, 1.0),
        ] {
            let mut mask = Grid::zeros(128, 128);
            mask.fill_rect(&Rect::new(0, 0, 64, 128), 1.0);
            let f = k.field(&mask);
            // the drawn edge lies between pixel centers 63 and 64:
            // average the two samples straddling it
            let edge = 0.5 * (f.get(63, 64) + f.get(64, 64));
            assert!((edge - 0.5).abs() < 0.02, "edge field {edge}");
        }
    }

    #[test]
    fn paper_bank_calibration() {
        let cfg = LithoConfig::default();
        let bank = KernelBank::paper_bank(&cfg);
        assert_eq!(bank.kernels().len(), 2);
        assert!((bank.total_weight() - 4.0 * f64::from(cfg.intensity_threshold)).abs() < 1e-9);
        assert!(bank.interaction_radius() >= 49);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sigma_rejected() {
        let _ = CoherentKernel::gaussian(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "ring sigma must exceed")]
    fn inverted_dog_rejected() {
        let _ = CoherentKernel::difference_of_gaussians(8.0, 4.0, 0.3, 1.0);
    }

    #[test]
    fn dense_realization_matches_field() {
        for k in [
            CoherentKernel::gaussian(2.0, 1.0),
            CoherentKernel::difference_of_gaussians(2.0, 4.0, 0.35, 1.0),
        ] {
            let (dense, kw) = k.to_dense();
            let mut g = Grid::zeros(kw + 8, kw + 8);
            g.set(kw / 2 + 4, kw / 2 + 4, 1.0);
            let a = k.field(&g);
            let b = crate::convolve2d_direct(&g, &dense, kw, kw);
            for i in 0..a.as_slice().len() {
                assert!(
                    (a.as_slice()[i] - b.as_slice()[i]).abs() < 1e-5,
                    "mismatch at {i}"
                );
            }
        }
    }

    #[test]
    fn every_profile_is_a_palindrome() {
        // the ILT gradient back-projects through `field_into`: a correlation
        // with h_k equals the convolution only because each profile equals
        // its own flip
        let bank = KernelBank::paper_bank(&LithoConfig::default());
        let dog = CoherentKernel::difference_of_gaussians(3.0, 6.0, 0.4, 1.0);
        for kernel in bank.kernels().iter().chain([&dog]) {
            for (_, profile) in kernel.components() {
                assert!(
                    profile.iter().eq(profile.iter().rev()),
                    "asymmetric profile {profile:?}"
                );
            }
        }
    }
}
