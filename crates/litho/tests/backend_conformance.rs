//! Differential conformance suite for [`ldmo_litho::backend::registry`]
//! (DESIGN.md §13): every registered backend is run against the scalar
//! reference on structured fixtures (impulse, straight edge, dense
//! contacts) and proptest-random grids, and must agree within its declared
//! [`LithoBackend::max_ulps`] — 0 for every in-tree backend, so the
//! assertions below are bit-for-bit. Property tests (linearity,
//! translation equivariance, kernel symmetry) then pin the *analytic*
//! contract of the separable pass itself, on every backend.

use ldmo_geom::{Grid, Rect};
use ldmo_litho::backend::{self, registry, BackendKind, LithoBackend};
use ldmo_litho::{simulate_print, KernelBank, LithoConfig};
use proptest::prelude::*;

/// Small odd profiles exercising symmetric, asymmetric, negative-lobe and
/// single-tap cases (the bank's own profiles are all odd-length).
fn test_profiles() -> Vec<Vec<f32>> {
    let mut profiles = vec![
        vec![1.0],
        vec![0.25, 0.5, 0.25],
        vec![0.1, 0.2, 0.4, 0.2, 0.1],
        vec![0.05, -0.15, 0.3, 0.55, 0.2, -0.1, 0.05],
    ];
    // a real optical profile from the paper bank's kernels
    let bank = KernelBank::paper_bank(&LithoConfig::default());
    let kernel = &bank.kernels()[0];
    let (_, profile) = kernel
        .components()
        .next()
        .expect("bank kernels have components");
    profiles.push(profile.to_vec());
    profiles
}

fn impulse(w: usize, h: usize) -> Grid {
    let mut g = Grid::zeros(w, h);
    g.set(w / 2, h / 2, 1.0);
    g
}

fn straight_edge(w: usize, h: usize) -> Grid {
    let mut g = Grid::zeros(w, h);
    let half = w.div_ceil(2);
    let s = g.as_mut_slice();
    for y in 0..h {
        for x in 0..half {
            s[y * w + x] = 1.0;
        }
    }
    g
}

fn dense_contacts(w: usize, h: usize) -> Grid {
    let mut g = Grid::zeros(w, h);
    let mut y = 1i32;
    while (y as usize) + 2 < h {
        let mut x = 1i32;
        while (x as usize) + 2 < w {
            g.fill_rect(&Rect::new(x, y, x + 2, y + 2), 1.0);
            x += 5;
        }
        y += 5;
    }
    g
}

fn run_backend(b: &dyn LithoBackend, input: &Grid, profile: &[f32]) -> Grid {
    let (w, h) = input.shape();
    let mut tmp = Grid::zeros(w, h);
    let mut out = Grid::zeros(w, h);
    b.convolve_separable_into(input, profile, &mut tmp, &mut out);
    out
}

/// Monotonic integer key: adjacent representable floats differ by 1.
/// `-0.0` and `+0.0` share key 0.
fn ulp_key(x: f32) -> i64 {
    let b = i64::from(x.to_bits() as i32);
    if b < 0 {
        i64::from(i32::MIN) - b
    } else {
        b
    }
}

fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    (ulp_key(a) - ulp_key(b)).unsigned_abs()
}

/// Runs `input ⊗ profile` on every registered backend and asserts each
/// agrees with the scalar reference within its declared ULP budget.
fn assert_conforms(input: &Grid, profile: &[f32], ctx: &str) {
    let all = registry();
    let reference = run_backend(all[0], input, profile);
    assert_eq!(all[0].name(), "scalar", "registry must lead with scalar");
    for backend in &all[1..] {
        let got = run_backend(*backend, input, profile);
        for (i, (g, r)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
            let ulps = ulp_distance(*g, *r);
            assert!(
                ulps <= u64::from(backend.max_ulps()),
                "{ctx}: backend '{}' diverges from scalar at index {i}: \
                 {g:e} vs {r:e} ({ulps} ulps, budget {})",
                backend.name(),
                backend.max_ulps(),
            );
        }
    }
}

/// Grid shapes covering even, odd, mixed-parity, non-square, tile-remainder
/// (not multiples of the 32-wide register block) and degenerate 1×N / N×1.
const SHAPES: [(usize, usize); 8] = [
    (64, 64),
    (33, 47),
    (31, 31),
    (40, 9),
    (1, 64),
    (64, 1),
    (1, 1),
    (3, 3),
];

#[test]
fn impulse_conforms_on_all_backends() {
    for &(w, h) in &SHAPES {
        for profile in test_profiles() {
            assert_conforms(&impulse(w, h), &profile, &format!("impulse {w}x{h}"));
        }
    }
}

#[test]
fn straight_edge_conforms_on_all_backends() {
    for &(w, h) in &SHAPES {
        for profile in test_profiles() {
            assert_conforms(
                &straight_edge(w, h),
                &profile,
                &format!("straight edge {w}x{h}"),
            );
        }
    }
}

#[test]
fn dense_contacts_conform_on_all_backends() {
    for &(w, h) in &[(64usize, 64usize), (33, 47), (96, 40)] {
        for profile in test_profiles() {
            assert_conforms(
                &dense_contacts(w, h),
                &profile,
                &format!("dense contacts {w}x{h}"),
            );
        }
    }
}

#[test]
fn full_print_is_bit_identical_across_backends() {
    // end-to-end: the entire forward model (kernel bank + resist), not
    // just one pass, agrees bitwise whichever backend the process selects
    let cfg = LithoConfig::default();
    let bank = KernelBank::paper_bank(&cfg);
    let mask = dense_contacts(96, 96);
    let prev = backend::backend_kind();
    let prints: Vec<Grid> = [BackendKind::Scalar, BackendKind::Simd]
        .into_iter()
        .map(|kind| {
            backend::set_backend(kind);
            simulate_print(&mask, &bank, &cfg)
        })
        .collect();
    backend::set_backend(prev);
    assert_eq!(
        prints[0].as_slice(),
        prints[1].as_slice(),
        "simd print diverged from scalar print"
    );
}

// ---------------------------------------------------------------------------
// Analytic properties, asserted per backend.
// ---------------------------------------------------------------------------

#[test]
fn linearity_holds_on_all_backends() {
    // conv(a·x + b·y) == a·conv(x) + b·conv(y), up to f32 rounding
    let (w, h) = (48usize, 37usize);
    let x = dense_contacts(w, h);
    let y = straight_edge(w, h);
    let (a, b) = (0.75f32, -0.5f32);
    let combined = x
        .zip_map(&y, |xv, yv| a * xv + b * yv)
        .expect("shapes match");
    for profile in test_profiles() {
        for backend in registry() {
            let conv_combined = run_backend(*backend, &combined, &profile);
            let conv_x = run_backend(*backend, &x, &profile);
            let conv_y = run_backend(*backend, &y, &profile);
            for i in 0..w * h {
                let want = a * conv_x.as_slice()[i] + b * conv_y.as_slice()[i];
                let got = conv_combined.as_slice()[i];
                assert!(
                    (got - want).abs() < 1e-4,
                    "backend '{}' not linear at {i}: {got} vs {want}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn translation_equivariance_holds_on_all_backends() {
    // shifting an interior impulse shifts the response bit-exactly, as
    // long as neither support touches a boundary
    let (w, h) = (64usize, 64usize);
    let (dx, dy) = (3usize, 2usize);
    let mut base = Grid::zeros(w, h);
    base.set(30, 30, 1.0);
    let mut shifted = Grid::zeros(w, h);
    shifted.set(30 + dx, 30 + dy, 1.0);
    for profile in test_profiles() {
        let r = profile.len() / 2;
        let margin = r + 1;
        // the bank's widest profile exceeds the grid: nothing to check
        // there (the small profiles cover the property)
        let y_end = (h - dy).saturating_sub(margin);
        let x_end = (w - dx).saturating_sub(margin);
        for backend in registry() {
            let out_base = run_backend(*backend, &base, &profile);
            let out_shifted = run_backend(*backend, &shifted, &profile);
            for y in margin..y_end {
                for x in margin..x_end {
                    assert_eq!(
                        out_shifted.get(x + dx, y + dy).to_bits(),
                        out_base.get(x, y).to_bits(),
                        "backend '{}' not translation-equivariant at ({x},{y})",
                        backend.name()
                    );
                }
            }
        }
    }
}

#[test]
fn symmetric_kernel_preserves_symmetry_on_all_backends() {
    // a symmetric profile applied to a centered impulse yields a response
    // symmetric about the center, bit-exactly, on every backend
    let side = 33usize; // odd: exact center pixel
    let c = side / 2;
    let input = impulse(side, side);
    let profile = [0.05f32, 0.2, 0.5, 0.2, 0.05];
    let r = profile.len() / 2;
    for backend in registry() {
        let out = run_backend(*backend, &input, &profile);
        for dy in 0..=r {
            for dx in 0..=r {
                let a = out.get(c + dx, c + dy);
                for (x, y) in [(c - dx, c + dy), (c + dx, c - dy), (c - dx, c - dy)] {
                    assert_eq!(
                        a.to_bits(),
                        out.get(x, y).to_bits(),
                        "backend '{}' broke symmetry at offset ({dx},{dy})",
                        backend.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_grids_conform_on_all_backends(
        w in 1usize..40,
        h in 1usize..40,
        vals in proptest::collection::vec(-1.0f32..1.0, 1600),
        taps in proptest::collection::vec(-0.5f32..0.5, 13),
        half_width in 0usize..6,
    ) {
        let grid = Grid::from_vec(w, h, vals[..w * h].to_vec());
        let profile = &taps[..2 * half_width + 1];
        assert_conforms(&grid, profile, &format!("proptest {w}x{h}"));
    }
}
