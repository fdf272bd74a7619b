//! Differential conformance suite for the separable passes (DESIGN.md §13).
//!
//! Each vector tier the CPU reports — SSE2 always on x86_64, AVX2 and
//! AVX-512 when reported — runs against the scalar reference on structured
//! fixtures (impulse, straight edge, dense contacts) and proptest-random
//! grids, and must agree bit for bit. The passes are called directly, not
//! through the process-global [`crate::backend::set_backend`] switch, so a
//! test flipping that switch cannot turn a comparison into one of a pass
//! with itself. Property tests (linearity, translation equivariance, kernel
//! symmetry) then pin the analytic contract of every pass.

use super::{convolve_cols_scalar, convolve_rows_scalar};
use crate::{ConvScratch, KernelBank, LithoConfig};
use ldmo_geom::{Grid, Rect};
use proptest::prelude::*;

#[cfg(target_arch = "x86_64")]
use super::Tier;

/// One separable convolution: row pass through the padded `row` into
/// `tmp`, column pass into `out`.
type Pass = fn(&Grid, &[f32], &mut [f32], &mut Grid, &mut Grid);

fn scalar(input: &Grid, profile: &[f32], row: &mut [f32], tmp: &mut Grid, out: &mut Grid) {
    convolve_rows_scalar(input, profile, row, tmp);
    convolve_cols_scalar(tmp, profile, out);
}

#[cfg(target_arch = "x86_64")]
fn sse2(input: &Grid, profile: &[f32], row: &mut [f32], tmp: &mut Grid, out: &mut Grid) {
    super::convolve_separable_simd(input, profile, row, tmp, out, Tier::Sse2);
}

#[cfg(target_arch = "x86_64")]
fn avx2(input: &Grid, profile: &[f32], row: &mut [f32], tmp: &mut Grid, out: &mut Grid) {
    super::convolve_separable_simd(input, profile, row, tmp, out, Tier::Avx2);
}

#[cfg(target_arch = "x86_64")]
fn avx512(input: &Grid, profile: &[f32], row: &mut [f32], tmp: &mut Grid, out: &mut Grid) {
    super::convolve_separable_simd(input, profile, row, tmp, out, Tier::Avx512);
}

/// The vector passes this host can run: SSE2 is baseline x86_64, AVX2 and
/// AVX-512 join when the CPU reports them. None off x86_64.
fn vector_passes() -> Vec<(&'static str, Pass)> {
    #[cfg(target_arch = "x86_64")]
    {
        let tiers: [(Tier, Pass); 3] = [
            (Tier::Sse2, sse2),
            (Tier::Avx2, avx2),
            (Tier::Avx512, avx512),
        ];
        tiers
            .into_iter()
            .filter(|&(tier, _)| tier <= Tier::widest())
            .map(|(tier, pass)| (tier.as_str(), pass))
            .collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// The scalar reference followed by every [`vector_passes`] entry.
fn all_passes() -> Vec<(&'static str, Pass)> {
    let mut passes: Vec<(&'static str, Pass)> = vec![("scalar", scalar)];
    passes.extend(vector_passes());
    passes
}

fn run(pass: Pass, input: &Grid, profile: &[f32]) -> Grid {
    let (w, h) = input.shape();
    // the workspace's own scratch, so the suite also covers its row sizing
    let mut scratch = ConvScratch::new(w, h);
    let mut out = Grid::zeros(w, h);
    pass(input, profile, &mut scratch.row, &mut scratch.tmp, &mut out);
    out
}

/// Small odd profiles exercising symmetric, asymmetric, negative-lobe and
/// single-tap cases, then every component profile of the paper bank: the
/// real optics, whose widest (271 taps) sets the tiling halo and is wider
/// than most fixtures, so the row pass trims its far taps.
fn test_profiles() -> Vec<Vec<f32>> {
    let mut profiles = vec![
        vec![1.0],
        vec![0.25, 0.5, 0.25],
        vec![0.1, 0.2, 0.4, 0.2, 0.1],
        vec![0.05, -0.15, 0.3, 0.55, 0.2, -0.1, 0.05],
    ];
    let bank = KernelBank::paper_bank(&LithoConfig::default());
    for kernel in bank.kernels() {
        profiles.extend(kernel.components().map(|(_, profile)| profile.to_vec()));
    }
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

/// Runs `input ⊗ profile` on every vector pass and asserts each output bit
/// equals the scalar reference's. Returns the names of the passes compared.
fn assert_conforms(input: &Grid, profile: &[f32], ctx: &str) -> Vec<&'static str> {
    let reference = run(scalar, input, profile);
    let passes = vector_passes();
    for &(name, pass) in &passes {
        let got = run(pass, input, profile);
        for (i, (g, r)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                r.to_bits(),
                "{ctx}: {name} diverges from scalar at index {i}: {g:e} vs {r:e}"
            );
        }
    }
    passes.into_iter().map(|(name, _)| name).collect()
}

/// Grid shapes covering even, odd, mixed-parity, non-square, an overlapping
/// last tile (widths above 32 that are not multiples of the 32-wide
/// register block), narrower than one tile, degenerate 1×N / N×1, and a
/// 100×3 strip where the 271-tap profile leaves whole tiles with taps that
/// read only padding.
const SHAPES: [(usize, usize); 9] = [
    (64, 64),
    (33, 47),
    (31, 31),
    (40, 9),
    (1, 64),
    (64, 1),
    (1, 1),
    (3, 3),
    (100, 3),
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
    // 63 to 129 straddle the 64-wide AVX-512 tile; the last four are the
    // workloads' windows: the 224 px flow and serve window, the golden
    // chip's 359×224 tiles and the tiled chip's 359×359 and 494×359
    // windows. With SHAPES the vector tiles cover `w % 32` of 0, 1, 4, 7,
    // 8, 14 and 31, `w % 64` of 0, 1, 32, 36, 39, 46 and 63, and `h % 3`
    // of 0, 1 and 2.
    for &(w, h) in &[
        (64usize, 64usize),
        (33, 47),
        (96, 40),
        (63, 19),
        (65, 11),
        (127, 9),
        (129, 7),
        (224, 224),
        (359, 224),
        (359, 359),
        (494, 359),
    ] {
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
fn trimmed_far_taps_change_no_bit_on_all_backends() {
    // the row pass drops taps farther than w − 1 from the centre, which
    // only read padding. A zero frame as wide as the radius on both sides
    // keeps every tap, so the framed result's interior must match the
    // unframed one bit for bit
    for profile in test_profiles() {
        let c = profile.len() / 2;
        for &(w, h) in &[(3usize, 3usize), (33, 47), (64, 1), (100, 3)] {
            let input = straight_edge(w, h);
            let mut framed = Grid::zeros(w + 2 * c, h);
            for y in 0..h {
                for x in 0..w {
                    framed.set(x + c, y, input.get(x, y));
                }
            }
            for (name, pass) in all_passes() {
                let out = run(pass, &input, &profile);
                let framed_out = run(pass, &framed, &profile);
                for y in 0..h {
                    for x in 0..w {
                        assert_eq!(
                            out.get(x, y).to_bits(),
                            framed_out.get(x + c, y).to_bits(),
                            "{name}, {} taps, {w}x{h}: framed run differs at ({x},{y})",
                            profile.len()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_tier_the_cpu_reports_is_compared() {
    // `--nocapture` prints the tiers compared, so a log shows which ones a
    // host without AVX-512 or AVX2 left out
    let widest = test_profiles().into_iter().max_by_key(Vec::len);
    let widest = widest.expect("the bank has profiles");
    let compared = assert_conforms(&dense_contacts(129, 7), &widest, "tier list");
    println!("conv conformance compared scalar against: {compared:?}");
    #[cfg(target_arch = "x86_64")]
    for (reported, tier) in [
        (is_x86_feature_detected!("avx2"), "avx2"),
        (is_x86_feature_detected!("avx512f"), "avx512"),
    ] {
        assert!(
            !reported || compared.contains(&tier),
            "the CPU reports {tier}, but the suite compared only {compared:?}"
        );
    }
}

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
        for (name, pass) in all_passes() {
            let conv_combined = run(pass, &combined, &profile);
            let conv_x = run(pass, &x, &profile);
            let conv_y = run(pass, &y, &profile);
            for i in 0..w * h {
                let want = a * conv_x.as_slice()[i] + b * conv_y.as_slice()[i];
                let got = conv_combined.as_slice()[i];
                assert!(
                    (got - want).abs() < 1e-4,
                    "{name} not linear at {i}: {got} vs {want}"
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
        for (name, pass) in all_passes() {
            let out_base = run(pass, &base, &profile);
            let out_shifted = run(pass, &shifted, &profile);
            for y in margin..y_end {
                for x in margin..x_end {
                    assert_eq!(
                        out_shifted.get(x + dx, y + dy).to_bits(),
                        out_base.get(x, y).to_bits(),
                        "{name} not translation-equivariant at ({x},{y})"
                    );
                }
            }
        }
    }
}

#[test]
fn symmetric_kernel_preserves_symmetry_on_all_backends() {
    // a symmetric profile applied to a centered impulse yields a response
    // symmetric about the center, bit-exactly, on every pass
    let side = 33usize; // odd: exact center pixel
    let c = side / 2;
    let input = impulse(side, side);
    let profile = [0.05f32, 0.2, 0.5, 0.2, 0.05];
    let r = profile.len() / 2;
    for (name, pass) in all_passes() {
        let out = run(pass, &input, &profile);
        for dy in 0..=r {
            for dx in 0..=r {
                let a = out.get(c + dx, c + dy);
                for (x, y) in [(c - dx, c + dy), (c + dx, c - dy), (c - dx, c - dy)] {
                    assert_eq!(
                        a.to_bits(),
                        out.get(x, y).to_bits(),
                        "{name} broke symmetry at offset ({dx},{dy})"
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
