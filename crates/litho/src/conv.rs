//! 2-D convolution: the separable pass the optical model runs for its
//! radially symmetric Gaussian kernels, and a direct dense convolution kept
//! as the oracle that pass is tested against.
//!
//! All convolutions use "same" output size with zero padding, which models a
//! mask embedded in an empty (chrome) surround.

use crate::backend::{resolved_kind, BackendKind};
use ldmo_geom::Grid;

#[cfg(test)]
mod conformance;

/// Direct 2-D convolution of `input` with a dense `kernel`, same-size output,
/// zero padding. `O(W·H·kw·kh)` — the oracle the separable pass is tested
/// against, and the `conv_ablation/direct_*` bench baseline.
///
/// The kernel is indexed `kernel[ky * kw + kx]` and is *centered*: taps run
/// from `-(kw/2)` to `kw - kw/2 - 1` relative to the output pixel
/// (convolution flips the kernel; for the symmetric kernels used here
/// convolution and correlation coincide).
///
/// # Panics
///
/// Panics if `kernel.len() != kw * kh` or either kernel dimension is even
/// (centered kernels must be odd-sized).
pub fn convolve2d_direct(input: &Grid, kernel: &[f32], kw: usize, kh: usize) -> Grid {
    assert_eq!(kernel.len(), kw * kh, "kernel buffer length mismatch");
    assert!(kw % 2 == 1 && kh % 2 == 1, "kernel must be odd-sized");
    let (w, h) = input.shape();
    let (cx, cy) = ((kw / 2) as i64, (kh / 2) as i64);
    let mut out = Grid::zeros(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0f32;
            for ky in 0..kh {
                for kx in 0..kw {
                    // convolution: out(x,y) = sum in(x - (kx - cx), y - (ky - cy)) * k(kx, ky)
                    let sx = x as i64 - (kx as i64 - cx);
                    let sy = y as i64 - (ky as i64 - cy);
                    acc += input.get_padded(sx, sy) * kernel[ky * kw + kx];
                }
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Separable convolution with a centered, odd-length 1-D `profile` applied
/// along x then along y: `input ⊗ (p pᵀ)`. `O(W·H·k)` per axis.
///
/// Thin wrapper over [`convolve_separable_into`] with transient buffers;
/// hot loops should hold the buffers and call the `_into` variant.
///
/// # Panics
///
/// Panics if `profile.len()` is even.
pub fn convolve_separable(input: &Grid, profile: &[f32]) -> Grid {
    let (w, h) = input.shape();
    let mut tmp = Grid::zeros(w, h);
    let mut out = Grid::zeros(w, h);
    convolve_separable_into(input, profile, &mut tmp, &mut out);
    out
}

/// Buffer-reuse variant of [`convolve_separable`]: the row pass writes into
/// `tmp`, the column pass into `out`. Neither buffer's prior contents
/// matter; both are fully overwritten. Allocation-free.
///
/// Runs the vector passes on x86_64 (AVX2 when the CPU reports it, SSE2
/// otherwise) and the scalar passes elsewhere or when
/// [`crate::backend::set_backend`] selected them. The passes are
/// bit-identical, so the choice affects speed only.
///
/// # Panics
///
/// Panics if `profile.len()` is even or either buffer's shape differs from
/// `input`'s.
pub fn convolve_separable_into(input: &Grid, profile: &[f32], tmp: &mut Grid, out: &mut Grid) {
    if ldmo_obs::enabled() {
        conv_pass_counter().incr();
    }
    match resolved_kind() {
        #[cfg(target_arch = "x86_64")]
        BackendKind::Simd => {
            // AVX2 where the CPU reports it, SSE2 otherwise
            convolve_rows_simd(input, profile, tmp, true);
            convolve_cols_simd(tmp, profile, out, true);
        }
        _ => {
            convolve_rows_scalar(input, profile, tmp);
            convolve_cols_scalar(tmp, profile, out);
        }
    }
}

/// Telemetry: one count per separable convolution pass (row + column
/// sweep). Registered once; recording is a single relaxed atomic add, so
/// the zero-allocation hot path (DESIGN.md §6) stays allocation-free.
fn conv_pass_counter() -> ldmo_obs::Counter {
    static COUNTER: std::sync::OnceLock<ldmo_obs::Counter> = std::sync::OnceLock::new();
    *COUNTER.get_or_init(|| ldmo_obs::counter("litho.conv_passes"))
}

/// Output tile width of the register-blocked convolution passes: the
/// accumulator tile lives in SIMD registers across the whole tap loop, so
/// the output row is written exactly once instead of once per tap.
const TILE: usize = 32;

/// Stack capacity for the zero-padded source row of the row pass; rows
/// needing more (width + 2·radius) fall back to one heap allocation.
const PAD_STACK: usize = 1024;

/// The scalar row pass of the register-blocked separable convolution — the
/// reference the vector passes must reproduce bit-for-bit.
fn convolve_rows_scalar(input: &Grid, profile: &[f32], out: &mut Grid) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    let k_len = profile.len();
    let c = k_len / 2;
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    // zero-padded row: out-of-range taps read an exact 0.0 instead of
    // branching, which keeps every tile iteration branch-free
    let padded_len = w + 2 * c;
    let mut stack_buf = [0.0f32; PAD_STACK];
    let mut heap_buf = Vec::new();
    let padded: &mut [f32] = if padded_len <= PAD_STACK {
        &mut stack_buf[..padded_len]
    } else {
        heap_buf.resize(padded_len, 0.0);
        &mut heap_buf
    };
    for y in 0..h {
        padded[c..c + w].copy_from_slice(&src[y * w..(y + 1) * w]);
        let out_row = &mut dst[y * w..(y + 1) * w];
        // out[x] = Σ_k p[k] · row[x - (k - c)] = Σ_k p[k] · padded[x + 2c - k],
        // accumulated in increasing-k order per element (the same order as
        // a tap-at-a-time pass over a zeroed output)
        let mut x = 0;
        while x + TILE <= w {
            let mut acc = [0.0f32; TILE];
            for (k, &p) in profile.iter().enumerate() {
                let s = &padded[x + 2 * c - k..x + 2 * c - k + TILE];
                for j in 0..TILE {
                    acc[j] += s[j] * p;
                }
            }
            out_row[x..x + TILE].copy_from_slice(&acc);
            x += TILE;
        }
        for (xr, o) in out_row.iter_mut().enumerate().skip(x) {
            let mut a = 0.0f32;
            for (k, &p) in profile.iter().enumerate() {
                a += padded[xr + 2 * c - k] * p;
            }
            *o = a;
        }
    }
}

/// The scalar column pass; see [`convolve_rows_scalar`].
fn convolve_cols_scalar(input: &Grid, profile: &[f32], out: &mut Grid) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    let k_len = profile.len();
    let c = k_len as i64 / 2;
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for y in 0..h {
        let out_row = &mut dst[y * w..(y + 1) * w];
        // out(x, y) = Σ_k p[k] · in(x, y - (k - c)); out-of-range source
        // rows contribute nothing, and k stays increasing per element
        let mut x = 0;
        while x + TILE <= w {
            let mut acc = [0.0f32; TILE];
            for (k, &p) in profile.iter().enumerate() {
                let sy = y as i64 - (k as i64 - c);
                if sy < 0 || sy as usize >= h {
                    continue;
                }
                let s = &src[sy as usize * w + x..sy as usize * w + x + TILE];
                for j in 0..TILE {
                    acc[j] += s[j] * p;
                }
            }
            out_row[x..x + TILE].copy_from_slice(&acc);
            x += TILE;
        }
        for (xr, o) in out_row.iter_mut().enumerate().skip(x) {
            let mut a = 0.0f32;
            for (k, &p) in profile.iter().enumerate() {
                let sy = y as i64 - (k as i64 - c);
                if sy < 0 || sy as usize >= h {
                    continue;
                }
                a += src[sy as usize * w + xr] * p;
            }
            *o = a;
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD passes (x86_64 SSE2/AVX2)
//
// Bit-identity argument: the scalar tile loop accumulates, for each output
// element j, `acc[j] += padded[...k...][j] * p[k]` in increasing-k order
// with an unfused f32 multiply then add. The vector passes below keep the
// identical per-element sequence and merely evaluate 4/8 adjacent j lanes
// per instruction — `mulps`/`addps` are exact IEEE-754 single ops per lane,
// and no FMA contraction is ever emitted — so every output bit matches the
// scalar pass. The tile remainder and all degenerate shapes reuse the same
// scalar epilogue loops.
// ---------------------------------------------------------------------------

/// The SIMD row pass: vectorized 32-wide tiles with a scalar epilogue.
/// The tiles are AVX2 when `allow_avx2` is set and the CPU reports AVX2,
/// SSE2 otherwise; clearing it lets the differential suite force SSE2.
#[cfg(target_arch = "x86_64")]
fn convolve_rows_simd(input: &Grid, profile: &[f32], out: &mut Grid, allow_avx2: bool) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    let c = profile.len() / 2;
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    let padded_len = w + 2 * c;
    let mut stack_buf = [0.0f32; PAD_STACK];
    let mut heap_buf = Vec::new();
    let padded: &mut [f32] = if padded_len <= PAD_STACK {
        &mut stack_buf[..padded_len]
    } else {
        heap_buf.resize(padded_len, 0.0);
        &mut heap_buf
    };
    let avx2 = allow_avx2 && x86::avx2_available();
    for y in 0..h {
        padded[c..c + w].copy_from_slice(&src[y * w..(y + 1) * w]);
        let out_row = &mut dst[y * w..(y + 1) * w];
        let mut x = 0;
        while x + TILE <= w {
            // SAFETY: `x + TILE <= w` keeps every load of
            // `padded[x + 2c - k .. +TILE]` (k ≤ 2c) and every store of
            // `out_row[x .. x + TILE]` in bounds; AVX2 runs only when
            // `avx2_available` reported it.
            unsafe {
                if avx2 {
                    x86::row_tile_avx2(padded, profile, out_row, x, c);
                } else {
                    x86::row_tile_sse2(padded, profile, out_row, x, c);
                }
            }
            x += TILE;
        }
        for (xr, o) in out_row.iter_mut().enumerate().skip(x) {
            let mut a = 0.0f32;
            for (k, &p) in profile.iter().enumerate() {
                a += padded[xr + 2 * c - k] * p;
            }
            *o = a;
        }
    }
}

/// The SIMD column pass; see [`convolve_rows_simd`].
#[cfg(target_arch = "x86_64")]
fn convolve_cols_simd(input: &Grid, profile: &[f32], out: &mut Grid, allow_avx2: bool) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    let c = profile.len() as i64 / 2;
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    let avx2 = allow_avx2 && x86::avx2_available();
    for y in 0..h {
        let out_row = &mut dst[y * w..(y + 1) * w];
        let mut x = 0;
        while x + TILE <= w {
            // SAFETY: `x + TILE <= w` and the in-range `sy` filter keep
            // every `src[sy·w + x .. +TILE]` load and the
            // `out_row[x .. x + TILE]` store in bounds; AVX2 runs only
            // when `avx2_available` reported it.
            unsafe {
                if avx2 {
                    x86::col_tile_avx2(src, profile, out_row, x, y, w, h, c);
                } else {
                    x86::col_tile_sse2(src, profile, out_row, x, y, w, h, c);
                }
            }
            x += TILE;
        }
        for (xr, o) in out_row.iter_mut().enumerate().skip(x) {
            let mut a = 0.0f32;
            for (k, &p) in profile.iter().enumerate() {
                let sy = y as i64 - (k as i64 - c);
                if sy < 0 || sy as usize >= h {
                    continue;
                }
                a += src[sy as usize * w + xr] * p;
            }
            *o = a;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The unsafe vector tile kernels. Callers guarantee bounds (see the
    //! SAFETY comments at the call sites); AVX2 entry points additionally
    //! require the runtime feature check that [`avx2_available`] caches.

    use super::TILE;
    use std::arch::x86_64::*;

    /// Cached `is_x86_feature_detected!("avx2")` — SSE2 is baseline x86_64
    /// and needs no check.
    pub(super) fn avx2_available() -> bool {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
    }

    /// One 32-wide row-pass output tile at `out_row[x..x+TILE]`, AVX2
    /// (4 × 8 lanes).
    ///
    /// # Safety
    ///
    /// `x + TILE <= out_row.len()`, `padded.len() >= x + 2c + TILE`, and
    /// the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_tile_avx2(
        padded: &[f32],
        profile: &[f32],
        out_row: &mut [f32],
        x: usize,
        c: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); TILE / 8];
        for (k, &p) in profile.iter().enumerate() {
            let pv = _mm256_set1_ps(p);
            let base = padded.as_ptr().add(x + 2 * c - k);
            for (i, a) in acc.iter_mut().enumerate() {
                let s = _mm256_loadu_ps(base.add(8 * i));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(s, pv));
            }
        }
        let dst = out_row.as_mut_ptr().add(x);
        for (i, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(dst.add(8 * i), *a);
        }
    }

    /// One 32-wide row-pass output tile, SSE2 (8 × 4 lanes).
    ///
    /// # Safety
    ///
    /// `x + TILE <= out_row.len()` and `padded.len() >= x + 2c + TILE`.
    pub(super) unsafe fn row_tile_sse2(
        padded: &[f32],
        profile: &[f32],
        out_row: &mut [f32],
        x: usize,
        c: usize,
    ) {
        let mut acc = [_mm_setzero_ps(); TILE / 4];
        for (k, &p) in profile.iter().enumerate() {
            let pv = _mm_set1_ps(p);
            let base = padded.as_ptr().add(x + 2 * c - k);
            for (i, a) in acc.iter_mut().enumerate() {
                let s = _mm_loadu_ps(base.add(4 * i));
                *a = _mm_add_ps(*a, _mm_mul_ps(s, pv));
            }
        }
        let dst = out_row.as_mut_ptr().add(x);
        for (i, a) in acc.iter().enumerate() {
            _mm_storeu_ps(dst.add(4 * i), *a);
        }
    }

    /// One 32-wide column-pass output tile at `out_row[x..x+TILE]`, AVX2.
    ///
    /// # Safety
    ///
    /// `x + TILE <= w`, `src.len() == w * h`, and the host supports AVX2.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn col_tile_avx2(
        src: &[f32],
        profile: &[f32],
        out_row: &mut [f32],
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        c: i64,
    ) {
        let mut acc = [_mm256_setzero_ps(); TILE / 8];
        for (k, &p) in profile.iter().enumerate() {
            let sy = y as i64 - (k as i64 - c);
            if sy < 0 || sy as usize >= h {
                continue;
            }
            let pv = _mm256_set1_ps(p);
            let base = src.as_ptr().add(sy as usize * w + x);
            for (i, a) in acc.iter_mut().enumerate() {
                let s = _mm256_loadu_ps(base.add(8 * i));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(s, pv));
            }
        }
        let dst = out_row.as_mut_ptr().add(x);
        for (i, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(dst.add(8 * i), *a);
        }
    }

    /// One 32-wide column-pass output tile, SSE2.
    ///
    /// # Safety
    ///
    /// `x + TILE <= w` and `src.len() == w * h`.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn col_tile_sse2(
        src: &[f32],
        profile: &[f32],
        out_row: &mut [f32],
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        c: i64,
    ) {
        let mut acc = [_mm_setzero_ps(); TILE / 4];
        for (k, &p) in profile.iter().enumerate() {
            let sy = y as i64 - (k as i64 - c);
            if sy < 0 || sy as usize >= h {
                continue;
            }
            let pv = _mm_set1_ps(p);
            let base = src.as_ptr().add(sy as usize * w + x);
            for (i, a) in acc.iter_mut().enumerate() {
                let s = _mm_loadu_ps(base.add(4 * i));
                *a = _mm_add_ps(*a, _mm_mul_ps(s, pv));
            }
        }
        let dst = out_row.as_mut_ptr().add(x);
        for (i, a) in acc.iter().enumerate() {
            _mm_storeu_ps(dst.add(4 * i), *a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn outer(profile: &[f32]) -> Vec<f32> {
        let k = profile.len();
        let mut dense = vec![0.0f32; k * k];
        for y in 0..k {
            for x in 0..k {
                dense[y * k + x] = profile[y] * profile[x];
            }
        }
        dense
    }

    #[test]
    fn identity_kernel_is_noop() {
        let mut g = Grid::zeros(5, 5);
        g.set(2, 2, 3.0);
        g.set(0, 4, -1.0);
        let out = convolve2d_direct(&g, &[1.0], 1, 1);
        assert_eq!(out, g);
        let out_sep = convolve_separable(&g, &[1.0]);
        assert_eq!(out_sep, g);
    }

    #[test]
    fn impulse_response_reproduces_kernel() {
        let mut g = Grid::zeros(7, 7);
        g.set(3, 3, 1.0);
        let kernel = [0.1, 0.2, 0.1, 0.2, 0.4, 0.2, 0.05, 0.1, 0.05];
        let out = convolve2d_direct(&g, &kernel, 3, 3);
        // impulse at center: output around (3,3) equals the kernel
        for ky in 0..3 {
            for kx in 0..3 {
                let v = out.get(2 + kx, 2 + ky);
                assert!((v - kernel[ky * 3 + kx]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn asymmetric_kernel_is_flipped() {
        // convolution flips the kernel: an impulse convolved with a kernel
        // that has weight only at its "right" tap shifts mass to the RIGHT
        // when the kernel tap is at the right (since out(x) = sum in(x-k')k).
        let mut g = Grid::zeros(5, 1);
        g.set(2, 0, 1.0);
        let kernel = [0.0, 0.0, 1.0]; // tap at kx=2, offset +1
        let out = convolve2d_direct(&g, &kernel, 3, 1);
        assert_eq!(out.get(3, 0), 1.0);
        assert_eq!(out.get(1, 0), 0.0);
    }

    #[test]
    fn separable_matches_direct_dense() {
        let profile = [0.25f32, 0.5, 0.25];
        let dense = outer(&profile);
        let mut g = Grid::zeros(9, 9);
        g.set(4, 4, 1.0);
        g.set(1, 7, 2.0);
        g.set(8, 0, -0.5);
        let a = convolve_separable(&g, &profile);
        let b = convolve2d_direct(&g, &dense, 3, 3);
        for (x, y) in (0..9).flat_map(|y| (0..9).map(move |x| (x, y))) {
            assert!((a.get(x, y) - b.get(x, y)).abs() < 1e-5, "at ({x},{y})");
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_rejected() {
        let g = Grid::zeros(4, 4);
        let _ = convolve2d_direct(&g, &[0.5, 0.5], 2, 1);
    }

    #[test]
    fn into_variant_overwrites_dirty_buffers_bit_identically() {
        let profile = [0.2f32, 0.6, 0.2];
        let mut g = Grid::zeros(9, 9);
        g.set(4, 4, 1.0);
        g.set(0, 8, -2.0);
        let reference = convolve_separable(&g, &profile);
        // garbage in the buffers must not leak into the result
        let mut tmp = Grid::filled(9, 9, f32::NAN);
        let mut out = Grid::filled(9, 9, 123.0);
        convolve_separable_into(&g, &profile, &mut tmp, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn into_variant_rejects_wrong_shape() {
        let g = Grid::zeros(4, 4);
        let mut tmp = Grid::zeros(4, 4);
        let mut out = Grid::zeros(5, 4);
        convolve_separable_into(&g, &[1.0], &mut tmp, &mut out);
    }

    proptest! {
        #[test]
        fn separable_equals_dense_on_random_input(
            vals in proptest::collection::vec(-1.0f32..1.0, 64),
            p0 in 0.01f32..1.0, p1 in 0.01f32..1.0, p2 in 0.01f32..1.0,
        ) {
            let profile = [p0, p1, p2];
            let g = Grid::from_vec(8, 8, vals);
            let a = convolve_separable(&g, &profile);
            let b = convolve2d_direct(&g, &outer(&profile), 3, 3);
            for i in 0..64 {
                prop_assert!((a.as_slice()[i] - b.as_slice()[i]).abs() < 1e-4);
            }
        }

        #[test]
        fn convolution_is_linear(
            vals in proptest::collection::vec(-1.0f32..1.0, 16),
            scale in -2.0f32..2.0,
        ) {
            let profile = [0.25f32, 0.5, 0.25];
            let g = Grid::from_vec(4, 4, vals);
            let scaled = g.map(|v| v * scale);
            let a = convolve_separable(&scaled, &profile);
            let b = convolve_separable(&g, &profile).map(|v| v * scale);
            for i in 0..16 {
                prop_assert!((a.as_slice()[i] - b.as_slice()[i]).abs() < 1e-4);
            }
        }
    }
}
