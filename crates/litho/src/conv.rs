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
    let mut row = vec![0.0f32; padded_row_len(w)];
    let mut tmp = Grid::zeros(w, h);
    let mut out = Grid::zeros(w, h);
    convolve_separable_into(input, profile, &mut row, &mut tmp, &mut out);
    out
}

/// Buffer-reuse variant of [`convolve_separable`]: the row pass pads each
/// source row in `row` and writes into `tmp`, the column pass writes into
/// `out`. No buffer's prior contents matter; `tmp` and `out` are fully
/// overwritten. Allocation-free.
///
/// `row` needs `3 · width` floats ([`crate::ConvScratch`] allocates that),
/// which covers any profile: a tap farther than `width − 1` from the
/// centre only ever reads padding, so the row pass skips it, which changes
/// no bit (DESIGN.md §13).
///
/// Runs the vector passes on x86_64 (AVX2 when the CPU reports it, SSE2
/// otherwise) and the scalar passes elsewhere or when
/// [`crate::backend::set_backend`] selected them. The passes are
/// bit-identical, so the choice affects speed only.
///
/// # Panics
///
/// Panics if `profile.len()` is even, `row` is shorter than the padded row
/// (`width + 2 · min(radius, width − 1)` floats, at most `3 · width`), or
/// either grid's shape differs from `input`'s.
pub fn convolve_separable_into(
    input: &Grid,
    profile: &[f32],
    row: &mut [f32],
    tmp: &mut Grid,
    out: &mut Grid,
) {
    if ldmo_obs::enabled() {
        conv_pass_counter().incr();
    }
    match resolved_kind() {
        #[cfg(target_arch = "x86_64")]
        BackendKind::Simd => {
            // AVX2 where the CPU reports it, SSE2 otherwise
            convolve_rows_simd(input, profile, row, tmp, true);
            convolve_cols_simd(tmp, profile, out, true);
        }
        _ => {
            convolve_rows_scalar(input, profile, row, tmp);
            convolve_cols_scalar(tmp, profile, out);
        }
    }
}

/// Length of the padded-row scratch [`convolve_separable_into`] needs for
/// rows of `width` pixels under any profile.
pub(crate) fn padded_row_len(width: usize) -> usize {
    3 * width
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

/// Output rows per sweep of the AVX2 column pass: each source row is loaded
/// once for all of them (3 × 4 ymm accumulators).
#[cfg(target_arch = "x86_64")]
const ROWS: usize = 3;

/// Prepares the zero-padded source row both row passes read: returns the
/// first `w + 2r` floats of `row` with both `r`-wide margins zeroed, the
/// profile trimmed to its `2r + 1` central taps, and `r`.
///
/// Out-of-range taps read an exact 0.0 instead of branching, which keeps
/// every tile iteration branch-free. A tap farther than `w − 1` from the
/// centre reads only padding for every output of the row, so it would add
/// an exact ±0.0 to an accumulator that is never −0.0 (it starts at +0.0,
/// and a round-to-nearest sum is −0.0 only when both addends are); the
/// trim therefore changes no bit and bounds the row at `3w` floats.
fn padded_row<'r, 'p>(
    row: &'r mut [f32],
    profile: &'p [f32],
    w: usize,
) -> (&'r mut [f32], &'p [f32], usize) {
    let c = profile.len() / 2;
    let r = c.min(w.saturating_sub(1));
    assert!(
        row.len() >= w + 2 * r,
        "padded row scratch holds {} floats, needs {}",
        row.len(),
        w + 2 * r
    );
    let padded = &mut row[..w + 2 * r];
    padded[..r].fill(0.0);
    padded[r + w..].fill(0.0);
    (padded, &profile[c - r..=c + r], r)
}

/// The scalar row pass of the register-blocked separable convolution — the
/// reference the vector passes must reproduce bit-for-bit.
fn convolve_rows_scalar(input: &Grid, profile: &[f32], row: &mut [f32], out: &mut Grid) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    let (padded, profile, c) = padded_row(row, profile, w);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
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
// scalar pass. Two blockings change which elements share a register, never
// an element's sequence:
//
// - the last tile of a row starts at `w − TILE` and overlaps its neighbour,
//   so the overlapped columns are computed twice by the same sequence and
//   written twice with the same bits (rows narrower than TILE run the
//   scalar passes);
// - the AVX2 column pass sweeps ROWS output rows at once, walking source
//   rows downward from the block's reach and adding each to every row
//   whose tap `k = y + r + c − s` is in range. A falling `s` is a rising
//   `k`, and the rows skipped are exactly the out-of-range ones the
//   one-row pass skips.
// ---------------------------------------------------------------------------

/// Left edges of the TILE-wide output tiles covering a row of `w` pixels:
/// whole tiles from 0, then, when `w` is not a multiple of TILE, one last
/// tile at `w − TILE` that overlaps its neighbour. Every yielded `x` has
/// `x + TILE ≤ w`, so a row narrower than TILE yields none.
#[cfg(target_arch = "x86_64")]
fn tile_starts(w: usize) -> impl Iterator<Item = usize> {
    let overlapping = w.checked_sub(TILE).filter(|_| !w.is_multiple_of(TILE));
    (0..w / TILE).map(|t| t * TILE).chain(overlapping)
}

/// The SIMD row pass: vectorized 32-wide tiles, the last one overlapping.
/// The tiles are AVX2 when `allow_avx2` is set and the CPU reports AVX2,
/// SSE2 otherwise; clearing it lets the differential suite force SSE2.
/// Rows narrower than one tile run [`convolve_rows_scalar`].
#[cfg(target_arch = "x86_64")]
fn convolve_rows_simd(
    input: &Grid,
    profile: &[f32],
    row: &mut [f32],
    out: &mut Grid,
    allow_avx2: bool,
) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    if w < TILE {
        return convolve_rows_scalar(input, profile, row, out);
    }
    let (padded, profile, c) = padded_row(row, profile, w);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    let avx2 = allow_avx2 && x86::avx2_available();
    for y in 0..h {
        padded[c..c + w].copy_from_slice(&src[y * w..(y + 1) * w]);
        let out_row = &mut dst[y * w..(y + 1) * w];
        for x in tile_starts(w) {
            // SAFETY: `tile_starts` yields only `x + TILE <= w`, which
            // keeps every load of `padded[x + 2c - k .. +TILE]` (k ≤ 2c,
            // `padded.len() == w + 2c`) and every store of
            // `out_row[x .. x + TILE]` in bounds; AVX2 runs only when
            // `avx2_available` reported it.
            unsafe {
                if avx2 {
                    x86::row_tile_avx2(padded, profile, out_row, x, c);
                } else {
                    x86::row_tile_sse2(padded, profile, out_row, x, c);
                }
            }
        }
    }
}

/// The SIMD column pass: AVX2 sweeps [`ROWS`] output rows per 32-wide tile
/// (the last `h % ROWS` rows one at a time), SSE2 one row, since three
/// would need 24 xmm accumulators. Tiles overlap at the right edge as in
/// [`convolve_rows_simd`]; grids narrower than one tile run
/// [`convolve_cols_scalar`].
#[cfg(target_arch = "x86_64")]
fn convolve_cols_simd(input: &Grid, profile: &[f32], out: &mut Grid, allow_avx2: bool) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    if w < TILE {
        return convolve_cols_scalar(input, profile, out);
    }
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    if allow_avx2 && x86::avx2_available() {
        let blocked = h - h % ROWS;
        for y in (0..blocked).step_by(ROWS) {
            for x in tile_starts(w) {
                // SAFETY: `x + TILE <= w` (from `tile_starts`) and
                // `y + ROWS <= h` keep every `src[s·w + x .. +TILE]` load
                // (`s < h`) and every store to rows `y .. y + ROWS` in
                // bounds; AVX2 was reported.
                unsafe { x86::col_block_avx2::<ROWS>(src, profile, dst, x, y, w, h) }
            }
        }
        for y in blocked..h {
            for x in tile_starts(w) {
                // SAFETY: as above with one row: `y + 1 <= h`.
                unsafe { x86::col_block_avx2::<1>(src, profile, dst, x, y, w, h) }
            }
        }
    } else {
        let c = profile.len() as i64 / 2;
        for y in 0..h {
            let out_row = &mut dst[y * w..(y + 1) * w];
            for x in tile_starts(w) {
                // SAFETY: `x + TILE <= w` (from `tile_starts`) and the
                // in-range `sy` filter keep every `src[sy·w + x .. +TILE]`
                // load and the `out_row[x .. x + TILE]` store in bounds.
                unsafe { x86::col_tile_sse2(src, profile, out_row, x, y, w, h, c) }
            }
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

    /// One column-pass block of `R` output rows × 32 columns at rows
    /// `y .. y + R`, columns `x .. x + TILE` of `dst`, AVX2 (R × 4 ymm
    /// accumulators). Each source row `s` in the block's reach is loaded
    /// once and added to every row `r` whose tap `k = y + r + c − s` lies
    /// in the profile; `s` falls, so each row's `k` rises.
    ///
    /// # Safety
    ///
    /// `x + TILE <= w`, `y + R <= h`, `src.len() == dst.len() == w * h`,
    /// and the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn col_block_avx2<const R: usize>(
        src: &[f32],
        profile: &[f32],
        dst: &mut [f32],
        x: usize,
        y: usize,
        w: usize,
        h: usize,
    ) {
        let c = profile.len() / 2;
        let mut acc = [[_mm256_setzero_ps(); TILE / 8]; R];
        // the block's reach, rows `y − c ..= y + R − 1 + c` clipped to the
        // grid (a half-open range: an inclusive one costs ~10% here)
        let (top, end) = (y.saturating_sub(c), (y + R + c).min(h));
        for s in (top..end).rev() {
            let base = src.as_ptr().add(s * w + x);
            let v: [__m256; TILE / 8] = std::array::from_fn(|i| _mm256_loadu_ps(base.add(8 * i)));
            for (r, row_acc) in acc.iter_mut().enumerate() {
                // past the profile when `s` lies outside this row's reach:
                // above it `k > 2c`, below it the subtraction wraps
                let k = (y + r + c).wrapping_sub(s);
                if k < profile.len() {
                    let pv = _mm256_set1_ps(profile[k]);
                    for (a, &vi) in row_acc.iter_mut().zip(&v) {
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(vi, pv));
                    }
                }
            }
        }
        for (r, row_acc) in acc.iter().enumerate() {
            let out = dst.as_mut_ptr().add((y + r) * w + x);
            for (i, a) in row_acc.iter().enumerate() {
                _mm256_storeu_ps(out.add(8 * i), *a);
            }
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
        // garbage in the buffers, the padded row's margins included, must
        // not leak into the result
        let mut row = vec![f32::NAN; padded_row_len(9)];
        let mut tmp = Grid::filled(9, 9, f32::NAN);
        let mut out = Grid::filled(9, 9, 123.0);
        convolve_separable_into(&g, &profile, &mut row, &mut tmp, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn into_variant_rejects_wrong_shape() {
        let g = Grid::zeros(4, 4);
        let mut row = vec![0.0; padded_row_len(4)];
        let mut tmp = Grid::zeros(4, 4);
        let mut out = Grid::zeros(5, 4);
        convolve_separable_into(&g, &[1.0], &mut row, &mut tmp, &mut out);
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
