//! 2-D convolution: the separable pass the optical model runs for its
//! radially symmetric Gaussian kernels, and a direct dense convolution kept
//! as the oracle that pass is tested against.
//!
//! All convolutions use "same" output size with zero padding, which models a
//! mask embedded in an empty (chrome) surround.

use crate::backend::{resolved_kind, BackendKind};
use ldmo_geom::Grid;
use std::ops::Range;

#[cfg(test)]
mod conformance;

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::Tier;

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
/// Runs the vector passes on x86_64, at the widest tier the CPU reports
/// (AVX-512, AVX2 or SSE2), and the scalar passes elsewhere or when
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
            convolve_separable_simd(input, profile, row, tmp, out, Tier::widest());
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

/// Output tile width of the register-blocked scalar passes and of the SSE2
/// and AVX2 tiers (AVX-512 tiles are twice as wide): the accumulator tile
/// lives in registers across the whole tap loop, so the output row is
/// written exactly once instead of once per tap.
const TILE: usize = 32;

/// Prepares the zero-padded source row every row pass reads: returns the
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

/// The taps of a `2c + 1`-tap profile that reach the `tile` outputs at `x`
/// of a `w`-pixel row padded by `c` on each side. Tap `k` reads
/// `padded[x + 2c − k ..][..tile]`; one outside this range reads only
/// padding for every output of the tile, so, as in [`padded_row`], it would
/// add an exact ±0.0, and every row pass skips it.
fn live_taps(x: usize, tile: usize, w: usize, c: usize) -> Range<usize> {
    (x + c + 1).saturating_sub(w)..(x + c + tile).min(2 * c + 1)
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
            for k in live_taps(x, TILE, w, c) {
                let (s, p) = (&padded[x + 2 * c - k..x + 2 * c - k + TILE], profile[k]);
                for j in 0..TILE {
                    acc[j] += s[j] * p;
                }
            }
            out_row[x..x + TILE].copy_from_slice(&acc);
            x += TILE;
        }
        for (xr, o) in out_row.iter_mut().enumerate().skip(x) {
            let mut a = 0.0f32;
            for k in live_taps(xr, 1, w, c) {
                a += padded[xr + 2 * c - k] * profile[k];
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
// Vector passes (x86_64: SSE2, AVX2, AVX-512)
//
// Bit-identity argument: the scalar tile loop accumulates, for each output
// element j, `acc[j] += padded[...k...][j] * p[k]` in increasing-k order
// with an unfused f32 multiply then add. The vector passes keep the
// identical per-element sequence and merely evaluate 4/8/16 adjacent j
// lanes per instruction — `mul`/`add` are exact IEEE-754 single ops per
// lane, and no FMA contraction is ever emitted — so every output bit
// matches the scalar pass. The blockings change which elements share a
// register, never an element's sequence:
//
// - the last tile of a row starts at `w − tile` and overlaps its
//   neighbour, so the overlapped columns are computed twice by the same
//   sequence and written twice with the same bits (a grid narrower than a
//   tier's tile runs a narrower tier, and one narrower than 32 px the
//   scalar passes);
// - the AVX2 and AVX-512 column passes sweep three output rows at once,
//   walking source rows downward from the block's reach and adding each to
//   every row whose tap `k = y + r + c − s` is in range. A falling `s` is a
//   rising `k`, and the rows skipped are exactly the out-of-range ones the
//   one-row pass skips;
// - a row tile skips the taps outside its `live_taps`, which depend on the
//   tile's width, but each would only have added an exact ±0.0.
// ---------------------------------------------------------------------------

/// The vector row and column passes at `tier`, capped at what the CPU
/// reports. A grid narrower than one 64-wide AVX-512 tile runs AVX2, and
/// one narrower than 32 px the scalar passes.
#[cfg(target_arch = "x86_64")]
fn convolve_separable_simd(
    input: &Grid,
    profile: &[f32],
    row: &mut [f32],
    tmp: &mut Grid,
    out: &mut Grid,
    tier: Tier,
) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), tmp.shape(), "output shape mismatch");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let Some(tier) = tier.for_width(input.width()) else {
        convolve_rows_scalar(input, profile, row, tmp);
        return convolve_cols_scalar(tmp, profile, out);
    };
    // SAFETY: the three grids share one shape (asserted above), at least
    // one of the tier's tiles wide, and the CPU reports the tier
    // (`for_width`)
    unsafe {
        match tier {
            Tier::Sse2 => x86::sse2(input, profile, row, tmp, out),
            Tier::Avx2 => x86::avx2(input, profile, row, tmp, out),
            Tier::Avx512 => x86::avx512(input, profile, row, tmp, out),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The vector tiers: one generic pass over [`Lanes`], instantiated per
    //! tier by a `#[target_feature]` wrapper so each compiles to its tier's
    //! instructions. Callers run only tiers up to [`Tier::widest`].

    use super::{live_taps, padded_row, Grid};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// An instruction-set tier of the vector passes, narrowest first.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub(crate) enum Tier {
        /// 4-lane xmm registers, baseline x86_64: 8 per 32-wide tile.
        Sse2,
        /// 8-lane ymm registers: 4 per 32-wide tile.
        Avx2,
        /// 16-lane zmm registers (`avx512f`): 4 per 64-wide tile.
        Avx512,
    }

    impl Tier {
        /// The widest tier the CPU reports, detected once and then cached.
        /// A tier counts only with every tier below it.
        pub(crate) fn widest() -> Tier {
            static WIDEST: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
            *WIDEST.get_or_init(|| match is_x86_feature_detected!("avx2") {
                true if is_x86_feature_detected!("avx512f") => Tier::Avx512,
                true => Tier::Avx2,
                false => Tier::Sse2,
            })
        }

        /// The canonical lowercase name.
        pub(crate) fn as_str(self) -> &'static str {
            match self {
                Tier::Sse2 => "sse2",
                Tier::Avx2 => "avx2",
                Tier::Avx512 => "avx512",
            }
        }

        /// The tier that runs a grid `w` pixels wide when `self` is asked
        /// for: capped at [`Tier::widest`], narrowed to AVX2 below one
        /// 64-wide AVX-512 tile, and `None` (the scalar passes) below 32 px.
        pub(super) fn for_width(self, w: usize) -> Option<Tier> {
            match self.min(Tier::widest()) {
                _ if w < super::TILE => None,
                Tier::Avx512 if w < 2 * super::TILE => Some(Tier::Avx2),
                tier => Some(tier),
            }
        }
    }

    /// One register of `f32` lanes and the operations the passes use, each
    /// exact per lane. `add_mul` is an unfused multiply then add: a fused
    /// one would round once where the scalar passes round twice.
    ///
    /// # Safety
    ///
    /// Every method needs a host that supports the register's tier; `load`
    /// reads and `store` writes `N` floats at `p`.
    trait Lanes: Copy {
        /// Lanes per register.
        const N: usize;
        unsafe fn zero() -> Self;
        unsafe fn splat(v: f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        unsafe fn store(self, p: *mut f32);
        /// `self + v · p`, rounding the product and then the sum.
        unsafe fn add_mul(self, v: Self, p: Self) -> Self;
    }

    macro_rules! lanes {
        ($v:ty, $n:literal: $zero:ident, $splat:ident, $load:ident,
            $store:ident, $mul:ident, $add:ident) => {
            impl Lanes for $v {
                const N: usize = $n;
                #[inline(always)]
                unsafe fn zero() -> Self {
                    $zero()
                }
                #[inline(always)]
                unsafe fn splat(v: f32) -> Self {
                    $splat(v)
                }
                #[inline(always)]
                unsafe fn load(p: *const f32) -> Self {
                    $load(p)
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut f32) {
                    $store(p, self)
                }
                #[inline(always)]
                unsafe fn add_mul(self, v: Self, p: Self) -> Self {
                    $add(self, $mul(v, p))
                }
            }
        };
    }

    lanes!(__m128, 4: _mm_setzero_ps, _mm_set1_ps, _mm_loadu_ps,
        _mm_storeu_ps, _mm_mul_ps, _mm_add_ps);
    lanes!(__m256, 8: _mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps,
        _mm256_storeu_ps, _mm256_mul_ps, _mm256_add_ps);
    lanes!(__m512, 16: _mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps,
        _mm512_storeu_ps, _mm512_mul_ps, _mm512_add_ps);

    /// Left edges of the `tile`-wide output tiles covering a row of `w`
    /// pixels: whole tiles from 0, then, when `w` is not a multiple of
    /// `tile`, one last tile at `w − tile` that overlaps its neighbour.
    /// Every yielded `x` has `x + tile ≤ w`, so a row narrower than `tile`
    /// yields none.
    fn tile_starts(w: usize, tile: usize) -> impl Iterator<Item = usize> {
        let overlapping = w.checked_sub(tile).filter(|_| !w.is_multiple_of(tile));
        (0..w / tile).map(move |t| t * tile).chain(overlapping)
    }

    /// The row pass into `tmp` and the column pass into `out` on `T`
    /// registers of `V` per tile, the column pass sweeping `R` output rows
    /// per source-row load (its last `h % R` rows one at a time).
    ///
    /// # Safety
    ///
    /// The three grids share one shape at least `T · V::N` wide, `profile`
    /// is odd-length, and the host supports `V`'s tier.
    #[inline(always)]
    unsafe fn separable<V: Lanes, const T: usize, const R: usize>(
        input: &Grid,
        profile: &[f32],
        row: &mut [f32],
        tmp: &mut Grid,
        out: &mut Grid,
    ) {
        let ((w, h), tile) = (input.shape(), T * V::N);
        let (padded, trimmed, c) = padded_row(row, profile, w);
        let (src, dst) = (input.as_slice(), tmp.as_mut_slice());
        for y in 0..h {
            padded[c..c + w].copy_from_slice(&src[y * w..(y + 1) * w]);
            let out_row = &mut dst[y * w..(y + 1) * w];
            for x in tile_starts(w, tile) {
                // SAFETY: `tile_starts` yields only `x + tile <= w`, and
                // `padded.len() == w + 2c`, `trimmed.len() == 2c + 1`
                row_tile::<V, T>(padded, trimmed, out_row, x, c, live_taps(x, tile, w, c));
            }
        }
        let (src, dst, blocked) = (tmp.as_slice(), out.as_mut_slice(), h - h % R);
        for y in (0..blocked).step_by(R) {
            for x in tile_starts(w, tile) {
                // SAFETY: `x + tile <= w` and `y + R <= blocked <= h`
                col_block::<V, T, R>(src, profile, dst, x, y, w);
            }
        }
        for y in blocked..h {
            for x in tile_starts(w, tile) {
                // SAFETY: as above with one row: `y + 1 <= h`
                col_block::<V, T, 1>(src, profile, dst, x, y, w);
            }
        }
    }

    /// One row-pass output tile of `T` registers at `out_row[x..]`: each
    /// lane `j` adds `padded[x + 2c − k + j] · profile[k]` for the taps `k`
    /// of `taps` in increasing order.
    ///
    /// # Safety
    ///
    /// `x + T·N <= out_row.len()`, `padded.len() >= x + 2c + T·N`,
    /// `taps.end <= min(profile.len(), 2c + 1)`, and the host supports
    /// `V`'s tier.
    #[inline(always)]
    unsafe fn row_tile<V: Lanes, const T: usize>(
        padded: &[f32],
        profile: &[f32],
        out_row: &mut [f32],
        x: usize,
        c: usize,
        taps: Range<usize>,
    ) {
        let mut acc = [V::zero(); T];
        for (k, &p) in taps.clone().zip(&profile[taps]) {
            let (p, base) = (V::splat(p), padded.as_ptr().add(x + 2 * c - k));
            for (i, a) in acc.iter_mut().enumerate() {
                *a = a.add_mul(V::load(base.add(i * V::N)), p);
            }
        }
        let dst = out_row.as_mut_ptr().add(x);
        for (i, a) in acc.iter().enumerate() {
            a.store(dst.add(i * V::N));
        }
    }

    /// One column-pass block of `R` output rows × `T` registers at rows
    /// `y .. y + R`, columns `x ..` of `dst`. Each source row `s` in the
    /// block's reach is loaded once and added to every row `r` whose tap
    /// `k = y + r + c − s` lies in the profile; `s` falls, so each row's
    /// `k` rises.
    ///
    /// # Safety
    ///
    /// `src.len() == dst.len() == w · h` for a height `h >= y + R`,
    /// `x + T·N <= w`, and the host supports `V`'s tier.
    #[inline(always)]
    unsafe fn col_block<V: Lanes, const T: usize, const R: usize>(
        src: &[f32],
        profile: &[f32],
        dst: &mut [f32],
        x: usize,
        y: usize,
        w: usize,
    ) {
        let (c, h) = (profile.len() / 2, src.len() / w);
        let mut acc = [[V::zero(); T]; R];
        // the block's reach, rows `y − c ..= y + R − 1 + c` clipped to the
        // grid (a half-open range: an inclusive one costs ~10% here)
        let (top, end) = (y.saturating_sub(c), (y + R + c).min(h));
        for s in (top..end).rev() {
            let base = src.as_ptr().add(s * w + x);
            let mut v = [V::zero(); T];
            for (i, vi) in v.iter_mut().enumerate() {
                *vi = V::load(base.add(i * V::N));
            }
            for (r, row_acc) in acc.iter_mut().enumerate() {
                // past the profile when `s` lies outside this row's reach:
                // above it `k > 2c`, below it the subtraction wraps
                let k = (y + r + c).wrapping_sub(s);
                if k < profile.len() {
                    let p = V::splat(profile[k]);
                    for (a, &vi) in row_acc.iter_mut().zip(&v) {
                        *a = a.add_mul(vi, p);
                    }
                }
            }
        }
        for (r, row_acc) in acc.iter().enumerate() {
            let out = dst.as_mut_ptr().add((y + r) * w + x);
            for (i, a) in row_acc.iter().enumerate() {
                a.store(out.add(i * V::N));
            }
        }
    }

    /// Instantiates [`separable`], and its safety contract, as tier `$name`
    /// with its instruction set enabled: `$t` registers of `$v` per tile,
    /// `$r` rows per column sweep (SSE2 sweeps one: three would need 24 of
    /// its 16 registers).
    macro_rules! tier {
        ($name:ident, $feature:literal, $v:ty, $t:literal, $r:literal) => {
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $name(
                i: &Grid,
                k: &[f32],
                r: &mut [f32],
                t: &mut Grid,
                o: &mut Grid,
            ) {
                separable::<$v, $t, $r>(i, k, r, t, o)
            }
        };
    }

    tier!(sse2, "sse2", __m128, 8, 1);
    tier!(avx2, "avx2", __m256, 4, 3);
    tier!(avx512, "avx512f", __m512, 4, 3);
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
