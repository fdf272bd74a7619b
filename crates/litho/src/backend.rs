//! Which separable pass the litho forward model runs (DESIGN.md §13).
//!
//! The platform picks the pass: [`crate::convolve_separable_into`] runs the
//! vector passes on x86_64, at the widest tier the CPU reports (AVX-512,
//! AVX2 or SSE2; [`resolved_isa`] names it), and the register-blocked
//! scalar passes elsewhere. The vector passes are bit-identical to the
//! scalar ones by construction: lanes run across output elements while
//! each element keeps the scalar tap order (increasing `k`), operation
//! shape (`mul` then `add`, never fused) and skipped off-grid source rows.
//! That holds through the overlapping last tile of a row, the three-row
//! column blocks and the row taps skipped because they read only padding.
//!
//! [`set_backend`] is an in-process switch with no flag or environment
//! variable behind it: tests and benches flip it to run the scalar
//! reference end to end. Because the passes agree bit-for-bit, the choice
//! changes speed only, never results.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// The separable pass selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// What the platform picks: the vector passes on x86_64, scalar
    /// elsewhere.
    Auto,
    /// The register-blocked scalar passes.
    Scalar,
    /// The vector passes at the widest tier the CPU reports.
    Simd,
}

impl BackendKind {
    /// The canonical lowercase spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// Numeric code for span metadata (`backend` on `flow.run`):
    /// 0 auto (unresolved), 1 scalar, 2 simd.
    pub fn code(self) -> u8 {
        match self {
            BackendKind::Auto => 0,
            BackendKind::Scalar => 1,
            BackendKind::Simd => 2,
        }
    }

    fn from_code(code: u8) -> BackendKind {
        match code {
            1 => BackendKind::Scalar,
            2 => BackendKind::Simd,
            _ => BackendKind::Auto,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The process-global selection; every process starts at `Auto` (code 0).
static SELECTED: AtomicU8 = AtomicU8::new(0);

/// Replaces the process-global selection. Safe at any time: the passes are
/// bit-identical, so in-flight work is unaffected numerically (which is
/// what lets one test process compare them end to end).
pub fn set_backend(kind: BackendKind) {
    SELECTED.store(kind.code(), Ordering::Relaxed);
}

/// The current selection (possibly [`BackendKind::Auto`]).
pub fn backend_kind() -> BackendKind {
    BackendKind::from_code(SELECTED.load(Ordering::Relaxed))
}

/// The pass that actually runs: [`BackendKind::Simd`] on x86_64 unless
/// [`BackendKind::Scalar`] was selected, [`BackendKind::Scalar`] elsewhere.
pub fn resolved_kind() -> BackendKind {
    match backend_kind() {
        BackendKind::Scalar => BackendKind::Scalar,
        _ if cfg!(target_arch = "x86_64") => BackendKind::Simd,
        _ => BackendKind::Scalar,
    }
}

/// The instruction set the separable passes run at: `avx512`, `avx2` or
/// `sse2` under [`BackendKind::Simd`] (the widest tier the CPU reports;
/// grids narrower than 64 px run AVX2 there, and narrower than 32 px the
/// scalar passes), `scalar` under [`BackendKind::Scalar`].
pub fn resolved_isa() -> &'static str {
    match resolved_kind() {
        #[cfg(target_arch = "x86_64")]
        BackendKind::Simd => crate::conv::Tier::widest().as_str(),
        _ => "scalar",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_a_concrete_backend() {
        assert_ne!(resolved_kind(), BackendKind::Auto);
        for kind in [BackendKind::Auto, BackendKind::Scalar, BackendKind::Simd] {
            assert_eq!(BackendKind::from_code(kind.code()), kind);
        }
        assert!(["avx512", "avx2", "sse2", "scalar"].contains(&resolved_isa()));
    }
}
