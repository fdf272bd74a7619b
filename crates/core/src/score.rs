//! The printability score of Eq. 9 and z-score label normalization.
//!
//! `score = α · L2 + β · #EPE + γ · #Violation` with the paper's weights
//! `α = 1`, `β = 3500`, `γ = 8000`. Lower is better. Z-score
//! regularization makes labels comparable across layouts before the CNN
//! regresses them.

use ldmo_ilt::IltOutcome;

/// Eq. 9 weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreWeights {
    /// L2-error weight `α` (paper: 1).
    pub alpha: f64,
    /// EPE-violation weight `β` (paper: 3500).
    pub beta: f64,
    /// Print-violation weight `γ` (paper: 8000).
    pub gamma: f64,
}

impl Default for ScoreWeights {
    fn default() -> Self {
        ScoreWeights {
            alpha: 1.0,
            beta: 3500.0,
            gamma: 8000.0,
        }
    }
}

/// Eq. 9: the raw (unnormalized) printability score of an ILT outcome.
pub fn printability_score(outcome: &IltOutcome, w: &ScoreWeights) -> f64 {
    w.alpha * outcome.l2
        + w.beta * outcome.epe_violations() as f64
        + w.gamma * outcome.violations.count() as f64
}

/// Z-score normalizer fitted on a label population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalizer {
    /// Population mean.
    pub mean: f64,
    /// Population standard deviation (floored at a tiny epsilon).
    pub std: f64,
}

impl Normalizer {
    /// Fits mean/std on `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn fit(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot fit a normalizer on no data");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Normalizer {
            mean,
            std: var.sqrt().max(1e-9),
        }
    }

    /// Normalizes one value.
    pub fn apply(&self, v: f64) -> f64 {
        (v - self.mean) / self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;
    use ldmo_ilt::{evaluate_unoptimized, IltConfig};
    use ldmo_layout::Layout;

    #[test]
    fn weights_follow_the_paper() {
        let w = ScoreWeights::default();
        assert_eq!((w.alpha, w.beta, w.gamma), (1.0, 3500.0, 8000.0));
    }

    #[test]
    fn score_combines_all_three_terms() {
        // an unoptimized empty-ish outcome gives a concrete IltOutcome to
        // score; verify the arithmetic against its own components
        let layout = Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![Rect::square(100, 100, 64), Rect::square(300, 300, 64)],
        );
        let out = evaluate_unoptimized(&layout, &[0, 1], &IltConfig::default());
        let w = ScoreWeights::default();
        let s = printability_score(&out, &w);
        let expected =
            out.l2 + 3500.0 * out.epe_violations() as f64 + 8000.0 * out.violations.count() as f64;
        assert!((s - expected).abs() < 1e-9);
        assert!(s > 0.0);
    }

    #[test]
    fn normalizer_zero_mean_unit_std() {
        let vals = [2.0, 4.0, 6.0, 8.0];
        let n = Normalizer::fit(&vals);
        let z: Vec<f64> = vals.iter().map(|&v| n.apply(v)).collect();
        let mean: f64 = z.iter().sum::<f64>() / 4.0;
        let var: f64 = z.iter().map(|v| v * v).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_labels_do_not_divide_by_zero() {
        let n = Normalizer::fit(&[5.0, 5.0, 5.0]);
        assert!(n.apply(5.0).is_finite());
        assert_eq!(n.apply(5.0), 0.0);
    }
}
