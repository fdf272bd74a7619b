//! Layout similarity from matched SIFT features (paper Eq. 7 +
//! Algorithm 2).
//!
//! Two feature points match when their descriptor distance is below
//! `Dth = 0.7`; unmatched points contribute the constant distance 1
//! ("their L2-Norm which is 1" for normalized descriptors). The layout
//! distance is the sum of the `c` smallest per-feature distances, which
//! makes layouts with different feature counts comparable.

use crate::sift::Feature;

/// Similarity parameters (paper values: `Dth = 0.7`, `c = 60`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityConfig {
    /// Matching threshold on descriptor distance.
    pub d_th: f64,
    /// Number of smallest distances summed into the layout distance.
    pub c: usize,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig { d_th: 0.7, c: 60 }
    }
}

/// Algorithm 2: greedy matching of `a`'s features against `b`'s, each
/// match thresholded per Eq. 7 (distance above `d_th` counts as 1), then
/// the sum of the `c` smallest distances. Lower = more similar; identical
/// layouts score 0 (when they have features at all).
pub fn layout_distance(a: &[Feature], b: &[Feature], cfg: &SimilarityConfig) -> f64 {
    let mut used = vec![false; b.len()];
    let mut dists: Vec<f64> = Vec::with_capacity(a.len());
    for fa in a {
        // find the minimum-distance unmatched feature in b
        let mut best: Option<(usize, f64)> = None;
        for (j, fb) in b.iter().enumerate() {
            if used[j] {
                continue;
            }
            let d = fa.descriptor_dist(fb);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((j, d));
            }
        }
        match best {
            Some((j, d)) if d <= cfg.d_th => {
                used[j] = true;
                dists.push(d);
            }
            _ => dists.push(1.0),
        }
    }
    dists.sort_by(f64::total_cmp);
    dists.iter().take(cfg.c).sum()
}

/// Pairwise distance matrix over per-layout feature sets (symmetrized,
/// since Algorithm 2's greedy matching is not exactly symmetric). Rows of
/// the upper triangle are computed on the global [`ldmo_par`] pool; each
/// entry depends only on its own feature pair, so the matrix is identical
/// for any thread count.
pub fn distance_matrix(features: &[Vec<Feature>], cfg: &SimilarityConfig) -> Vec<Vec<f64>> {
    let n = features.len();
    let rows: Vec<usize> = (0..n).collect();
    let upper = ldmo_par::global().par_map(&rows, |&i| {
        ((i + 1)..n)
            .map(|j| {
                0.5 * (layout_distance(&features[i], &features[j], cfg)
                    + layout_distance(&features[j], &features[i], cfg))
            })
            .collect::<Vec<f64>>()
    });
    let mut m = vec![vec![0.0; n]; n];
    for (i, row) in upper.into_iter().enumerate() {
        for (off, d) in row.into_iter().enumerate() {
            let j = i + 1 + off;
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sift::{extract_features, SiftConfig};
    use ldmo_geom::{Grid, Rect};

    fn feats(corners: &[(i32, i32)]) -> Vec<Feature> {
        let mut img = Grid::zeros(96, 96);
        for &(x, y) in corners {
            img.fill_rect(&Rect::new(x, y, x + 24, y + 24), 1.0);
        }
        extract_features(&img, &SiftConfig::default())
    }

    #[test]
    fn self_distance_is_zero() {
        let f = feats(&[(20, 20), (50, 50)]);
        assert!(!f.is_empty());
        assert_eq!(layout_distance(&f, &f, &SimilarityConfig::default()), 0.0);
    }

    #[test]
    fn translated_layout_is_close_different_layout_is_far() {
        let cfg = SimilarityConfig::default();
        let a = feats(&[(20, 20), (52, 20)]);
        let translated = feats(&[(28, 30), (60, 30)]);
        let different = feats(&[(20, 20), (20, 52), (52, 20), (52, 52)]);
        let d_near = layout_distance(&a, &translated, &cfg);
        let d_far = layout_distance(&a, &different, &cfg);
        assert!(
            d_near < d_far,
            "translated {d_near} should be closer than different {d_far}"
        );
    }

    #[test]
    fn unmatched_features_contribute_one() {
        let cfg = SimilarityConfig::default();
        let a = feats(&[(20, 20)]);
        let empty: Vec<Feature> = Vec::new();
        let d = layout_distance(&a, &empty, &cfg);
        assert_eq!(d, a.len().min(cfg.c) as f64);
    }

    #[test]
    fn c_caps_the_sum() {
        let cfg = SimilarityConfig { d_th: 0.7, c: 2 };
        let a = feats(&[(10, 10), (40, 10), (10, 40), (40, 40)]);
        let empty: Vec<Feature> = Vec::new();
        assert_eq!(layout_distance(&a, &empty, &cfg), 2.0);
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let sets = vec![
            feats(&[(20, 20)]),
            feats(&[(50, 50)]),
            feats(&[(20, 20), (50, 50)]),
        ];
        let m = distance_matrix(&sets, &SimilarityConfig::default());
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
    }
}
