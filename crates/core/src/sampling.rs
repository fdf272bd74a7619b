//! Training-set sampling strategies (paper Section IV).
//!
//! - **Layout sampling** (IV-A): SIFT features per layout → Algorithm 2
//!   distance matrix → k-medoids → a few layouts per cluster. This covers
//!   the layout space with far fewer simulations than uniform sampling.
//! - **Decomposition sampling** (IV-B): Algorithm 1
//!   ([`generate_candidates`]) with no `NP` array. Patterns closer than
//!   `nmin` are `SP` (MST + component flips), the `VP` band is widened to
//!   every other pattern, so each is a direct factor, and one
//!   *three-wise* covering array generates the decompositions to label —
//!   "any sub-region with three patterns, the training set contains the
//!   complete combination of them".
//! - **Random sampling**: the Fig. 8 ablation baseline.

use ldmo_decomp::canonical::canonical_dedup;
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_layout::classify::ClassifyConfig;
use ldmo_layout::{Layout, MaskAssignment};
use ldmo_vision::kmedoids::kmedoids;
use ldmo_vision::sift::{extract_features, SiftConfig};
use ldmo_vision::similarity::{distance_matrix, SimilarityConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Parameters of the sampling pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingConfig {
    /// Number of k-medoids clusters (the paper's `m`; 50 at paper scale).
    pub clusters: usize,
    /// Layouts drawn per cluster (the paper draws 5).
    pub per_cluster: usize,
    /// SIFT extraction parameters.
    pub sift: SiftConfig,
    /// Algorithm 2 parameters (`Dth`, `c`).
    pub similarity: SimilarityConfig,
    /// Raster scale for feature images, nm per pixel. A coarser scale than
    /// the litho raster (4 nm/px) keeps the SIFT pass fast.
    pub feature_nm_per_px: f64,
    /// `nmin` used for the SP/non-SP split of Section IV-B.
    pub nmin: f64,
    /// Covering strength of the decomposition-sampling array (paper: 3).
    pub strength: usize,
    /// Cap on decompositions sampled per layout (0 = unlimited).
    pub max_per_layout: usize,
    /// RNG seed for the per-cluster draws.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            clusters: 8,
            per_cluster: 3,
            sift: SiftConfig::default(),
            similarity: SimilarityConfig::default(),
            feature_nm_per_px: 4.0,
            nmin: ClassifyConfig::default().nmin,
            strength: 3,
            max_per_layout: 16,
            seed: 0,
        }
    }
}

/// Layout sampling (Section IV-A): returns indices of the selected
/// representative layouts.
///
/// # Panics
///
/// Panics if `layouts` is empty.
pub fn sample_layouts(layouts: &[Layout], cfg: &SamplingConfig) -> Vec<usize> {
    assert!(!layouts.is_empty(), "need at least one layout");
    let features: Vec<_> = layouts
        .iter()
        .map(|l| extract_features(&l.rasterize_target(cfg.feature_nm_per_px), &cfg.sift))
        .collect();
    let dist = distance_matrix(&features, &cfg.similarity);
    let clustering = kmedoids(&dist, cfg.clusters.min(layouts.len()), cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5A17);
    let mut selected = Vec::new();
    for c in 0..clustering.medoids.len() {
        let mut members = clustering.members(c);
        members.shuffle(&mut rng);
        selected.extend(members.into_iter().take(cfg.per_cluster));
    }
    selected.sort_unstable();
    selected.dedup();
    selected
}

/// Random layout sampling (the Fig. 8 baseline): a uniform draw of the same
/// size the engineered strategy would produce.
pub fn sample_layouts_random(layouts: &[Layout], count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..layouts.len()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(count.min(layouts.len()));
    idx.sort_unstable();
    idx
}

/// Decomposition sampling (Section IV-B): MST over sub-`nmin` patterns plus
/// one strength-`cfg.strength` covering array over (component flips ∪ all
/// other patterns). This is [`generate_candidates`] with `nmax = ∞`, so
/// every non-`SP` pattern is a `VP` factor and the `NP` array is one
/// empty row.
pub fn sample_decompositions(layout: &Layout, cfg: &SamplingConfig) -> Vec<MaskAssignment> {
    let decomp = DecompConfig {
        classify: ClassifyConfig {
            nmin: cfg.nmin,
            nmax: f64::INFINITY,
        },
        strength_primary: cfg.strength,
        strength_secondary: 0,
        max_candidates: cfg.max_per_layout,
    };
    generate_candidates(layout, &decomp)
}

/// Random decomposition sampling (the Fig. 8 baseline): uniform random
/// assignments, canonicalized and deduplicated.
pub fn sample_decompositions_random(
    layout: &Layout,
    count: usize,
    seed: u64,
) -> Vec<MaskAssignment> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = layout.len();
    let mut rows = Vec::with_capacity(count * 2);
    // a handful of retries covers collisions after canonicalization
    for _ in 0..count * 4 {
        let row: MaskAssignment = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
        rows.push(row);
    }
    let mut out = canonical_dedup(rows);
    out.truncate(count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;
    use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};

    fn small_cfg() -> SamplingConfig {
        SamplingConfig {
            clusters: 3,
            per_cluster: 2,
            ..SamplingConfig::default()
        }
    }

    #[test]
    fn layout_sampling_selects_subset_across_clusters() {
        let mut gen = LayoutGenerator::new(GeneratorConfig::default(), 21);
        let layouts = gen.generate_dataset(12);
        let picked = sample_layouts(&layouts, &small_cfg());
        assert!(!picked.is_empty());
        assert!(picked.len() <= 6);
        assert!(picked.iter().all(|&i| i < layouts.len()));
        // no duplicates
        let mut sorted = picked.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), picked.len());
    }

    #[test]
    fn layout_sampling_is_deterministic() {
        let mut gen = LayoutGenerator::new(GeneratorConfig::default(), 22);
        let layouts = gen.generate_dataset(8);
        assert_eq!(
            sample_layouts(&layouts, &small_cfg()),
            sample_layouts(&layouts, &small_cfg())
        );
    }

    #[test]
    fn random_layout_sampling_sizes() {
        let mut gen = LayoutGenerator::new(GeneratorConfig::default(), 23);
        let layouts = gen.generate_dataset(10);
        let picked = sample_layouts_random(&layouts, 4, 9);
        assert_eq!(picked.len(), 4);
        assert_ne!(picked, sample_layouts_random(&layouts, 4, 10));
    }

    #[test]
    fn decomposition_sampling_covers_sp_structure() {
        // three contacts in a chain (gaps 70): the MST forces alternation,
        // so every sampled decomposition separates the chain
        let layout = Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(40, 60, 64),
                Rect::square(174, 60, 64),
                Rect::square(308, 60, 64),
            ],
        );
        let decomps = sample_decompositions(&layout, &small_cfg());
        assert!(!decomps.is_empty());
        for d in &decomps {
            assert_ne!(d[0], d[1]);
            assert_ne!(d[1], d[2]);
            assert_eq!(d[0], 0, "canonical");
        }
    }

    #[test]
    fn decomposition_sampling_explores_free_patterns() {
        // one SP pair plus one distant pattern: the free pattern must
        // appear on both masks across samples
        let layout = Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(40, 60, 64),
                Rect::square(174, 60, 64),
                Rect::square(300, 320, 64),
            ],
        );
        let decomps = sample_decompositions(&layout, &small_cfg());
        let values: std::collections::HashSet<u8> = decomps.iter().map(|d| d[2]).collect();
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn max_per_layout_cap_respected() {
        let mut gen = LayoutGenerator::new(GeneratorConfig::default(), 31);
        let layout = gen.generate_dataset(1).remove(0);
        let cfg = SamplingConfig {
            max_per_layout: 3,
            ..small_cfg()
        };
        assert!(sample_decompositions(&layout, &cfg).len() <= 3);
    }

    #[test]
    fn random_decompositions_are_canonical_unique() {
        let mut gen = LayoutGenerator::new(GeneratorConfig::default(), 33);
        let layout = gen.generate_with_count(5).expect("fits");
        let decomps = sample_decompositions_random(&layout, 8, 3);
        assert!(!decomps.is_empty() && decomps.len() <= 8);
        let set: std::collections::HashSet<_> = decomps.iter().cloned().collect();
        assert_eq!(set.len(), decomps.len());
        assert!(decomps.iter().all(|d| d[0] == 0));
    }
}
