//! Training-set construction (the paper's Fig. 5 pipeline).
//!
//! Sampled (layout, decomposition) pairs are labeled by running the full
//! ILT optimization and computing the Eq. 9 score of the result; labels
//! are z-score normalized before regression.

use crate::sampling::{
    sample_decompositions, sample_decompositions_random, sample_layouts, sample_layouts_random,
    SamplingConfig,
};
use crate::score::{printability_score, Normalizer, ScoreWeights};
use ldmo_geom::Grid;
use ldmo_guard::{fault, penalty_score, DegradeReason};
use ldmo_ilt::{IltConfig, IltContext, OutcomeHealth};
use ldmo_layout::{Layout, MaskAssignment};
use ldmo_nn::Tensor;

/// Which sampling strategy assembles the training pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerKind {
    /// The paper's engineered strategy: SIFT + k-medoids layouts,
    /// MST + 3-wise decompositions.
    Engineered,
    /// The Fig. 8 baseline: uniform layouts and uniform decompositions of
    /// matched sizes.
    Random,
}

/// Dataset-construction parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatasetConfig {
    /// ILT engine used for labeling (full 29-iteration runs, `Run` policy).
    pub ilt: IltConfig,
    /// Eq. 9 weights.
    pub weights: ScoreWeights,
}

/// A labeled training set of decomposition images.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Decomposition images at the litho raster scale.
    pub images: Vec<Grid>,
    /// Raw Eq. 9 scores.
    pub raw_scores: Vec<f64>,
    /// Z-score-normalized labels.
    pub labels: Vec<f32>,
    /// The normalizer fitted to `raw_scores`; augmentation reuses it so
    /// the added samples share the original labels' scale.
    pub normalizer: Normalizer,
    /// The `(layout index, assignment)` provenance of each sample.
    pub provenance: Vec<(usize, MaskAssignment)>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Returns the dataset augmented with the symmetries of the optical
    /// model (horizontal/vertical mirror and 90° rotation): the kernels are
    /// radially symmetric, so a transformed decomposition image has exactly
    /// the same post-ILT printability score as the original — four labeled
    /// samples for the labeling cost of one. The paper's CNN relies on the
    /// analogous invariances ("recognize typical pattern distribution,
    /// ignore slight layout movement and rotation").
    pub fn augmented(&self) -> Dataset {
        let mut images = Vec::with_capacity(self.images.len() * 4);
        let mut raw_scores = Vec::with_capacity(self.raw_scores.len() * 4);
        let mut provenance = Vec::with_capacity(self.provenance.len() * 4);
        for (i, img) in self.images.iter().enumerate() {
            let variants = [
                img.clone(),
                img.flip_horizontal(),
                img.flip_vertical(),
                img.rotate90(),
            ];
            for v in variants {
                images.push(v);
                raw_scores.push(self.raw_scores[i]);
                provenance.push(self.provenance[i].clone());
            }
        }
        let labels = raw_scores
            .iter()
            .map(|&s| self.normalizer.apply(s) as f32)
            .collect();
        Dataset {
            images,
            raw_scores,
            labels,
            normalizer: self.normalizer,
            provenance,
        }
    }

    /// Builds an input/label mini-batch from sample `indices`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or out of range.
    pub fn batch(&self, indices: &[usize], input_size: usize) -> (Tensor, Tensor) {
        assert!(!indices.is_empty(), "batch must be non-empty");
        let grids: Vec<Grid> = indices.iter().map(|&i| self.images[i].clone()).collect();
        let inputs = crate::predictor::grids_to_batch(&grids, input_size);
        let labels = Tensor::from_vec(
            vec![indices.len(), 1],
            indices.iter().map(|&i| self.labels[i]).collect(),
        );
        (inputs, labels)
    }
}

/// Assembles and labels a training set from `layouts` with the chosen
/// sampling strategy, fanning the labeling runs across the global
/// [`ldmo_par`] pool. This is the expensive step: every sample costs one
/// full ILT run.
///
/// # Panics
///
/// Panics if `layouts` is empty or sampling selects no pairs.
pub fn build_dataset(
    layouts: &[Layout],
    kind: &SamplerKind,
    scfg: &SamplingConfig,
    dcfg: &DatasetConfig,
) -> Dataset {
    build_dataset_pooled(layouts, kind, scfg, dcfg, &ldmo_par::global())
}

/// [`build_dataset`] on an explicit pool (bit-identical for any pool size;
/// `threads == 1` is the exact serial labeling loop).
///
/// # Panics
///
/// Panics if `layouts` is empty or sampling selects no pairs.
pub fn build_dataset_pooled(
    layouts: &[Layout],
    kind: &SamplerKind,
    scfg: &SamplingConfig,
    dcfg: &DatasetConfig,
    pool: &ldmo_par::ThreadPool,
) -> Dataset {
    assert!(!layouts.is_empty(), "need layouts to sample from");
    let mut span = ldmo_obs::span("dataset.build");
    let selected = match kind {
        SamplerKind::Engineered => sample_layouts(layouts, scfg),
        SamplerKind::Random => {
            // match the engineered selection size for a fair Fig. 8
            let target = sample_layouts(layouts, scfg).len();
            sample_layouts_random(layouts, target, scfg.seed ^ 0xFACE)
        }
    };
    // flatten the deterministic sampling into one work list so the
    // expensive labeling runs fan out over independent (layout, decomp)
    // pairs; output stays in the serial loop's order
    let mut pairs: Vec<(usize, MaskAssignment)> = Vec::new();
    for &li in &selected {
        let layout = &layouts[li];
        let decomps = match kind {
            SamplerKind::Engineered => sample_decompositions(layout, scfg),
            SamplerKind::Random => {
                let target = sample_decompositions(layout, scfg).len();
                sample_decompositions_random(layout, target, scfg.seed ^ li as u64)
            }
        };
        pairs.extend(decomps.into_iter().map(|d| (li, d)));
    }
    span.set("samples", pairs.len() as f64);
    span.set("pool", pool.threads() as f64);
    // one kernel-bank expansion serves every labeling run; each worker
    // recycles one IltScratch across its chunk of samples
    let ctx = IltContext::new(&dcfg.ilt);
    let indexed: Vec<(usize, &(usize, MaskAssignment))> = pairs.iter().enumerate().collect();
    // the catching fan isolates a panicking sample to its own slot; its
    // image is rebuilt on the calling thread below and its label replaced
    // by the deterministic worker-panic penalty
    let labeled = pool.par_map_init_catching(
        &indexed,
        || None::<ldmo_ilt::IltScratch>,
        |scratch, &(task, (li, d))| {
            fault::apply_stall(task);
            fault::maybe_panic(task);
            let layout = &layouts[*li];
            let outcome = ctx.optimize_reusing(layout, d, scratch);
            let score = match outcome.health {
                OutcomeHealth::Degraded { reason } => {
                    ldmo_obs::incr("guard.sample_penalized");
                    penalty_score(reason)
                }
                _ => printability_score(&outcome, &dcfg.weights),
            };
            let img = layout
                .decomposition_image(d, dcfg.ilt.litho.nm_per_px)
                .expect("sampled assignments are valid");
            (img, score)
        },
    );
    let mut images = Vec::with_capacity(labeled.len());
    let mut raw_scores = Vec::with_capacity(labeled.len());
    for (slot, (li, d)) in labeled.into_iter().zip(&pairs) {
        match slot {
            Ok((img, score)) => {
                images.push(img);
                raw_scores.push(score);
            }
            Err(_) => {
                ldmo_obs::incr("guard.sample_penalized");
                let img = layouts[*li]
                    .decomposition_image(d, dcfg.ilt.litho.nm_per_px)
                    .expect("sampled assignments are valid");
                images.push(img);
                raw_scores.push(penalty_score(DegradeReason::WorkerPanic));
            }
        }
    }
    let provenance = pairs;
    assert!(!raw_scores.is_empty(), "sampling produced no pairs");
    let normalizer = Normalizer::fit(&raw_scores);
    let labels = raw_scores
        .iter()
        .map(|&s| normalizer.apply(s) as f32)
        .collect();
    Dataset {
        images,
        raw_scores,
        labels,
        normalizer,
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    /// Tiny, fast configuration for unit tests: 4 ILT iterations.
    fn fast_dcfg() -> DatasetConfig {
        let mut cfg = DatasetConfig::default();
        cfg.ilt.max_iterations = 4;
        cfg
    }

    fn fast_scfg() -> SamplingConfig {
        SamplingConfig {
            clusters: 2,
            per_cluster: 1,
            max_per_layout: 3,
            ..SamplingConfig::default()
        }
    }

    fn tiny_layouts() -> Vec<Layout> {
        let win = Rect::new(0, 0, 448, 448);
        vec![
            Layout::new(
                win,
                vec![Rect::square(60, 60, 64), Rect::square(190, 60, 64)],
            ),
            Layout::new(
                win,
                vec![Rect::square(60, 60, 64), Rect::square(60, 200, 64)],
            ),
            Layout::new(
                win,
                vec![
                    Rect::square(60, 60, 64),
                    Rect::square(190, 60, 64),
                    Rect::square(60, 190, 64),
                ],
            ),
        ]
    }

    #[test]
    fn engineered_dataset_builds_and_normalizes() {
        let layouts = tiny_layouts();
        let ds = build_dataset(
            &layouts,
            &SamplerKind::Engineered,
            &fast_scfg(),
            &fast_dcfg(),
        );
        assert!(!ds.is_empty());
        assert_eq!(ds.images.len(), ds.labels.len());
        assert_eq!(ds.images.len(), ds.provenance.len());
        // z-scored labels have ~zero mean
        let mean: f32 = ds.labels.iter().sum::<f32>() / ds.labels.len() as f32;
        assert!(mean.abs() < 1e-3, "label mean {mean}");
    }

    #[test]
    fn random_dataset_differs_from_engineered() {
        let layouts = tiny_layouts();
        let a = build_dataset(
            &layouts,
            &SamplerKind::Engineered,
            &fast_scfg(),
            &fast_dcfg(),
        );
        let b = build_dataset(&layouts, &SamplerKind::Random, &fast_scfg(), &fast_dcfg());
        assert!(!b.is_empty());
        // strategies need not match sample-for-sample
        assert!(a.provenance != b.provenance || a.raw_scores != b.raw_scores);
    }

    #[test]
    fn augmentation_quadruples_and_preserves_labels() {
        let layouts = tiny_layouts();
        let ds = build_dataset(
            &layouts,
            &SamplerKind::Engineered,
            &fast_scfg(),
            &fast_dcfg(),
        );
        let aug = ds.augmented();
        assert_eq!(aug.len(), ds.len() * 4);
        // each group of four shares the original's label
        for i in 0..ds.len() {
            for k in 0..4 {
                assert_eq!(aug.labels[i * 4 + k], ds.labels[i]);
                assert_eq!(aug.provenance[i * 4 + k], ds.provenance[i]);
            }
            // the first variant is the untransformed image
            assert_eq!(aug.images[i * 4], ds.images[i]);
        }
    }

    #[test]
    fn batch_shapes() {
        let layouts = tiny_layouts();
        let ds = build_dataset(
            &layouts,
            &SamplerKind::Engineered,
            &fast_scfg(),
            &fast_dcfg(),
        );
        let idx: Vec<usize> = (0..ds.len().min(2)).collect();
        let (x, y) = ds.batch(&idx, 56);
        assert_eq!(x.shape(), &[idx.len(), 1, 56, 56]);
        assert_eq!(y.shape(), &[idx.len(), 1]);
    }
}
