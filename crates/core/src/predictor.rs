//! The CNN printability predictor (paper Section III-B).
//!
//! Candidates are rendered as grayscale decomposition images (mask 0 at
//! level 1.0, mask 1 at level 0.5), canonicalized against the dual-mask
//! symmetry, resized to the network input, and scored. The paper's rule
//! for rejected candidates — "we mark the previous outputs and when facing
//! the same decomposition, we drop it to avoid giving the same output" —
//! holds by construction in [`crate::select::attempt_ladder`], which never
//! attempts a (canonically deduplicated) candidate twice.

use ldmo_decomp::canonical::canonicalize;
use ldmo_geom::Grid;
use ldmo_layout::Layout;
use ldmo_nn::resnet::{resnet_lite_config, ResNetConfig, ResNetRegressor};
use ldmo_nn::{serialize, NnError, Tensor};
use std::path::Path;

/// The printability predictor: a ResNet regressor plus the image pipeline.
pub struct PrintabilityPredictor {
    net: ResNetRegressor,
    /// Raster scale used when rendering decomposition images (must match
    /// training).
    nm_per_px: f64,
}

impl PrintabilityPredictor {
    /// Creates an untrained predictor with the given architecture.
    pub fn new(config: ResNetConfig, nm_per_px: f64) -> Self {
        PrintabilityPredictor {
            net: ResNetRegressor::new(config),
            nm_per_px,
        }
    }

    /// The default CPU-scale predictor (ResNet-lite at 56×56).
    pub fn lite(seed: u64) -> Self {
        PrintabilityPredictor::new(resnet_lite_config(seed), 2.0)
    }

    /// The underlying network (for training).
    pub fn network_mut(&mut self) -> &mut ResNetRegressor {
        &mut self.net
    }

    /// Renders a candidate into the network's input tensor: grayscale
    /// decomposition image at `nm_per_px`, average-pooled down to the
    /// network input size.
    ///
    /// # Panics
    ///
    /// Panics if the rasterized image is not an integer multiple of the
    /// network input size (e.g. a non-448 nm window with the lite net).
    pub fn render_input(&self, layout: &Layout, assignment: &[u8]) -> Tensor {
        let mut canonical = assignment.to_vec();
        canonicalize(&mut canonical);
        let img = layout
            .decomposition_image(&canonical, self.nm_per_px)
            .expect("assignment matches layout");
        grid_to_input(&img, self.net.config().input_size)
    }

    /// Predicted (z-score) printability score of one candidate — lower is
    /// better.
    pub fn predict(&mut self, layout: &Layout, assignment: &[u8]) -> f32 {
        let input = self.render_input(layout, assignment);
        self.net.predict(&input)[0]
    }

    /// Scores all candidates and returns indices sorted best-first.
    pub fn rank(&mut self, layout: &Layout, candidates: &[Vec<u8>]) -> Vec<usize> {
        let scores = candidates
            .iter()
            .map(|c| f64::from(self.predict(layout, c)));
        crate::select::order_by_score(scores.collect())
    }

    /// Saves network weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on I/O failure.
    pub fn save(&mut self, path: impl AsRef<Path>) -> Result<(), NnError> {
        serialize::save(&mut self.net, path)
    }

    /// Loads network weights saved by [`PrintabilityPredictor::save`] into
    /// this predictor's architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the checkpoint was saved
    /// from a different architecture, or [`NnError::Io`] on I/O failure.
    pub fn load(&mut self, path: impl AsRef<Path>) -> Result<(), NnError> {
        serialize::load(&mut self.net, path)
    }
}

/// Converts a raster grid to a `[1, 1, S, S]` network input, average-pooling
/// by the integral factor between the grid and the network size.
///
/// # Panics
///
/// Panics if the grid is not square or not an integer multiple of `size`.
pub fn grid_to_input(img: &Grid, size: usize) -> Tensor {
    let (w, h) = img.shape();
    assert_eq!(w, h, "decomposition images must be square");
    assert_eq!(w % size, 0, "grid size {w} is not a multiple of {size}");
    let factor = w / size;
    let small = if factor > 1 {
        img.downsample_avg(factor)
    } else {
        img.clone()
    };
    Tensor::from_vec(vec![1, 1, size, size], small.into_vec())
}

/// Stacks multiple grids into one `[N, 1, S, S]` batch.
///
/// # Panics
///
/// Panics if `grids` is empty or any grid mismatches (see
/// [`grid_to_input`]).
pub fn grids_to_batch(grids: &[Grid], size: usize) -> Tensor {
    assert!(!grids.is_empty(), "batch must be non-empty");
    let mut data = Vec::with_capacity(grids.len() * size * size);
    for g in grids {
        data.extend_from_slice(grid_to_input(g, size).as_slice());
    }
    Tensor::from_vec(vec![grids.len(), 1, size, size], data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    fn layout() -> Layout {
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![Rect::square(60, 60, 64), Rect::square(200, 60, 64)],
        )
    }

    #[test]
    fn render_shape_matches_network() {
        let predictor = PrintabilityPredictor::lite(1);
        let input = predictor.render_input(&layout(), &[0, 1]);
        assert_eq!(input.shape(), &[1, 1, 56, 56]);
    }

    #[test]
    fn dual_assignments_render_identically() {
        let predictor = PrintabilityPredictor::lite(1);
        let a = predictor.render_input(&layout(), &[0, 1]);
        let b = predictor.render_input(&layout(), &[1, 0]);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn predict_is_deterministic() {
        let mut predictor = PrintabilityPredictor::lite(3);
        let s1 = predictor.predict(&layout(), &[0, 1]);
        let s2 = predictor.predict(&layout(), &[0, 1]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn batch_stacks_inputs() {
        let g1 = Grid::filled(112, 112, 0.0);
        let g2 = Grid::filled(112, 112, 1.0);
        let batch = grids_to_batch(&[g1, g2], 56);
        assert_eq!(batch.shape(), &[2, 1, 56, 56]);
        assert_eq!(batch.as_slice()[0], 0.0);
        assert_eq!(batch.as_slice()[56 * 56], 1.0);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn non_integral_downsample_rejected() {
        let g = Grid::filled(100, 100, 0.0);
        let _ = grid_to_input(&g, 56);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("ldmo_predictor_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("weights.bin");
        let mut a = PrintabilityPredictor::lite(17);
        let before = a.predict(&layout(), &[0, 1]);
        a.save(&path).expect("save");
        let mut b = PrintabilityPredictor::lite(99);
        b.load(&path).expect("load");
        let after = b.predict(&layout(), &[0, 1]);
        assert_eq!(before, after);
        let _ = std::fs::remove_file(&path);
    }
}
