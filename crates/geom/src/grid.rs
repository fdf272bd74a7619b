//! Dense row-major `f32` raster grids (images, masks, aerial intensities).

use crate::{GeomError, Rect};
use std::fmt;

/// A dense `width × height` grid of `f32` values with 1 nm pixels.
///
/// Grids carry target layouts (binary 0/1), relaxed masks (values in
/// `(0, 1)`), aerial intensities and printed resist images. Indexing is
/// `(x, y)` with `x` the column and `y` the row; storage is row-major
/// (`y * width + x`).
///
/// ```
/// use ldmo_geom::{Grid, Rect};
/// let mut g = Grid::zeros(32, 16);
/// g.fill_rect(&Rect::new(4, 4, 8, 8), 1.0);
/// assert_eq!(g.sum(), 16.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Grid {
    /// Creates a grid filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self::filled(width, height, 0.0)
    }

    /// Creates a grid filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Grid {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "buffer length mismatch");
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Grid {
            width,
            height,
            data,
        }
    }

    /// Grid width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the grid, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "grid index out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Value at `(x, y)`, or `0.0` outside the grid (zero padding).
    #[inline]
    pub fn get_padded(&self, x: i64, y: i64) -> f32 {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            0.0
        } else {
            self.data[y as usize * self.width + x as usize]
        }
    }

    /// Sets the value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(
            x < self.width && y < self.height,
            "grid index out of bounds"
        );
        self.data[y * self.width + x] = value;
    }

    /// Fills the intersection of `rect` with the grid with `value`.
    /// Portions of the rectangle outside the grid are ignored.
    pub fn fill_rect(&mut self, rect: &Rect, value: f32) {
        let x0 = rect.x0.max(0) as usize;
        let y0 = rect.y0.max(0) as usize;
        let x1 = (rect.x1.max(0) as usize).min(self.width);
        let y1 = (rect.y1.max(0) as usize).min(self.height);
        for y in y0..y1 {
            let row = &mut self.data[y * self.width..(y + 1) * self.width];
            for v in &mut row[x0..x1] {
                *v = value;
            }
        }
    }

    /// Sum of all values.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v)).sum()
    }

    /// Maximum value (`-inf` never occurs since grids are non-empty).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum value.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Sets every element to `value` without reallocating. The scratch-buffer
    /// counterpart of [`Grid::filled`].
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Overwrites this grid with the contents of `src` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, src: &Grid) {
        assert_eq!(self.shape(), src.shape(), "grids must share a shape");
        self.data.copy_from_slice(&src.data);
    }

    /// Overwrites this grid with `f` applied element-wise to `src` — the
    /// buffer-reuse counterpart of [`Grid::map`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn map_from<F: FnMut(f32) -> f32>(&mut self, src: &Grid, mut f: F) {
        assert_eq!(self.shape(), src.shape(), "grids must share a shape");
        for (d, &s) in self.data.iter_mut().zip(&src.data) {
            *d = f(s);
        }
    }

    /// Overwrites this grid with `f(a, b)` element-wise from two equally
    /// shaped sources — the buffer-reuse counterpart of [`Grid::zip_map`].
    ///
    /// # Panics
    ///
    /// Panics if any shape differs.
    pub fn zip_from<F: FnMut(f32, f32) -> f32>(&mut self, a: &Grid, b: &Grid, mut f: F) {
        assert_eq!(self.shape(), a.shape(), "grids must share a shape");
        assert_eq!(self.shape(), b.shape(), "grids must share a shape");
        for ((d, &x), &y) in self.data.iter_mut().zip(&a.data).zip(&b.data) {
            *d = f(x, y);
        }
    }

    /// New grid with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Grid {
        Grid {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise binary combination of two equally shaped grids.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::ShapeMismatch`] when shapes differ.
    pub fn zip_map<F: FnMut(f32, f32) -> f32>(
        &self,
        other: &Grid,
        mut f: F,
    ) -> Result<Grid, GeomError> {
        if self.shape() != other.shape() {
            return Err(GeomError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(Grid {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Squared L2 distance to `other`: `Σ (a - b)²`.
    ///
    /// This is the paper's "L2 Error" (Definition 2) when `self` is the
    /// printed image and `other` the target image.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::ShapeMismatch`] when shapes differ.
    pub fn l2_dist_sq(&self, other: &Grid) -> Result<f64, GeomError> {
        if self.shape() != other.shape() {
            return Err(GeomError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = f64::from(a) - f64::from(b);
                d * d
            })
            .sum())
    }

    /// Count of pixels `>= threshold`.
    pub fn count_above(&self, threshold: f32) -> usize {
        self.data.iter().filter(|&&v| v >= threshold).count()
    }

    /// Bilinear sample at a floating-point position (zero padded outside).
    pub fn sample_bilinear(&self, x: f64, y: f64) -> f32 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = (x - x0) as f32;
        let fy = (y - y0) as f32;
        let (xi, yi) = (x0 as i64, y0 as i64);
        let v00 = self.get_padded(xi, yi);
        let v10 = self.get_padded(xi + 1, yi);
        let v01 = self.get_padded(xi, yi + 1);
        let v11 = self.get_padded(xi + 1, yi + 1);
        v00 * (1.0 - fx) * (1.0 - fy)
            + v10 * fx * (1.0 - fy)
            + v01 * (1.0 - fx) * fy
            + v11 * fx * fy
    }

    /// The grid mirrored left-right.
    pub fn flip_horizontal(&self) -> Grid {
        let mut out = Grid::zeros(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                out.set(self.width - 1 - x, y, self.get(x, y));
            }
        }
        out
    }

    /// The grid mirrored top-bottom.
    pub fn flip_vertical(&self) -> Grid {
        let mut out = Grid::zeros(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                out.set(x, self.height - 1 - y, self.get(x, y));
            }
        }
        out
    }

    /// The grid rotated 90° counter-clockwise (width and height swap).
    pub fn rotate90(&self) -> Grid {
        let mut out = Grid::zeros(self.height, self.width);
        for y in 0..self.height {
            for x in 0..self.width {
                out.set(y, self.width - 1 - x, self.get(x, y));
            }
        }
        out
    }

    /// Downsamples by an integer `factor` using average pooling. Trailing
    /// rows/columns that do not fill a complete block are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or exceeds either dimension.
    pub fn downsample_avg(&self, factor: usize) -> Grid {
        assert!(factor > 0, "factor must be positive");
        let w = self.width / factor;
        let h = self.height / factor;
        assert!(w > 0 && h > 0, "factor exceeds grid dimensions");
        let mut out = Grid::zeros(w, h);
        let norm = 1.0 / (factor * factor) as f32;
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for dy in 0..factor {
                    for dx in 0..factor {
                        acc += self.get(x * factor + dx, y * factor + dy);
                    }
                }
                out.set(x, y, acc * norm);
            }
        }
        out
    }

    /// Renders the grid as a binary PGM (P2) string, mapping `[0, 1]` to
    /// `[0, 255]`. Used by the figure harnesses to dump images.
    pub fn to_pgm(&self) -> String {
        let mut s = format!("P2\n{} {}\n255\n", self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let v = (self.get(x, y).clamp(0.0, 1.0) * 255.0).round() as u8;
                s.push_str(&v.to_string());
                s.push(if x + 1 == self.width { '\n' } else { ' ' });
            }
        }
        s
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grid({}×{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_fill() {
        let mut g = Grid::zeros(8, 4);
        assert_eq!(g.shape(), (8, 4));
        assert_eq!(g.sum(), 0.0);
        g.fill_rect(&Rect::new(1, 1, 3, 3), 1.0);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.get(1, 1), 1.0);
        assert_eq!(g.get(3, 3), 0.0);
    }

    #[test]
    fn fill_rect_clips_to_bounds() {
        let mut g = Grid::zeros(4, 4);
        g.fill_rect(&Rect::new(-10, -10, 2, 2), 1.0);
        assert_eq!(g.sum(), 4.0);
        g.fill_rect(&Rect::new(3, 3, 100, 100), 1.0);
        assert_eq!(g.sum(), 5.0);
    }

    #[test]
    fn padded_access() {
        let mut g = Grid::zeros(2, 2);
        g.set(1, 1, 7.0);
        assert_eq!(g.get_padded(1, 1), 7.0);
        assert_eq!(g.get_padded(-1, 0), 0.0);
        assert_eq!(g.get_padded(2, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let g = Grid::zeros(2, 2);
        let _ = g.get(2, 0);
    }

    #[test]
    fn l2_dist_and_shape_mismatch() {
        let a = Grid::filled(2, 2, 1.0);
        let b = Grid::filled(2, 2, 0.5);
        assert!((a.l2_dist_sq(&b).expect("shapes match") - 1.0).abs() < 1e-9);
        let c = Grid::zeros(3, 2);
        assert!(matches!(
            a.l2_dist_sq(&c),
            Err(GeomError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn count_above_includes_the_threshold() {
        let g = Grid::from_vec(2, 2, vec![0.1, 0.6, 0.5, 0.9]);
        assert_eq!(g.count_above(0.5), 3);
    }

    #[test]
    fn bilinear_interpolates_between_pixels() {
        let g = Grid::from_vec(2, 1, vec![0.0, 1.0]);
        assert!((g.sample_bilinear(0.5, 0.0) - 0.5).abs() < 1e-6);
        assert!((g.sample_bilinear(0.0, 0.0) - 0.0).abs() < 1e-6);
        assert!((g.sample_bilinear(1.0, 0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flips_are_involutions() {
        let g = Grid::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(g.flip_horizontal().flip_horizontal(), g);
        assert_eq!(g.flip_vertical().flip_vertical(), g);
        assert_eq!(g.flip_horizontal().get(0, 0), 3.0);
        assert_eq!(g.flip_vertical().get(0, 0), 4.0);
    }

    #[test]
    fn four_rotations_are_identity() {
        let g = Grid::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = g.rotate90();
        assert_eq!(r.shape(), (2, 3));
        // (0,0) -> (y=0, x=w-1-0=2): value 1 lands at (0, 2)
        assert_eq!(r.get(0, 2), 1.0);
        let back = g.rotate90().rotate90().rotate90().rotate90();
        assert_eq!(back, g);
    }

    #[test]
    fn downsample_averages_blocks() {
        let g = Grid::from_vec(4, 2, vec![1.0, 3.0, 0.0, 0.0, 5.0, 7.0, 0.0, 0.0]);
        let d = g.downsample_avg(2);
        assert_eq!(d.shape(), (2, 1));
        assert_eq!(d.get(0, 0), 4.0); // (1+3+5+7)/4
        assert_eq!(d.get(1, 0), 0.0);
    }

    #[test]
    fn downsample_drops_partial_blocks() {
        let g = Grid::filled(5, 5, 1.0);
        let d = g.downsample_avg(2);
        assert_eq!(d.shape(), (2, 2));
        assert_eq!(d.get(1, 1), 1.0);
    }

    #[test]
    fn pgm_header() {
        let g = Grid::filled(2, 2, 1.0);
        let pgm = g.to_pgm();
        assert!(pgm.starts_with("P2\n2 2\n255\n"));
        assert!(pgm.contains("255"));
    }

    #[test]
    fn buffer_reuse_helpers_match_allocating_counterparts() {
        let src = Grid::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.0]);
        let other = Grid::from_vec(2, 2, vec![1.0, 1.0, -0.5, 3.0]);
        let mut buf = Grid::filled(2, 2, 9.0);
        buf.fill(0.25);
        assert_eq!(buf, Grid::filled(2, 2, 0.25));
        buf.copy_from(&src);
        assert_eq!(buf, src);
        buf.map_from(&src, |v| v * 2.0);
        assert_eq!(buf, src.map(|v| v * 2.0));
        buf.zip_from(&src, &other, |a, b| a + b);
        assert_eq!(buf, src.zip_map(&other, |a, b| a + b).expect("same shape"));
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn copy_from_rejects_shape_mismatch() {
        let mut a = Grid::zeros(2, 2);
        a.copy_from(&Grid::zeros(3, 2));
    }

    #[test]
    fn min_max_mean() {
        let g = Grid::from_vec(3, 1, vec![-1.0, 0.0, 4.0]);
        assert_eq!(g.min(), -1.0);
        assert_eq!(g.max(), 4.0);
        assert!((g.mean() - 1.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn l2_dist_is_zero_iff_equal(vals in proptest::collection::vec(-1.0f32..1.0, 16)) {
            let g = Grid::from_vec(4, 4, vals);
            prop_assert_eq!(g.l2_dist_sq(&g).expect("same shape"), 0.0);
        }

        #[test]
        fn fill_rect_sum_equals_clipped_area(x0 in -8i32..8, y0 in -8i32..8, w in 1i32..12, h in 1i32..12) {
            let mut g = Grid::zeros(8, 8);
            let r = Rect::new(x0, y0, x0 + w, y0 + h);
            g.fill_rect(&r, 1.0);
            let clipped_w = (r.x1.clamp(0, 8) - r.x0.clamp(0, 8)).max(0);
            let clipped_h = (r.y1.clamp(0, 8) - r.y0.clamp(0, 8)).max(0);
            prop_assert_eq!(g.sum() as i64, i64::from(clipped_w) * i64::from(clipped_h));
        }
    }
}
