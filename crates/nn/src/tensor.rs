//! Dense NCHW `f32` tensors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense `f32` tensor with row-major (last dimension fastest) layout.
///
/// Convolutional data uses NCHW order: `[batch, channels, height, width]`.
///
/// ```
/// use ldmo_nn::Tensor;
/// let t = Tensor::zeros(vec![2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = checked_len(&shape);
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn filled(shape: Vec<usize>, value: f32) -> Self {
        let n = checked_len(&shape);
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match the shape product.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(checked_len(&shape), data.len(), "buffer length mismatch");
        Tensor { shape, data }
    }

    /// He-normal initialization (`std = sqrt(2 / fan_in)`), seeded.
    pub fn randn_he(shape: Vec<usize>, fan_in: usize, seed: u64) -> Self {
        let n = checked_len(&shape);
        let std = (2.0 / fan_in.max(1) as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n)
            .map(|_| {
                // Box-Muller from two uniforms
                let u1: f64 = rng.gen_range(1e-10..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (z * std) as f32
            })
            .collect();
        Tensor { shape, data }
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// NCHW accessor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or an index is out of range.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let [dn, dc, dh, dw] = self.dims4();
        assert!(n < dn && c < dc && h < dh && w < dw, "index out of range");
        self.data[((n * dc + c) * dh + h) * dw + w]
    }

    /// NCHW mutable accessor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or an index is out of range.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let [dn, dc, dh, dw] = self.dims4();
        assert!(n < dn && c < dc && h < dh && w < dw, "index out of range");
        &mut self.data[((n * dc + c) * dh + h) * dw + w]
    }

    /// The four dimensions of an NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D.
    pub fn dims4(&self) -> [usize; 4] {
        assert_eq!(self.shape.len(), 4, "expected a 4-D tensor");
        [self.shape[0], self.shape[1], self.shape[2], self.shape[3]]
    }

    /// Element-wise map into a new tensor.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        (self.data.iter().map(|&v| f64::from(v)).sum::<f64>() / self.data.len() as f64) as f32
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensors need at least one dimension");
    assert!(
        shape.iter().all(|&d| d > 0),
        "tensor dimensions must be positive"
    );
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = Tensor::zeros(vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(vec![2, 2], vec![0.0; 5]);
    }

    #[test]
    fn nchw_indexing_is_row_major() {
        let mut t = Tensor::zeros(vec![2, 3, 4, 5]);
        *t.at4_mut(1, 2, 3, 4) = 7.0;
        assert_eq!(t.at4(1, 2, 3, 4), 7.0);
        // last element of the buffer
        assert_eq!(t.as_slice()[2 * 3 * 4 * 5 - 1], 7.0);
    }

    #[test]
    fn he_init_statistics() {
        let t = Tensor::randn_he(vec![10_000], 50, 7);
        let mean = t.mean();
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / t.len() as f32;
        let expected_var = 2.0 / 50.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var - expected_var).abs() / expected_var < 0.1,
            "var {var} vs {expected_var}"
        );
    }

    #[test]
    fn he_init_deterministic_per_seed() {
        let a = Tensor::randn_he(vec![8], 4, 1);
        let b = Tensor::randn_he(vec![8], 4, 1);
        let c = Tensor::randn_he(vec![8], 4, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
