#![warn(missing_docs)]
//! # ldmo-nn — a from-scratch CPU neural-network substrate
//!
//! The paper trains a ResNet18 regressor (224×224×1 grayscale input, Adam
//! optimizer, mean-absolute-error loss) to predict the post-ILT
//! printability score of a decomposition. No deep-learning framework is
//! available to this reproduction, so this crate implements the required
//! subset from scratch:
//!
//! - [`Tensor`] — dense NCHW `f32` tensors;
//! - [`layers`] — `Conv2d` (im2col + GEMM), `BatchNorm2d`, `ReLU`,
//!   `MaxPool2d`, global average pooling, `Linear`, residual
//!   [`layers::BasicBlock`]s and a [`layers::Sequential`] container, each
//!   with hand-written backward passes;
//! - [`optim`] — Adam (the paper's choice), learning-rate schedule and
//!   gradient clipping;
//! - [`loss`] — MAE (the paper's Eq. 10) and MSE;
//! - [`resnet`] — the ResNet regression network: `resnet18()` builds the
//!   paper's exact topology; `resnet_lite()` is a narrower variant for
//!   CPU-scale training (same architecture family, documented in
//!   DESIGN.md);
//! - [`serialize`] — a minimal binary weight format for saving/loading
//!   trained predictors.
//!
//! Every layer's backward pass is validated against finite differences in
//! the test suite.
//!
//! ```
//! use ldmo_nn::{layers::{Layer, Linear}, Tensor};
//!
//! let mut lin = Linear::new(4, 2, 42);
//! let x = Tensor::from_vec(vec![1, 4], vec![0.5, -0.25, 1.0, 0.0]);
//! let y = lin.forward(&x, false);
//! assert_eq!(y.shape(), &[1, 2]);
//! ```

pub mod layers;
pub mod loss;
pub mod optim;
pub mod resnet;
pub mod serialize;
mod tensor;

pub use tensor::Tensor;

/// Errors produced by the NN substrate.
#[derive(Debug)]
pub enum NnError {
    /// Weight (de)serialization failed.
    Io(std::io::Error),
    /// A serialized checkpoint did not match the network structure.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The checkpoint parsed but its payload is unusable (non-finite
    /// weights) — loading it would poison every forward pass.
    Corrupt {
        /// Which value was bad.
        detail: String,
    },
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            NnError::ShapeMismatch { detail } => {
                write!(f, "checkpoint does not match network: {detail}")
            }
            NnError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Io(e) => Some(e),
            NnError::ShapeMismatch { .. } | NnError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for NnError {
    fn from(e: std::io::Error) -> Self {
        NnError::Io(e)
    }
}

// Bridge into the workspace-wide taxonomy (here rather than in ldmo-guard
// because of the orphan rule): missing files are I/O, everything else is a
// model error with exit code 4.
impl From<NnError> for ldmo_guard::LdmoError {
    fn from(e: NnError) -> Self {
        match e {
            NnError::Io(source) => ldmo_guard::LdmoError::Io {
                context: "model checkpoint".to_owned(),
                source,
            },
            other => ldmo_guard::LdmoError::Model {
                context: "model checkpoint".to_owned(),
                detail: other.to_string(),
            },
        }
    }
}
