#![warn(missing_docs)]
//! # ldmo-decomp — layout decomposition candidate generation
//!
//! Implements Section III-A of the paper (Algorithm 1):
//!
//! 1. Classify patterns into `SP` / `VP` / `NP` (done by
//!    [`ldmo_layout::classify`]).
//! 2. Build the weighted conflict graph over `SP` patterns and solve a
//!    minimum spanning tree per connected component ([`mst`]); two-coloring
//!    each MST yields the *relative position relationship*: adjacent MST
//!    vertices go to different masks, and the only remaining freedom per
//!    component is a global flip.
//! 3. Generate *n-wise covering arrays* ([`covering`], our substitute for
//!    Microsoft PICT): a three-wise array over the component-flip factors
//!    plus the `VP` patterns (`Arrs1`), a two-wise array over the `NP`
//!    patterns (`Arrs2`).
//! 4. Resolve the dual-mask symmetry by fixing pattern 0 on mask 0 and merge
//!    duplicate rows ([`canonical`]), then combine
//!    `mergedArrs1 × mergedArrs2` into full mask assignments ([`generate`]).
//!
//! The crate holds the workspace's one coloring of each kind:
//! [`two_color`], the BFS two-coloring behind the MST coloring, the
//! bipartite check and the BFS baseline of Table I, and
//! [`greedy_coloring`], the max-min-gap `k`-mask coloring behind the
//! SUALD-style baseline and the triple-patterning extension. Section IV-B's
//! training-set sampling is Algorithm 1 with the `VP` band widened to
//! every non-`SP` pattern.
//!
//! ```
//! use ldmo_layout::cells;
//! use ldmo_decomp::{generate_candidates, DecompConfig};
//!
//! let layout = cells::cell("BUF_X1").expect("known cell");
//! let candidates = generate_candidates(&layout, &DecompConfig::default());
//! assert!(!candidates.is_empty());
//! // every candidate assigns every pattern
//! assert!(candidates.iter().all(|a| a.len() == layout.len()));
//! ```

pub mod canonical;
pub mod covering;
mod dsu;
pub mod generate;
pub mod graph;
pub mod mst;
pub mod oracle;

pub use dsu::DisjointSets;
pub use generate::{generate_candidates, DecompConfig};
pub use graph::{greedy_coloring, is_dpl_compatible, two_color, ConflictGraph, Edge};
pub use mst::{minimum_spanning_forest, two_color_forest, MstForest};
