#![warn(missing_docs)]
//! # ldmo-ilt — inverse lithography for any mask count
//!
//! The gradient-descent ILT engine of the paper's Section II/III-C:
//!
//! - masks are relaxed through the sigmoid of Eq. 1,
//!   `M_i = sigmoid(θm · P_i)` with `θm = 8`, so the unbounded parameters
//!   `P_i` can be optimized by plain gradient descent;
//! - the printed image is formed by the [`ldmo_litho`] forward model
//!   (aerial intensity → Eq. 2 resist → Eq. 3 union of the mask prints);
//! - each iteration descends the L2 error `‖T − T′‖²`
//!   (`P_i ← P_i − stepSize · g`);
//! - every `check_interval = 3` iterations the engine looks for print
//!   violations and can abort so the caller selects another decomposition
//!   (Fig. 2's feedback edge);
//! - the iteration cap is 29, as in the paper.
//!
//! The per-iteration [`IterationStats`] trajectory is what Fig. 1(b) plots.
//!
//! One engine serves every mask count: [`IltSession`], [`IltOutcome`] and
//! [`IltScratch`] take the count as a const parameter `K` that defaults to
//! the paper's double patterning (`K = 2`). [`IltSession::prepare`] with
//! `K = 3` runs triple patterning under the same guards, budget, abort
//! policy and allocation-free step; `ldmo_decomp::greedy_coloring`
//! produces its assignments.
//!
//! A context built with [`IltContext::with_lanes`] runs each step's
//! per-mask forward and gradient passes as jobs on a caller-supplied
//! [`LaneRunner`]; the outcome is bit-identical to the serial engine's.
//!
//! ```no_run
//! use ldmo_geom::Rect;
//! use ldmo_layout::Layout;
//! use ldmo_ilt::{optimize, IltConfig};
//!
//! let layout = Layout::new(
//!     Rect::new(0, 0, 448, 448),
//!     vec![Rect::square(80, 80, 64), Rect::square(240, 240, 64)],
//! );
//! let outcome = optimize(&layout, &[0, 1], &IltConfig::default());
//! println!("EPE violations: {}", outcome.epe.violations());
//! ```

mod engine;
mod gradient;
mod lanes;

pub use engine::{
    evaluate_unoptimized, optimize, IltConfig, IltContext, IltOutcome, IltScratch, IltSession,
    IterationStats, ViolationPolicy,
};
pub use gradient::{
    forward_multi, forward_multi_into, l2_gradient_multi, l2_gradient_multi_into, PairForward,
};
pub use lanes::LaneRunner;
// Guard vocabulary used in this crate's public API (IltConfig carries the
// policy and budget; IltOutcome carries the health verdict).
pub use ldmo_guard::{Budget, DegradeReason, GuardPolicy, OutcomeHealth};
