#![warn(missing_docs)]
//! # ldmo-serve — the fault-tolerant batch-serving daemon
//!
//! The paper's economics (a ~1 ms CNN ranking replacing ~1 s ILT probes)
//! only pay off when optimization runs as a *service*: long-lived,
//! continuously fed, batched across concurrent requests. This crate is
//! that daemon (DESIGN.md §16), built on the workspace's one HTTP stack
//! ([`ldmo_obs::http`], shared with the live-ops endpoint) and its
//! existing robustness substrate:
//!
//! - **[`protocol`]** — one JSON request / one JSON response per POST,
//!   with the stable response-code table mapping [`ldmo_guard`]'s error
//!   taxonomy and `OutcomeHealth` onto HTTP-class codes, and the bound
//!   on a request's layout window;
//! - **[`cache`]** — a content-addressed result cache over a crash-safe
//!   single-file append log (checksummed frames, torn-tail recovery, a
//!   warm start survives `kill -9`);
//! - **[`pipeline`]** — the per-request optimize path: the flow's own
//!   select-then-optimize loop (`ldmo_core::select`: litho-proxy ranking
//!   and the abort-attempt ladder), per-request deadlines,
//!   retry-once-with-halved-budget, and the deterministic
//!   unoptimized-mask fallback;
//! - **[`server`]** — bounded admission with explicit load shedding,
//!   batch scheduling on the [`ldmo_par`] pool with per-request panic
//!   containment, graceful drain;
//! - **[`client`]** — the soak driver that proves the contract: N
//!   concurrent clients through any `LDMO_FAULTS` plan, zero poisoned
//!   and zero dropped-without-response requests.
//!
//! Determinism contract: a served result is a pure function of the
//! canonical layout and the optimization knobs whenever no wall-clock
//! budget intervened; only such results enter the cache, which is what
//! makes cached-vs-recomputed masks bit-identical.

pub mod cache;
pub mod client;
pub mod pipeline;
pub mod protocol;
pub mod server;

pub use cache::{mask_hash, request_key, CachedResult, RecoveryStats, ResultCache};
pub use client::{run_soak, ClientConfig, ClientReport};
pub use pipeline::{optimize_request, PipelineConfig, RequestOutcome};
pub use protocol::{OptimizeRequest, OptimizeResponse};
pub use server::{ServeConfig, Server, StatsSnapshot};
