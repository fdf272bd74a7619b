//! The serving wire protocol: one JSON request / one JSON response per
//! HTTP POST, plus the stable response-code table (DESIGN.md §16).
//!
//! A request is `POST /optimize` with a JSON body:
//!
//! ```json
//! {"id": "r1", "layout": "ldmo-layout v1\n...", "deadline_ms": 2000,
//!  "max_iterations": 6, "max_candidates": 8}
//! ```
//!
//! Only `id` and `layout` are required; `layout` embeds the standard
//! layout text format as a JSON string. Every admitted request receives
//! exactly one JSON response — the contract the chaos soak test enforces
//! is *zero* poisoned or dropped-without-response requests:
//!
//! | condition                        | status | code          |
//! |----------------------------------|--------|---------------|
//! | `OutcomeHealth::Clean`           | 200    | `ok`          |
//! | `RecoveredAfterRollback`         | 200    | `ok`          |
//! | `Degraded { .. }`                | 200    | `degraded`    |
//! | queue full (load shed)           | 429    | `shed`        |
//! | draining (shutdown in progress)  | 503    | `draining`    |
//! | `LdmoError::Usage`               | 400    | `bad-request` |
//! | `LdmoError::Parse`               | 422    | `bad-layout`  |
//! | `LdmoError::Model/Io/Trace/Fault`| 500    | `internal`    |
//!
//! A layout whose window rasterizes wider than [`MAX_WINDOW_PX`] is a
//! `LdmoError::Parse` too.
//!
//! Responses return masks by content hash (`mask_hash`), not by value —
//! the cache holds the pixels; the hash is what the determinism contract
//! ("bit-identical cached vs recomputed") is asserted on.
//!
//! The HTTP framing under these bodies — reading a request, the 4 MiB cap,
//! writing a response — is the workspace's shared stack, [`ldmo_obs::http`].

use ldmo_guard::{LdmoError, OutcomeHealth};
use ldmo_layout::Layout;
use ldmo_obs::json::{self, Value};

/// One layout-optimization request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeRequest {
    /// Caller-chosen request id, echoed verbatim in the response.
    pub id: String,
    /// The layout in the standard text format (DESIGN.md §4).
    pub layout_text: String,
    /// Wall-clock deadline for this request, measured from admission
    /// (queue wait counts against it). `None` uses the server default.
    pub deadline_ms: Option<u64>,
    /// Override of the per-request ILT iteration cap.
    pub max_iterations: Option<usize>,
    /// Override of the decomposition candidate cap.
    pub max_candidates: Option<usize>,
}

impl OptimizeRequest {
    /// Parses the JSON request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the body is not valid JSON or
    /// is missing a required field (maps to 400 `bad-request`).
    pub fn from_json(body: &str) -> Result<OptimizeRequest, String> {
        let value = json::parse(body)?;
        let id = value
            .get("id")
            .and_then(Value::as_str)
            .ok_or("missing string field 'id'")?
            .to_owned();
        let layout_text = value
            .get("layout")
            .and_then(Value::as_str)
            .ok_or("missing string field 'layout'")?
            .to_owned();
        let uint = |key: &str| -> Result<Option<u64>, String> {
            match value.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => {
                    let n = v
                        .as_f64()
                        .ok_or_else(|| format!("field '{key}' is not a number"))?;
                    if n < 0.0 || n.fract() != 0.0 {
                        return Err(format!("field '{key}' is not a non-negative integer"));
                    }
                    Ok(Some(n as u64))
                }
            }
        };
        Ok(OptimizeRequest {
            id,
            layout_text,
            deadline_ms: uint("deadline_ms")?,
            max_iterations: uint("max_iterations")?.map(|n| n as usize),
            max_candidates: uint("max_candidates")?.map(|n| n as usize),
        })
    }

    /// Renders the request as its JSON body.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":\"{}\",\"layout\":\"{}\"",
            json::escape(&self.id),
            json::escape(&self.layout_text)
        );
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        if let Some(n) = self.max_iterations {
            out.push_str(&format!(",\"max_iterations\":{n}"));
        }
        if let Some(n) = self.max_candidates {
            out.push_str(&format!(",\"max_candidates\":{n}"));
        }
        out.push('}');
        out
    }
}

/// One response, covering every row of the response-code table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeResponse {
    /// The request id, echoed.
    pub id: String,
    /// HTTP-style status (also the actual HTTP status of the response).
    pub status: u16,
    /// Stable machine-readable code (see the module table).
    pub code: String,
    /// Guard health verdict of the served result, when one exists.
    pub health: Option<String>,
    /// Whether the result degraded to the deterministic fallback masks.
    pub degraded: bool,
    /// Whether the result came from the content-addressed cache.
    pub cached: bool,
    /// Whether the retry-with-halved-budget path produced the result.
    pub retried: bool,
    /// EPE violations of the served masks.
    pub epe_violations: Option<u64>,
    /// ILT attempts made.
    pub attempts: Option<u64>,
    /// Decomposition candidates ranked.
    pub candidates: Option<u64>,
    /// Iterations of the accepted ILT run.
    pub iterations: Option<u64>,
    /// FNV-1a 64 content hash (hex) of the served mask pair.
    pub mask_hash: Option<String>,
    /// Human-readable detail for non-2xx responses.
    pub detail: Option<String>,
}

impl OptimizeResponse {
    /// A bare response carrying only id/status/code (+ optional detail).
    pub fn bare(id: &str, status: u16, code: &str, detail: Option<String>) -> OptimizeResponse {
        OptimizeResponse {
            id: id.to_owned(),
            status,
            code: code.to_owned(),
            health: None,
            degraded: false,
            cached: false,
            retried: false,
            epe_violations: None,
            attempts: None,
            candidates: None,
            iterations: None,
            mask_hash: None,
            detail,
        }
    }

    /// The 429-class load-shed response: deterministic, never an abort.
    pub fn shed(id: &str) -> OptimizeResponse {
        OptimizeResponse::bare(id, 429, "shed", Some("queue full, retry later".into()))
    }

    /// The 503 response for requests arriving during graceful drain.
    pub fn draining(id: &str) -> OptimizeResponse {
        OptimizeResponse::bare(id, 503, "draining", Some("server is draining".into()))
    }

    /// Maps an [`LdmoError`] to its stable response row.
    pub fn from_error(id: &str, error: &LdmoError) -> OptimizeResponse {
        let (status, code) = error_status(error);
        OptimizeResponse::bare(id, status, code, Some(error.to_string()))
    }

    /// Fills the result fields from a served outcome.
    #[allow(clippy::too_many_arguments)]
    pub fn result(
        id: &str,
        health: OutcomeHealth,
        epe_violations: usize,
        attempts: usize,
        candidates: usize,
        iterations: usize,
        mask_hash: String,
        cached: bool,
        retried: bool,
    ) -> OptimizeResponse {
        let degraded = health.is_degraded();
        OptimizeResponse {
            id: id.to_owned(),
            status: 200,
            code: if degraded { "degraded" } else { "ok" }.to_owned(),
            health: Some(health.to_string()),
            degraded,
            cached,
            retried,
            epe_violations: Some(epe_violations as u64),
            attempts: Some(attempts as u64),
            candidates: Some(candidates as u64),
            iterations: Some(iterations as u64),
            mask_hash: Some(mask_hash),
            detail: None,
        }
    }

    /// Renders the response JSON body.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":\"{}\",\"status\":{},\"code\":\"{}\",\"degraded\":{},\"cached\":{},\"retried\":{}",
            json::escape(&self.id),
            self.status,
            json::escape(&self.code),
            self.degraded,
            self.cached,
            self.retried,
        );
        if let Some(h) = &self.health {
            out.push_str(&format!(",\"health\":\"{}\"", json::escape(h)));
        }
        for (key, v) in [
            ("epe_violations", self.epe_violations),
            ("attempts", self.attempts),
            ("candidates", self.candidates),
            ("iterations", self.iterations),
        ] {
            if let Some(n) = v {
                out.push_str(&format!(",\"{key}\":{n}"));
            }
        }
        if let Some(h) = &self.mask_hash {
            out.push_str(&format!(",\"mask_hash\":\"{}\"", json::escape(h)));
        }
        if let Some(d) = &self.detail {
            out.push_str(&format!(",\"detail\":\"{}\"", json::escape(d)));
        }
        out.push('}');
        out
    }

    /// Parses and validates a response body — the client side of the
    /// "zero poisoned responses" contract. Any missing or mistyped
    /// required field is an error.
    ///
    /// # Errors
    ///
    /// Returns a reason string naming the first malformed field.
    pub fn from_json(body: &str) -> Result<OptimizeResponse, String> {
        let value = json::parse(body)?;
        let id = value
            .get("id")
            .and_then(Value::as_str)
            .ok_or("missing string field 'id'")?
            .to_owned();
        let status = value
            .get("status")
            .and_then(Value::as_f64)
            .ok_or("missing numeric field 'status'")? as u16;
        let code = value
            .get("code")
            .and_then(Value::as_str)
            .ok_or("missing string field 'code'")?
            .to_owned();
        const KNOWN: [&str; 7] = [
            "ok",
            "degraded",
            "shed",
            "draining",
            "bad-request",
            "bad-layout",
            "internal",
        ];
        if !KNOWN.contains(&code.as_str()) {
            return Err(format!("unknown response code '{code}'"));
        }
        let flag = |key: &str| -> Result<bool, String> {
            match value.get(key) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(format!("missing boolean field '{key}'")),
            }
        };
        let uint = |key: &str| value.get(key).and_then(Value::as_f64).map(|n| n as u64);
        let response = OptimizeResponse {
            id,
            status,
            code,
            health: value
                .get("health")
                .and_then(Value::as_str)
                .map(str::to_owned),
            degraded: flag("degraded")?,
            cached: flag("cached")?,
            retried: flag("retried")?,
            epe_violations: uint("epe_violations"),
            attempts: uint("attempts"),
            candidates: uint("candidates"),
            iterations: uint("iterations"),
            mask_hash: value
                .get("mask_hash")
                .and_then(Value::as_str)
                .map(str::to_owned),
            detail: value
                .get("detail")
                .and_then(Value::as_str)
                .map(str::to_owned),
        };
        // a served result (`ok` / `degraded`) must carry its result
        // fields; control rows (shed, draining, errors) legitimately
        // have none
        if matches!(response.code.as_str(), "ok" | "degraded")
            && (response.mask_hash.is_none() || response.health.is_none())
        {
            return Err(format!(
                "'{}' response missing result fields",
                response.code
            ));
        }
        Ok(response)
    }
}

/// Served layouts whose raster is wider or taller than this are refused
/// with the 422 `bad-layout` row. Every ILT grid of a request is a
/// window-sized f32 raster, so 2048 px per side bounds each at 16 MB — at
/// the default 2 nm/px about 9× the paper's 448 nm clip on each side.
/// Unbounded, a ~60-byte body naming `window 0 0 400000 400000` asks for a
/// 160 GB raster, and that allocation failure kills the daemon instead of
/// panicking a batch slot the scheduler could contain. Larger layouts
/// belong to `ldmo chip`, which tiles them.
pub const MAX_WINDOW_PX: usize = 2048;

/// Refuses a request layout whose raster at `nm_per_px` exceeds
/// [`MAX_WINDOW_PX`] on either side.
///
/// # Errors
///
/// Returns [`LdmoError::Parse`] (422 `bad-layout`) for an oversize window.
pub(crate) fn check_window(layout: &Layout, nm_per_px: f64) -> Result<(), LdmoError> {
    let (w, h) = layout.grid_shape(nm_per_px);
    if w.max(h) <= MAX_WINDOW_PX {
        return Ok(());
    }
    Err(LdmoError::Parse {
        context: "request layout".to_owned(),
        detail: format!(
            "window rasterizes to {w}x{h} px at {nm_per_px} nm/px, over the \
             {MAX_WINDOW_PX} px cap per side; tile it with `ldmo chip`"
        ),
    })
}

/// The stable `(status, code)` row for an error (see the module table).
pub fn error_status(error: &LdmoError) -> (u16, &'static str) {
    match error {
        LdmoError::Usage { .. } => (400, "bad-request"),
        LdmoError::Parse { .. } => (422, "bad-layout"),
        LdmoError::Model { .. }
        | LdmoError::Io { .. }
        | LdmoError::Trace { .. }
        | LdmoError::Fault { .. } => (500, "internal"),
        // a degraded outcome is still a served result, not an error row —
        // callers that get here were refused a healthy-result demand
        LdmoError::Degraded { .. } => (200, "degraded"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_guard::DegradeReason;

    #[test]
    fn request_roundtrip() {
        let req = OptimizeRequest {
            id: "r-1".into(),
            layout_text: "ldmo-layout v1\nwindow 0 0 448 448\n".into(),
            deadline_ms: Some(500),
            max_iterations: Some(6),
            max_candidates: None,
        };
        let parsed = OptimizeRequest::from_json(&req.to_json()).expect("parses");
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_requires_id_and_layout() {
        assert!(OptimizeRequest::from_json("{}").is_err());
        assert!(OptimizeRequest::from_json("{\"id\":\"x\"}").is_err());
        assert!(OptimizeRequest::from_json("not json").is_err());
        assert!(
            OptimizeRequest::from_json("{\"id\":\"x\",\"layout\":\"l\",\"deadline_ms\":-1}")
                .is_err()
        );
    }

    #[test]
    fn response_roundtrip_result_row() {
        let resp = OptimizeResponse::result(
            "r-2",
            OutcomeHealth::Clean,
            3,
            1,
            8,
            6,
            "00ff00ff00ff00ff".into(),
            true,
            false,
        );
        let parsed = OptimizeResponse::from_json(&resp.to_json()).expect("parses");
        assert_eq!(parsed, resp);
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.code, "ok");
        assert!(parsed.cached);
    }

    #[test]
    fn response_code_table() {
        let degraded = OptimizeResponse::result(
            "d",
            OutcomeHealth::Degraded {
                reason: DegradeReason::BudgetExhausted,
            },
            0,
            1,
            4,
            0,
            "0".into(),
            false,
            true,
        );
        assert_eq!((degraded.status, degraded.code.as_str()), (200, "degraded"));
        assert!(degraded.degraded && degraded.retried);

        assert_eq!(
            (
                OptimizeResponse::shed("s").status,
                OptimizeResponse::shed("s").code.as_str()
            ),
            (429, "shed")
        );
        assert_eq!(OptimizeResponse::draining("d").status, 503);

        assert_eq!(error_status(&LdmoError::usage("x")), (400, "bad-request"));
        assert_eq!(
            error_status(&LdmoError::Parse {
                context: "layout".into(),
                detail: "bad".into()
            }),
            (422, "bad-layout")
        );
        assert_eq!(
            error_status(&LdmoError::Io {
                context: "disk".into(),
                source: std::io::Error::other("boom"),
            }),
            (500, "internal")
        );
        assert_eq!(
            error_status(&LdmoError::Fault {
                detail: "spec".into()
            }),
            (500, "internal")
        );
    }

    #[test]
    fn poisoned_responses_are_rejected() {
        // missing result fields on a 200
        assert!(OptimizeResponse::from_json(
            "{\"id\":\"x\",\"status\":200,\"code\":\"ok\",\"degraded\":false,\
             \"cached\":false,\"retried\":false}"
        )
        .is_err());
        // unknown code
        assert!(OptimizeResponse::from_json(
            "{\"id\":\"x\",\"status\":200,\"code\":\"weird\",\"degraded\":false,\
             \"cached\":false,\"retried\":false}"
        )
        .is_err());
        // truncated body
        assert!(OptimizeResponse::from_json("{\"id\":\"x\",\"status\":2").is_err());
    }
}
