//! Wire types: JSON request bodies → validated [`AnalysisRequest`]s, and
//! the response envelopes.
//!
//! `POST /analyze` body (only `source` is required):
//!
//! ```json
//! {
//!   "source": "qubits 2;\nh q0;\ncnot q0, q1;",
//!   "name": "ghz2",
//!   "method": "state",          // state | adaptive | worst | lqr
//!   "width": 32,
//!   "noise": "bitflip:1e-4",    // bitflip:P | depolarizing:P1,P2 | ampdamp:G | none
//!   "input": "00",              // basis bits, defaults to all zeros
//!   "cache": true,
//!   "tiers": "exact"            // exact | fast
//! }
//! ```
//!
//! `POST /batch` body: `{"programs":[<analyze body>, …]}`. Each entry
//! fails or succeeds on its own, mirroring `Engine::analyze_batch`.
//!
//! `POST /diff` body: `old_source` and `new_source` are required; every
//! other field is the `/analyze` vocabulary and applies to **both**
//! programs (a diff against a different width, noise, or tier policy is a
//! config change, not an edit — run two `/analyze` calls instead):
//!
//! ```json
//! {
//!   "old_source": "qubits 2;\nh q0;\ncnot q0, q1;",
//!   "new_source": "qubits 2;\nh q0;\ncnot q0, q1;\nx q1;",
//!   "name": "ghz2-edit",
//!   "width": 32, "noise": "bitflip:1e-4", "input": "00",
//!   "cache": true, "tiers": "exact"
//! }
//! ```

use crate::json::Json;
use crate::spec;
use gleipnir_circuit::{parse as parse_glq, Program};
use gleipnir_core::jsonfmt::{diff_report_json, json_str, report_json};
use gleipnir_core::{AnalysisRequest, DiffReport, Report};

/// A fully validated analyze request plus the context needed to render its
/// response.
#[derive(Debug)]
pub struct AnalyzeSpec {
    /// Label echoed back in the report (`name` field, default `"request"`).
    pub name: String,
    /// The parsed program (reports include qubit/gate counts).
    pub program: Program,
    /// The validated engine request.
    pub request: AnalysisRequest,
}

/// Builds an [`AnalyzeSpec`] from a parsed `/analyze` body.
///
/// # Errors
///
/// A human-readable message destined for the 4xx response body.
pub fn analyze_spec_from_json(v: &Json) -> Result<AnalyzeSpec, String> {
    let source = v
        .get("source")
        .and_then(Json::as_str)
        .ok_or("missing required string field `source`")?;
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("request")
        .to_string();
    let program = parse_glq(source).map_err(|e| format!("GLQ parse error: {e}"))?;
    let request = request_from_json(v, &program)?;
    Ok(AnalyzeSpec {
        name,
        program,
        request,
    })
}

/// Parses the shared request vocabulary (`width`, `method`, `noise`,
/// `input`, `cache`, `tiers`) and builds the engine request for one
/// program. `/analyze` calls this once, `/diff` twice with the same body.
fn request_from_json(v: &Json, program: &Program) -> Result<AnalysisRequest, String> {
    let width = match v.get("width") {
        None => spec::DEFAULT_WIDTH,
        Some(w) => w
            .as_usize()
            .filter(|w| *w > 0)
            .ok_or("`width` must be a positive integer")?,
    };
    let method_name = match v.get("method") {
        None => None,
        Some(m) => Some(m.as_str().ok_or("`method` must be a string")?),
    };
    let method = spec::parse_method_spec(method_name, width)?;
    let noise_spec = match v.get("noise") {
        None => spec::DEFAULT_NOISE_SPEC,
        Some(n) => n.as_str().ok_or("`noise` must be a string")?,
    };
    let noise = spec::parse_noise_spec(noise_spec)?;
    let mut builder = AnalysisRequest::builder(program.clone())
        .noise(noise)
        .method(method);
    if let Some(input) = v.get("input") {
        let bits = input.as_str().ok_or("`input` must be a bit string")?;
        builder = builder.input(&spec::parse_input_bits(bits, program.n_qubits())?);
    }
    if let Some(cache) = v.get("cache") {
        builder = builder.cache(cache.as_bool().ok_or("`cache` must be a boolean")?);
    }
    let tiers = match v.get("tiers") {
        None => None,
        Some(t) => Some(t.as_str().ok_or("`tiers` must be a string")?),
    };
    builder = builder.tiering(spec::parse_tier_spec(tiers)?);
    builder.build().map_err(|e| e.to_string())
}

/// A fully validated diff request: two programs, one shared configuration.
#[derive(Debug)]
pub struct DiffSpec {
    /// Label echoed back in the response (`name` field, default `"diff"`).
    pub name: String,
    /// The parsed `old_source` program.
    pub old_program: Program,
    /// The parsed `new_source` program.
    pub new_program: Program,
    /// The validated request for the old program.
    pub old_request: AnalysisRequest,
    /// The validated request for the new program (same configuration).
    pub new_request: AnalysisRequest,
}

/// Builds a [`DiffSpec`] from a parsed `/diff` body.
///
/// # Errors
///
/// A human-readable message destined for the 4xx response body.
pub fn diff_spec_from_json(v: &Json) -> Result<DiffSpec, String> {
    let old_source = v
        .get("old_source")
        .and_then(Json::as_str)
        .ok_or("missing required string field `old_source`")?;
    let new_source = v
        .get("new_source")
        .and_then(Json::as_str)
        .ok_or("missing required string field `new_source`")?;
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("diff")
        .to_string();
    let old_program =
        parse_glq(old_source).map_err(|e| format!("GLQ parse error in `old_source`: {e}"))?;
    let new_program =
        parse_glq(new_source).map_err(|e| format!("GLQ parse error in `new_source`: {e}"))?;
    let old_request = request_from_json(v, &old_program)?;
    let new_request = request_from_json(v, &new_program)?;
    Ok(DiffSpec {
        name,
        old_program,
        new_program,
        old_request,
        new_request,
    })
}

/// Splits a `/batch` body into per-entry results (a bad entry never sinks
/// its siblings — it becomes that entry's error).
///
/// # Errors
///
/// Only for a body that is not `{"programs": [...]}` at all.
pub fn batch_specs_from_json(v: &Json) -> Result<Vec<Result<AnalyzeSpec, String>>, String> {
    let programs = v
        .get("programs")
        .and_then(Json::as_array)
        .ok_or("missing required array field `programs`")?;
    if programs.is_empty() {
        return Err("`programs` must not be empty".into());
    }
    Ok(programs.iter().map(analyze_spec_from_json).collect())
}

/// The `/analyze` success envelope.
pub fn analyze_ok_json(spec: &AnalyzeSpec, report: &Report) -> String {
    format!(
        "{{\"ok\":true,\"report\":{}}}",
        report_json(&spec.name, &spec.program, report)
    )
}

/// The `/diff` success envelope. The labels distinguish the two programs
/// inside the shared `name`.
pub fn diff_ok_json(spec: &DiffSpec, diff: &DiffReport) -> String {
    format!(
        "{{\"ok\":true,\"diff\":{}}}",
        diff_report_json(
            &format!("{}:old", spec.name),
            &format!("{}:new", spec.name),
            diff
        )
    )
}

/// A uniform error envelope (any endpoint, any status).
pub fn error_json(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_str(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const SRC: &str = "qubits 2;\nh q0;\ncnot q0, q1;";

    #[test]
    fn minimal_body_builds_a_request() {
        let body = format!("{{\"source\":{}}}", json_str(SRC));
        let spec = analyze_spec_from_json(&parse(&body).unwrap()).unwrap();
        assert_eq!(spec.name, "request");
        assert_eq!(spec.program.n_qubits(), 2);
    }

    #[test]
    fn full_body_round_trips() {
        let body = format!(
            "{{\"source\":{},\"name\":\"ghz\",\"method\":\"worst\",\"noise\":\"none\",\"input\":\"01\",\"cache\":false,\"tiers\":\"fast\"}}",
            json_str(SRC)
        );
        let spec = analyze_spec_from_json(&parse(&body).unwrap()).unwrap();
        assert_eq!(spec.name, "ghz");
        assert!(!spec.request.cache_enabled());
        assert_eq!(spec.request.tier_policy(), gleipnir_core::TierPolicy::Fast);
    }

    #[test]
    fn bad_bodies_name_the_problem() {
        for (body, needle) in [
            ("{}", "source"),
            (r#"{"source":"qubits 1;\nh q0;","width":0}"#, "width"),
            (
                r#"{"source":"qubits 1;\nh q0;","method":"magic"}"#,
                "method",
            ),
            (r#"{"source":"qubits 1;\nh q0;","input":"000"}"#, "binary"),
            (r#"{"source":"qubits 1;\nh q0;","tiers":"turbo"}"#, "tier"),
            (r#"{"source":"qubits 1;\nh q0;","tiers":"warm"}"#, "tier"),
            (r#"{"source":"qubits 1;\nh q0;","tiers":"closed"}"#, "tier"),
            (r#"{"source":"not glq"}"#, "parse"),
        ] {
            let err = analyze_spec_from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "`{body}` → `{err}`");
        }
    }

    #[test]
    fn diff_body_builds_two_requests_with_shared_config() {
        let body = format!(
            "{{\"old_source\":{},\"new_source\":{},\"name\":\"edit\",\"width\":8,\"tiers\":\"fast\"}}",
            json_str(SRC),
            json_str("qubits 2;\nh q0;\ncnot q0, q1;\nx q1;")
        );
        let spec = diff_spec_from_json(&parse(&body).unwrap()).unwrap();
        assert_eq!(spec.name, "edit");
        assert_eq!(
            spec.old_program.gate_count() + 1,
            spec.new_program.gate_count()
        );
        assert_eq!(
            spec.old_request.tier_policy(),
            spec.new_request.tier_policy()
        );
    }

    #[test]
    fn diff_body_missing_sources_name_the_problem() {
        for (body, needle) in [
            ("{}", "old_source"),
            (
                &*format!("{{\"old_source\":{}}}", json_str(SRC)),
                "new_source",
            ),
            (
                &*format!(
                    "{{\"old_source\":\"bogus\",\"new_source\":{}}}",
                    json_str(SRC)
                ),
                "old_source",
            ),
        ] {
            let err = diff_spec_from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "`{body}` → `{err}`");
        }
    }

    #[test]
    fn batch_preserves_per_entry_failures() {
        let body = format!(
            "{{\"programs\":[{{\"source\":{}}},{{\"source\":\"bogus\"}}]}}",
            json_str(SRC)
        );
        let specs = batch_specs_from_json(&parse(&body).unwrap()).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs[0].is_ok());
        assert!(specs[1].is_err());
    }
}
