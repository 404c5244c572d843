//! Hand-rolled JSON formatting shared by every wire surface (the CLI's
//! `--json` output and the `gleipnir-server` HTTP responses).
//!
//! The report surface is small and the workspace builds offline (no
//! serde), so serialization is a handful of explicit formatters. Two
//! invariants every producer must honor live here so they are enforced
//! (and tested) once:
//!
//! * **strings** are escaped per RFC 8259 ([`json_str`]): quotes,
//!   backslashes, and all control characters below `0x20`;
//! * **numbers** are emitted via [`json_f64`], which maps non-finite
//!   values to `null` — `format!("{:e}", f64::NAN)` would print `NaN`,
//!   which is not JSON, and a consumer silently choking on a metrics
//!   payload is far worse than an explicit `null`.

use crate::diff::DiffReport;
use crate::report::Report;
use gleipnir_circuit::Program;

/// Escapes a string into a double-quoted JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON value: scientific notation for finite values,
/// `null` for NaN and ±∞ (which have no JSON representation).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Like [`json_f64`] but with fixed decimal places — used for
/// millisecond timings where scientific notation reads poorly.
pub fn json_ms(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Serializes a [`Report`] (plus its program context) into the one-object
/// wire form shared by `gleipnir … --json` and the server's `/analyze`
/// endpoint. `label` identifies the program to the consumer — the CLI
/// passes the file path, the server the request's `name` field.
pub fn report_json(label: &str, program: &Program, report: &Report) -> String {
    let mut fields = vec![
        format!("\"file\":{}", json_str(label)),
        format!("\"method\":{}", json_str(report.method_name())),
        format!("\"qubits\":{}", program.n_qubits()),
        format!("\"gates\":{}", program.gate_count()),
        format!("\"error_bound\":{}", json_f64(report.error_bound())),
        format!("\"sdp_solves\":{}", report.sdp_solves()),
        format!("\"cache_hits\":{}", report.cache_hits()),
        format!("\"inflight_dedup\":{}", report.inflight_dedup()),
        format!(
            "\"elapsed_ms\":{}",
            json_ms(report.elapsed().as_secs_f64() * 1e3)
        ),
    ];
    if let Some(d) = report.tn_delta() {
        fields.push(format!("\"tn_delta\":{}", json_f64(d)));
    }
    if let Some(t) = report.stage_timings() {
        fields.push(format!(
            "\"stages\":{{\"plan_ms\":{},\"solve_ms\":{},\"assemble_ms\":{}}}",
            json_ms(t.plan.as_secs_f64() * 1e3),
            json_ms(t.solve.as_secs_f64() * 1e3),
            json_ms(t.assemble.as_secs_f64() * 1e3)
        ));
    }
    if let Some(w) = report.solve_workers() {
        fields.push(format!("\"solve_workers\":{w}"));
    }
    let t = report.tier_counts();
    fields.push(format!(
        "\"tiers\":{{\"closed_form\":{},\"cold\":{}}}",
        t.closed_form, t.cold
    ));
    fields.push(format!("\"ip_iterations\":{}", report.ip_iterations()));
    if let Some(r) = report.as_state_aware() {
        fields.push(format!("\"mps_width\":{}", r.mps_width()));
    }
    if let Some(a) = report.as_adaptive() {
        let steps: Vec<String> = a
            .trajectory
            .iter()
            .map(|s| {
                format!(
                    "{{\"width\":{},\"bound\":{},\"tn_delta\":{},\"sdp_solves\":{},\"cache_hits\":{},\"tiers\":{{\"closed_form\":{},\"cold\":{}}},\"ip_iterations\":{}}}",
                    s.width,
                    json_f64(s.bound),
                    json_f64(s.tn_delta),
                    s.sdp_solves,
                    s.cache_hits,
                    s.tier_counts.closed_form,
                    s.tier_counts.cold,
                    s.ip_iterations
                )
            })
            .collect();
        fields.push(format!("\"trajectory\":[{}]", steps.join(",")));
    }
    if let Some(w) = report.as_worst_case() {
        fields.push(format!("\"gate_count\":{}", w.gate_count));
        fields.push(format!("\"clamped\":{}", json_f64(w.clamped())));
    }
    format!("{{{}}}", fields.join(","))
}

/// `Some(v)` as a JSON float (`null` for non-finite), `None` as `null`.
fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".to_string())
}

/// `Some(n)` as a JSON integer, `None` as `null`.
fn json_opt_usize(v: Option<usize>) -> String {
    v.map(|n| n.to_string())
        .unwrap_or_else(|| "null".to_string())
}

/// Serializes a [`DiffReport`] into the one-object wire form shared by
/// `gleipnir diff … --json` and the server's `/diff` endpoint. The labels
/// identify the two programs to the consumer — the CLI passes the file
/// paths, the server the specs' `name` fields.
///
/// Every float goes through [`json_f64`]/[`json_ms`]: a NaN placeholder
/// (e.g. from a skeleton node the solver never reached) becomes an
/// explicit `null`, never a bare `NaN` token.
pub fn diff_report_json(old_label: &str, new_label: &str, diff: &DiffReport) -> String {
    let new = diff.new_report();
    let old = diff.old_report();
    let changes: Vec<String> = diff
        .changes()
        .iter()
        .map(|c| {
            format!(
                "{{\"gate\":{},\"reason\":{},\"old_index\":{},\"new_index\":{},\"old_epsilon\":{},\"new_epsilon\":{},\"tier\":{}}}",
                json_str(&c.gate),
                json_str(c.reason.name()),
                json_opt_usize(c.old_index),
                json_opt_usize(c.new_index),
                json_opt_f64(c.old_epsilon),
                json_opt_f64(c.new_epsilon),
                c.tier
                    .map(|t| json_str(t.name()))
                    .unwrap_or_else(|| "null".to_string()),
            )
        })
        .collect();
    let fields = [
        format!("\"old_file\":{}", json_str(old_label)),
        format!("\"new_file\":{}", json_str(new_label)),
        format!("\"error_bound\":{}", json_f64(diff.error_bound())),
        format!("\"old_error_bound\":{}", json_f64(old.error_bound())),
        format!("\"prefix_gates_reused\":{}", diff.prefix_gates_reused()),
        format!("\"sdp_solves\":{}", new.sdp_solves()),
        format!("\"cache_hits\":{}", new.cache_hits()),
        format!("\"mps_width\":{}", new.mps_width()),
        format!("\"tn_delta\":{}", json_f64(new.tn_delta())),
        format!(
            "\"elapsed_ms\":{}",
            json_ms(diff.elapsed().as_secs_f64() * 1e3)
        ),
        format!("\"changes\":[{}]", changes.join(",")),
    ];
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_pass_through_quoted() {
        assert_eq!(json_str("abc"), "\"abc\"");
        assert_eq!(json_str(""), "\"\"");
        assert_eq!(json_str("πε⊢"), "\"πε⊢\"");
    }

    #[test]
    fn quotes_and_backslashes_are_escaped() {
        assert_eq!(json_str(r#"a"b"#), r#""a\"b""#);
        assert_eq!(json_str(r"C:\path"), r#""C:\\path""#);
        assert_eq!(json_str(r#"\""#), r#""\\\"""#);
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_str("a\nb"), "\"a\\nb\"");
        assert_eq!(json_str("a\rb"), "\"a\\rb\"");
        assert_eq!(json_str("a\tb"), "\"a\\tb\"");
        assert_eq!(json_str("a\x00b"), "\"a\\u0000b\"");
        assert_eq!(json_str("a\x1fb"), "\"a\\u001fb\"");
        // 0x7f (DEL) is not a JSON-mandated escape; it passes through.
        assert_eq!(json_str("a\x7fb"), "\"a\x7fb\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_ms(f64::NAN), "null");
        assert_eq!(json_f64(1.5e-4), "1.5e-4");
        assert_eq!(json_f64(0.0), "0e0");
        assert_eq!(json_ms(12.3456), "12.346");
    }

    #[test]
    fn report_json_is_parseable_shape() {
        use crate::{AnalysisRequest, Engine, Method};
        use gleipnir_circuit::ProgramBuilder;
        use gleipnir_noise::NoiseModel;

        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let program = b.build();
        let request = AnalysisRequest::builder(program.clone())
            .noise(NoiseModel::uniform_bit_flip(1e-4))
            .method(Method::StateAware { mps_width: 4 })
            .build()
            .unwrap();
        let report = Engine::new().analyze(&request).unwrap();
        let json = report_json("a \"quoted\" label", &program, &report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"file\":\"a \\\"quoted\\\" label\""));
        assert!(json.contains("\"method\":\"state_aware\""));
        assert!(json.contains("\"error_bound\":"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn diff_report_json_is_parseable_shape() {
        use crate::{AnalysisRequest, Engine, Method};
        use gleipnir_circuit::ProgramBuilder;
        use gleipnir_noise::NoiseModel;

        let request = |theta: f64| {
            let mut b = ProgramBuilder::new(2);
            b.h(0).cnot(0, 1).rx(1, theta);
            AnalysisRequest::builder(b.build())
                .noise(NoiseModel::uniform_bit_flip(1e-4))
                .method(Method::StateAware { mps_width: 4 })
                .build()
                .unwrap()
        };
        let engine = Engine::new();
        let diff = engine.analyze_diff(&request(0.3), &request(0.9)).unwrap();
        let json = diff_report_json("old.glq", "new \"q\".glq", &diff);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"old_file\":\"old.glq\""));
        assert!(json.contains("\"new_file\":\"new \\\"q\\\".glq\""));
        assert!(json.contains("\"prefix_gates_reused\":2"));
        assert!(json.contains("\"changes\":[{"));
        assert!(json.contains("\"reason\":\"gate_edited\""));
        // NaN placeholders must surface as null, never as a bare token.
        assert!(!json.contains("NaN"));
    }
}
