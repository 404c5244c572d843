//! Prometheus text exposition, format v0.0.4: the line-level writers
//! behind [`crate::registry::render_prometheus`]. Label values are
//! backslash-escaped, histogram `_bucket` series are cumulative and end
//! in `le="+Inf"`, and NaN/±Inf never leak into a sample (non-finite
//! renders as 0, as `jsonfmt` renders `null`).

use crate::hist::HistogramSnapshot;
use std::fmt::Write;

/// Writes a label value escaped per the exposition format: backslash,
/// double quote, and newline.
fn escape_label(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Renders a sample value: the shortest round-trip float spelling, `0`
/// when not finite (the format has no null).
pub(crate) fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Writes `name="value"` pairs, comma-separated.
fn pairs(out: &mut String, names: &[&str], values: &[&str]) {
    for (i, (name, value)) in names.iter().zip(values).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(name);
        out.push_str("=\"");
        escape_label(out, value);
        out.push('"');
    }
}

/// Writes a label set `{name="value",…}`; nothing for an empty set.
pub(crate) fn labels(out: &mut String, names: &[&str], values: &[&str]) {
    if !names.is_empty() {
        out.push('{');
        pairs(out, names, values);
        out.push('}');
    }
}

/// Writes one histogram series. Bucket bounds are converted from the
/// snapshot's milliseconds to **seconds** (the Prometheus base unit);
/// `_bucket` counts are cumulative and end with the `le="+Inf"` total,
/// which equals `_count`.
pub(crate) fn histogram(
    out: &mut String,
    name: &str,
    names: &[&str],
    values: &[&str],
    snap: &HistogramSnapshot,
) {
    let mut cum = 0u64;
    for (i, n) in snap.buckets.iter().enumerate() {
        cum += n;
        let _ = write!(out, "{name}_bucket{{");
        pairs(out, names, values);
        if !names.is_empty() {
            out.push(',');
        }
        let _ = match snap.bounds.get(i) {
            Some(b) => writeln!(out, "le=\"{}\"}} {cum}", b / 1e3),
            None => writeln!(out, "le=\"+Inf\"}} {cum}"),
        };
    }
    let _ = write!(out, "{name}_sum");
    labels(out, names, values);
    let _ = write!(out, " {}\n{name}_count", fmt_value(snap.sum_ms / 1e3));
    labels(out, names, values);
    let _ = writeln!(out, " {}", snap.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping_covers_the_specials() {
        let mut out = String::new();
        labels(
            &mut out,
            &["a", "b"],
            &["plain", "a\\b say \"hi\" line\nbreak"],
        );
        assert_eq!(
            out,
            "{a=\"plain\",b=\"a\\\\b say \\\"hi\\\" line\\nbreak\"}"
        );
    }

    #[test]
    fn non_finite_values_never_leak() {
        assert_eq!(fmt_value(f64::NAN), "0");
        assert_eq!(fmt_value(f64::INFINITY), "0");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "0");
        assert_eq!(fmt_value(1.5), "1.5");
    }

    #[test]
    fn histogram_buckets_are_cumulative_monotone_and_end_at_inf() {
        let h = crate::Histogram::latency();
        for v in [0.002, 0.5, 0.5, 3.0, 42.0, 950.0, 1e9] {
            h.observe_ms(v);
        }
        let mut out = String::new();
        histogram(
            &mut out,
            "req_seconds",
            &["endpoint"],
            &["analyze"],
            &h.snapshot(),
        );
        let mut prev = 0u64;
        let mut buckets = 0;
        for line in out.lines().filter(|l| l.contains("_bucket")) {
            assert!(line.starts_with("req_seconds_bucket{endpoint=\"analyze\",le=\""));
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= prev, "non-monotone bucket line: {line}");
            prev = count;
            buckets += 1;
        }
        assert_eq!(buckets, crate::LATENCY_BOUNDS_MS.len() + 1);
        assert!(out.contains("req_seconds_bucket{endpoint=\"analyze\",le=\"+Inf\"} 7\n"));
        assert!(out.contains("req_seconds_count{endpoint=\"analyze\"} 7\n"));
        assert!(out.contains("req_seconds_sum{endpoint=\"analyze\"} "));
    }

    #[test]
    fn counter_and_gauge_render_labeled_series() {
        let families = crate::registry::tests::FAMILIES;
        let out = crate::registry::render_prometheus(families, |read| read());
        assert!(out.starts_with("# HELP jobs_total Jobs.\n# TYPE jobs_total counter\n"));
        assert!(out.contains("jobs_total{outcome=\"ok\"} 3\njobs_total{outcome=\"err\"} 1\n"));
        // An escaped label value, NaN as 0, and no JSON-only family.
        let gauges = "ratio{of=\"a\\\"b\"} 0\n# HELP up 1 when up.\n# TYPE up gauge\nup 1\n";
        assert!(out.contains(gauges) && !out.contains("version"), "{out}");
        assert!(
            out.contains("wall_seconds_count{endpoint=\"x\"} 1\n"),
            "{out}"
        );
        assert_eq!(out.matches("# HELP ").count(), 4);
        assert_eq!(out.matches("# TYPE ").count(), 4);
    }
}
