//! Metric families declared once and rendered three ways.
//!
//! A server declares its metrics as one ordered table of [`Family`]s.
//! [`render_prometheus`] writes the text exposition, [`render_json`] the
//! nested JSON document and [`render_catalog`] the docs' Markdown table,
//! all from that table, so no rendering can name a metric the others do
//! not.

use crate::hist::HistogramSnapshot;
use crate::prom;
use std::fmt::Write;

/// What a family is in the Prometheus exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count.
    Counter,
    /// A value that goes up and down.
    Gauge,
    /// Latency buckets plus `_sum` and `_count`.
    Histogram,
    /// Not exported: the family's series are JSON keys only.
    JsonOnly,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::JsonOnly => "—",
        }
    }
}

/// One metric family. `S` is the caller's value source, handed back to
/// the caller's reader at render time.
pub struct Family<S: 'static> {
    /// Prometheus family name (empty for [`Kind::JsonOnly`]).
    pub name: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// Label names; each series gives one value per name.
    pub labels: &'static [&'static str],
    /// One line of plain text: the `# HELP` line and the catalog's
    /// meaning.
    pub help: &'static str,
    /// The family's series, in exposition order.
    pub series: &'static [Series<S>],
}

/// One series of a [`Family`].
pub struct Series<S: 'static> {
    /// Label values, in the order of the family's label names.
    pub labels: &'static [&'static str],
    /// Dotted path of the series in the JSON document
    /// (`queue.shed_total`); empty for a Prometheus-only series.
    pub json: &'static str,
    /// Where the value comes from.
    pub source: S,
}

/// Declares a [`Series`].
pub const fn series<S>(
    labels: &'static [&'static str],
    json: &'static str,
    source: S,
) -> Series<S> {
    Series {
        labels,
        json,
        source,
    }
}

/// A value read at render time.
pub enum Value {
    /// A count.
    Int(usize),
    /// A real number: JSON in scientific notation, `null` when not finite.
    Real(f64),
    /// Milliseconds: JSON with three decimals, `null` when not finite.
    Ms(f64),
    /// A flag: JSON `true`/`false`, exposition `1`/`0`.
    Flag(bool),
    /// Text without control characters (JSON only).
    Text(&'static str),
    /// A histogram: full buckets in the exposition,
    /// `{count,p50,p95,p99}` in milliseconds in JSON.
    Hist(HistogramSnapshot),
}

impl Value {
    fn write_json(&self, out: &mut String) {
        let _ = match self {
            Value::Int(n) => write!(out, "{n}"),
            Value::Real(v) if v.is_finite() => write!(out, "{v:e}"),
            Value::Ms(v) if v.is_finite() => write!(out, "{v:.3}"),
            Value::Real(_) | Value::Ms(_) => write!(out, "null"),
            Value::Flag(b) => write!(out, "{b}"),
            Value::Text(s) => write!(out, "{s:?}"),
            Value::Hist(h) => write!(
                out,
                "{{\"count\":{},\"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3}}}",
                h.count,
                h.quantile_ms(0.50),
                h.quantile_ms(0.95),
                h.quantile_ms(0.99),
            ),
        };
    }

    fn write_sample(&self, out: &mut String) {
        let _ = match self {
            Value::Int(n) => write!(out, "{n}"),
            Value::Real(v) | Value::Ms(v) => write!(out, "{}", prom::fmt_value(*v)),
            Value::Flag(b) => write!(out, "{}", u8::from(*b)),
            Value::Text(_) | Value::Hist(_) => unreachable!("not a sample value"),
        };
    }
}

/// Renders the Prometheus text exposition (format v0.0.4) of every
/// family that is not JSON-only, in table order.
pub fn render_prometheus<S>(families: &[Family<S>], mut read: impl FnMut(&S) -> Value) -> String {
    let mut out = String::with_capacity(32 * 1024);
    for f in families.iter().filter(|f| f.kind != Kind::JsonOnly) {
        let (name, kind) = (f.name, f.kind.as_str());
        let _ = write!(out, "# HELP {name} {}\n# TYPE {name} {kind}\n", f.help);
        for s in f.series {
            match read(&s.source) {
                Value::Hist(snap) => prom::histogram(&mut out, name, f.labels, s.labels, &snap),
                value => {
                    out.push_str(name);
                    prom::labels(&mut out, f.labels, s.labels);
                    out.push(' ');
                    value.write_sample(&mut out);
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Renders the JSON document: every series with a JSON path, in table
/// order, nested by its dotted path. The keys of one object must be
/// declared one after another.
///
/// # Panics
///
/// If the table declares an object's keys in two separate runs.
pub fn render_json<S>(families: &[Family<S>], mut read: impl FnMut(&S) -> Value) -> String {
    let mut out = String::from("{");
    let (mut open, mut opened): (Vec<&str>, Vec<String>) = (Vec::new(), Vec::new());
    for s in families.iter().flat_map(|f| f.series) {
        let mut keys: Vec<&str> = s.json.split('.').filter(|k| !k.is_empty()).collect();
        let Some(leaf) = keys.pop() else { continue };
        let common = open.iter().zip(&keys).take_while(|(a, b)| a == b).count();
        for _ in common..open.len() {
            out.push('}');
        }
        open.truncate(common);
        for depth in common..keys.len() {
            let path = keys[..=depth].join(".");
            assert!(
                !opened.contains(&path),
                "JSON object `{path}` declared in two runs"
            );
            opened.push(path);
            comma(&mut out);
            let _ = write!(out, "\"{}\":{{", keys[depth]);
            open.push(keys[depth]);
        }
        comma(&mut out);
        let _ = write!(out, "\"{leaf}\":");
        read(&s.source).write_json(&mut out);
    }
    for _ in 0..=open.len() {
        out.push('}');
    }
    out
}

fn comma(out: &mut String) {
    if !out.ends_with('{') {
        out.push(',');
    }
}

/// Renders the docs catalog: a Markdown table with one row per family
/// (Series | Type | Labels | JSON key | Meaning). Label values are listed
/// for families with more than one series.
pub fn render_catalog<S>(families: &[Family<S>]) -> String {
    let mut out =
        String::from("| Series | Type | Labels | JSON key | Meaning |\n|---|---|---|---|---|\n");
    for f in families {
        let series = match f.kind {
            Kind::JsonOnly => "—".to_string(),
            _ => format!("`{}`", f.name),
        };
        let mut labels = Vec::new();
        for (i, name) in f.labels.iter().enumerate() {
            let mut values: Vec<&str> = Vec::new();
            for s in f.series {
                if !values.contains(&s.labels[i]) {
                    values.push(s.labels[i]);
                }
            }
            labels.push(match f.series {
                [_] => format!("`{name}`"),
                _ => format!("`{name}` (`{}`)", values.join("`, `")),
            });
        }
        let keys: Vec<String> = f
            .series
            .iter()
            .filter(|s| !s.json.is_empty())
            .map(|s| format!("`{}`", s.json))
            .collect();
        let (kind, labels, keys) = (f.kind.as_str(), labels.join(", "), keys.join(", "));
        let _ = writeln!(
            out,
            "| {series} | {kind} | {labels} | {keys} | {} |",
            f.help
        );
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Sources are plain functions here; a server uses its own enum.
    pub(crate) type Read = fn() -> Value;

    fn hist() -> Value {
        let h = crate::Histogram::latency();
        h.observe_ms(3.0);
        Value::Hist(h.snapshot())
    }

    #[rustfmt::skip]
    pub(crate) static FAMILIES: &[Family<Read>] = &[
        Family { name: "", kind: Kind::JsonOnly, labels: &[], help: "Text.",
            series: &[series(&[], "version", || Value::Text("1.\"0\""))] },
        Family { name: "jobs_total", kind: Kind::Counter, labels: &["outcome"], help: "Jobs.",
            series: &[series(&["ok"], "jobs.ok", || Value::Int(3)),
                series(&["err"], "", || Value::Int(1))] },
        Family { name: "ratio", kind: Kind::Gauge, labels: &["of"], help: "A ratio.",
            series: &[series(&["a\"b"], "jobs.ratio", || Value::Real(f64::NAN))] },
        Family { name: "up", kind: Kind::Gauge, labels: &[], help: "1 when up.",
            series: &[series(&[], "up", || Value::Flag(true))] },
        Family { name: "wall_seconds", kind: Kind::Histogram, labels: &["endpoint"], help: "Walls.",
            series: &[series(&["x"], "latency.x.wall", hist)] },
    ];

    #[test]
    fn json_nests_dotted_paths() {
        assert_eq!(
            render_json(FAMILIES, |read| read()),
            "{\"version\":\"1.\\\"0\\\"\",\"jobs\":{\"ok\":3,\"ratio\":null},\"up\":true,\
             \"latency\":{\"x\":{\"wall\":{\"count\":1,\"p50\":2.470,\"p95\":3.093,\
             \"p99\":3.148}}}}"
        );
    }

    #[test]
    #[should_panic(expected = "JSON object `a` declared in two runs")]
    fn an_object_declared_in_two_runs_is_refused() {
        #[rustfmt::skip]
        static SPLIT: &[Family<Read>] = &[Family { name: "", kind: Kind::JsonOnly, labels: &[],
            help: "", series: &[series(&[], "a.b", || Value::Int(1)),
                series(&[], "c", || Value::Int(2)), series(&[], "a.d", || Value::Int(3))] }];
        render_json(SPLIT, |read| read());
    }

    #[test]
    fn catalog_has_one_row_per_family() {
        assert_eq!(
            render_catalog(FAMILIES),
            "| Series | Type | Labels | JSON key | Meaning |\n\
             |---|---|---|---|---|\n\
             | — | — |  | `version` | Text. |\n\
             | `jobs_total` | counter | `outcome` (`ok`, `err`) | `jobs.ok` | Jobs. |\n\
             | `ratio` | gauge | `of` | `jobs.ratio` | A ratio. |\n\
             | `up` | gauge |  | `up` | 1 when up. |\n\
             | `wall_seconds` | histogram | `endpoint` | `latency.x.wall` | Walls. |\n"
        );
    }
}
