//! Span-tree arithmetic: self time per span name, and completeness counts.
//!
//! Trees come from two places with one shape: in-process traces
//! (`gleipnir_telemetry::Trace`) and the server's `GET /trace/<id>` JSON.
//! A span's self time is its wall time minus the part of its interval its
//! children cover; children may overlap (parallel obligations on several
//! pool workers), so the covered part is the length of their union.

use crate::layers::PHASES;
use gleipnir_server::json::Json;
use gleipnir_telemetry::{SpanName, SpanNode};
use std::collections::BTreeMap;

/// One span, with times in ms on the trace's own clock.
#[derive(Clone, Debug, Default)]
pub struct Node {
    pub name: String,
    pub start_ms: f64,
    pub end_ms: f64,
    /// Pool queue wait, obligation spans only.
    pub wait_ms: f64,
    /// Interior-point iterations, obligation spans only.
    pub iterations: u64,
    pub children: Vec<Node>,
}

impl Node {
    pub fn wall_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// Wall time not covered by any child (children clipped to this span).
    pub fn self_ms(&self) -> f64 {
        let mut iv: Vec<(f64, f64)> = self
            .children
            .iter()
            .map(|c| (c.start_ms.max(self.start_ms), c.end_ms.min(self.end_ms)))
            .filter(|(s, e)| e > s)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in iv {
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        (self.wall_ms() - covered).max(0.0)
    }

    /// Converts an in-process span tree.
    pub fn from_telemetry(n: &SpanNode) -> Node {
        let r = &n.record;
        Node {
            name: r.name.as_str().to_string(),
            start_ms: r.start_ns as f64 / 1e6,
            end_ms: r.end_ns as f64 / 1e6,
            wait_ms: if r.name == SpanName::Obligation {
                r.value as f64 / 1e6
            } else {
                0.0
            },
            iterations: if r.name == SpanName::Obligation {
                r.value2
            } else {
                0
            },
            children: n.children.iter().map(Node::from_telemetry).collect(),
        }
    }

    /// Converts one span object of the `/trace/<id>` JSON document.
    pub fn from_json(v: &Json) -> Option<Node> {
        let start_ms = v.get("start_ms")?.as_f64()?;
        Some(Node {
            name: v.get("name")?.as_str()?.to_string(),
            start_ms,
            end_ms: start_ms + v.get("wall_ms")?.as_f64()?,
            wait_ms: v.get("wait_ms").and_then(Json::as_f64).unwrap_or(0.0),
            iterations: v.get("iterations").and_then(Json::as_usize).unwrap_or(0) as u64,
            children: v
                .get("children")?
                .as_array()?
                .iter()
                .map(Node::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Per-name totals over any number of trees.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub count: usize,
    pub wall_ms: f64,
    pub self_ms: f64,
    pub wait_ms: f64,
    pub iterations: u64,
}

/// Self time, wall time, and counts aggregated by span name.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    pub by_name: BTreeMap<String, Tally>,
}

impl Profile {
    pub fn add_tree(&mut self, root: &Node) {
        let t = self.by_name.entry(root.name.clone()).or_default();
        t.count += 1;
        t.wall_ms += root.wall_ms();
        t.self_ms += root.self_ms();
        t.wait_ms += root.wait_ms;
        t.iterations += root.iterations;
        for c in &root.children {
            self.add_tree(c);
        }
    }

    pub fn get(&self, name: &str) -> Tally {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Human-readable table: one line per span name.
    pub fn render(&self, per: f64, per_label: &str) -> String {
        let mut out = format!(
            "  {:<16} {:>8} {:>14} {:>14}   (ms {per_label})\n",
            "span", "count", "self", "wall"
        );
        for (name, t) in &self.by_name {
            out.push_str(&format!(
                "  {:<16} {:>8} {:>14.3} {:>14.3}\n",
                name,
                t.count,
                t.self_ms / per,
                t.wall_ms / per
            ));
        }
        out
    }
}

/// Spans a complete trace holds but `roots` lacks. A span whose parent was
/// lost surfaces as an extra root; obligation spans must number at least
/// `obligations`; every lead solve re-emits one span per solver phase.
pub fn spans_lost(roots: &[Node], obligations: usize, lead_solves: usize) -> usize {
    let mut p = Profile::default();
    for r in roots {
        p.add_tree(r);
    }
    let mut lost = roots.len().saturating_sub(1);
    lost += obligations.saturating_sub(p.get("obligation").count);
    for phase in PHASES {
        lost += lead_solves.saturating_sub(p.get(&format!("phase_{phase}")).count);
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, start_ms: f64, end_ms: f64, children: Vec<Node>) -> Node {
        Node {
            name: name.into(),
            start_ms,
            end_ms,
            wait_ms: 0.0,
            iterations: 0,
            children,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children overlap ([1,3] and [2,5] cover [1,5]) and one runs past
        // the parent's end ([8,12] is clipped to [8,10]): 10 - 4 - 2 = 4.
        let root = node(
            "solve",
            0.0,
            10.0,
            vec![
                node("obligation", 1.0, 3.0, vec![]),
                node("obligation", 2.0, 5.0, vec![]),
                node("obligation", 8.0, 12.0, vec![]),
            ],
        );
        assert!((root.self_ms() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn profile_aggregates_self_and_wall_by_name() {
        let tree = node(
            "request",
            0.0,
            10.0,
            vec![
                node("queue_wait", 0.0, 1.0, vec![]),
                node(
                    "handler",
                    1.0,
                    10.0,
                    vec![
                        node("plan", 1.0, 4.0, vec![]),
                        node("plan", 5.0, 6.0, vec![]),
                    ],
                ),
            ],
        );
        let mut p = Profile::default();
        p.add_tree(&tree);
        p.add_tree(&tree);
        let handler = p.get("handler");
        assert_eq!(handler.count, 2);
        assert!((handler.wall_ms - 18.0).abs() < 1e-12);
        assert!((handler.self_ms - 10.0).abs() < 1e-12); // 2 × (9 − 4)
        assert!((p.get("request").self_ms - 0.0).abs() < 1e-12);
        assert_eq!(p.get("plan").count, 4);
        assert_eq!(p.get("missing").count, 0);
    }

    #[test]
    fn lost_spans_are_counted() {
        let phases = |t: f64| -> Vec<Node> {
            PHASES
                .iter()
                .map(|p| node(&format!("phase_{p}"), t, t + 0.1, vec![]))
                .collect()
        };
        let full = node(
            "request",
            0.0,
            10.0,
            vec![
                node("obligation", 1.0, 2.0, phases(1.0)),
                node("obligation", 2.0, 3.0, phases(2.0)),
            ],
        );
        assert_eq!(spans_lost(std::slice::from_ref(&full), 2, 2), 0);
        // One obligation and its phases gone: 1 + 7 spans short.
        let mut partial = full.clone();
        partial.children.pop();
        assert_eq!(spans_lost(&[partial], 2, 2), 8);
        // A lost parent leaves its child as a second root.
        let orphan = node("obligation", 4.0, 5.0, vec![]);
        assert_eq!(spans_lost(&[full, orphan], 2, 2), 1);
    }

    #[test]
    fn json_span_trees_parse() {
        let doc = r#"{"trace_id":"00000000000000ab","wall_ms":3.000,"spans":[
            {"name":"request","id":1,"start_ms":0.000,"wall_ms":3.000,"detail":"analyze","children":[
              {"name":"obligation","id":2,"start_ms":0.500,"wall_ms":1.000,"detail":"cache_hit","wait_ms":0.250,"iterations":0,"children":[]}]}]}"#;
        let v = gleipnir_server::json::parse(doc).unwrap();
        let root = Node::from_json(&v.get("spans").unwrap().as_array().unwrap()[0]).unwrap();
        assert_eq!(root.children[0].name, "obligation");
        assert!((root.children[0].wait_ms - 0.25).abs() < 1e-12);
        assert!((root.self_ms() - 2.0).abs() < 1e-12);
    }
}
