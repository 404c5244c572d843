//! # gleipnir-telemetry
//!
//! The observability substrate for the analysis fleet: end-to-end request
//! tracing plus low-overhead latency histograms, std-only and dependency
//! free (the container is offline).
//!
//! Three pieces, designed so the analysis pipeline stays bit-deterministic
//! with telemetry enabled:
//!
//! * **Spans** ([`Span`], [`SpanName`], [`TraceCtx`]) — recorded into
//!   per-thread lock-free ring buffers (single-writer
//!   seqlock slots, relaxed atomics, no allocation at record time). A
//!   request's spans are collected into a bounded in-memory [`TraceStore`]
//!   when the request completes, and served as a span tree ([`Trace`]).
//! * **Histograms** ([`Histogram`]) — fixed-boundary log-scale buckets
//!   (4 per decade, 1 µs … 100 s) with `p50`/`p95`/`p99` estimation and
//!   Prometheus `_bucket`/`_sum`/`_count` exposition.
//! * **Metric registry** ([`registry`]) — metric families declared once
//!   in an ordered table and rendered from it as Prometheus text format
//!   v0.0.4 (label escaping, non-finite values as 0), as a nested JSON
//!   document, and as the docs' Markdown catalog.
//!
//! Telemetry is *passive*: nothing here feeds back into any computation,
//! every counter is a relaxed atomic, and span recording off the hot path
//! costs a handful of relaxed stores. Tracing is scoped: spans are only
//! recorded while a [`TraceCtx`] is active (ambient via [`with_ctx`], or
//! captured explicitly by worker closures), so a library user who never
//! starts a trace pays only the dormant thread-local check.

#![warn(missing_docs)]

mod hist;
mod prom;
pub mod registry;
mod span;
mod trace;

pub use hist::{Histogram, HistogramSnapshot, LATENCY_BOUNDS_MS};
pub use span::{detail, SpanName, SpanRecord};
pub use trace::{SpanNode, Trace, TraceStore};

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since the process-wide telemetry epoch (the first
/// call). All span timestamps share this timebase.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Mints a fresh process-unique span id (never 0; 0 means "no parent").
pub fn next_span_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Mints a fresh trace id: well-mixed 64-bit ids seeded from the wall
/// clock at first use, so ids from successive server runs don't collide
/// in dashboards. Never 0.
pub fn next_trace_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E3779B97F4A7C15)
    });
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    // splitmix64: every output is distinct for distinct inputs.
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    let id = z ^ (z >> 31);
    if id == 0 {
        1
    } else {
        id
    }
}

/// The ambient tracing context: which trace spans belong to and which
/// span is the current parent. `Copy` so worker closures can capture it
/// by value at dispatch time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace every span recorded under this context belongs to.
    pub trace_id: u64,
    /// The span id new child spans are parented under (0 = root).
    pub parent: u32,
}

thread_local! {
    static ACTIVE: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The ambient [`TraceCtx`] on this thread, if a trace is in progress.
pub fn active() -> Option<TraceCtx> {
    ACTIVE.with(|a| a.get())
}

/// Runs `f` with `ctx` as the ambient tracing context, restoring the
/// previous context afterwards (contexts nest).
pub fn with_ctx<R>(ctx: TraceCtx, f: impl FnOnce() -> R) -> R {
    let prev = ACTIVE.with(|a| a.replace(Some(ctx)));
    struct Restore(Option<TraceCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Low-level span record: writes one completed span into this thread's
/// ring. `id` must come from [`next_span_id`]. No allocation.
#[allow(clippy::too_many_arguments)]
pub fn record_span(
    ctx: TraceCtx,
    name: SpanName,
    id: u32,
    start_ns: u64,
    end_ns: u64,
    detail: u32,
    value: u64,
    value2: u64,
) {
    span::record(&SpanRecord {
        trace_id: ctx.trace_id,
        id,
        parent: ctx.parent,
        name,
        detail,
        value,
        value2,
        start_ns,
        end_ns,
    });
}

/// An in-progress span: stack-allocated, records itself into the
/// thread-local ring on [`Span::end`].
#[derive(Debug)]
pub struct Span {
    ctx: TraceCtx,
    name: SpanName,
    id: u32,
    detail: u32,
    start_ns: u64,
}

impl Span {
    /// Starts a span under `ctx` (the span's parent is `ctx.parent`).
    pub fn start(ctx: TraceCtx, name: SpanName) -> Span {
        Span {
            ctx,
            name,
            id: next_span_id(),
            detail: 0,
            start_ns: now_ns(),
        }
    }

    /// This span's id — pass as `parent` in a child [`TraceCtx`].
    pub fn id(&self) -> u32 {
        self.id
    }

    /// A child context parented under this span.
    pub fn child_ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.ctx.trace_id,
            parent: self.id,
        }
    }

    /// Sets the name-specific detail code (see [`SpanName`] docs).
    pub fn set_detail(&mut self, detail: u32) {
        self.detail = detail;
    }

    /// Completes the span and records it.
    pub fn end(self) {
        record_span(
            self.ctx,
            self.name,
            self.id,
            self.start_ns,
            now_ns(),
            self.detail,
            0,
            0,
        );
    }
}

/// Process-global telemetry state: the trace store plus the histograms the
/// analysis pipeline records into regardless of which front end (server,
/// CLI, bench) is driving it.
pub struct Telemetry {
    traces: TraceStore,
    /// Plan-stage wall time per stage run, every analysis path (ms).
    pub plan_ms: Histogram,
    /// Solve-stage wall time per stage run, every analysis path (ms).
    pub solve_ms: Histogram,
    /// Assemble-stage wall time per stage run, every analysis path (ms).
    pub assemble_ms: Histogram,
    /// Interior-point solve wall time per lead SDP solve (ms).
    pub ip_solve_ms: Histogram,
    /// Anytime refinement latency: first answer to refined ε (ms).
    pub refine_ms: Histogram,
}

impl Telemetry {
    fn new() -> Telemetry {
        Telemetry {
            traces: TraceStore::new(256),
            plan_ms: Histogram::latency(),
            solve_ms: Histogram::latency(),
            assemble_ms: Histogram::latency(),
            ip_solve_ms: Histogram::latency(),
            refine_ms: Histogram::latency(),
        }
    }

    /// Collects every span recorded for `trace_id` (across all thread
    /// rings) into the bounded trace store. Call once, when the request
    /// completes; spans recorded afterwards are not picked up.
    pub fn finish_trace(&self, trace_id: u64) {
        let spans = span::collect(trace_id);
        self.traces.push(trace_id, spans);
    }

    /// Looks up a completed trace by id (most recent ~256 kept).
    pub fn trace(&self, trace_id: u64) -> Option<Trace> {
        self.traces.get(trace_id)
    }
}

/// The process-global [`Telemetry`] instance.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// Formats a trace id the way the server's `X-Trace-Id` header and
/// `/trace/<id>` route spell it: 16 lowercase hex digits.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a trace id in the [`format_trace_id`] spelling.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_round_trip() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_eq!(parse_trace_id(&format_trace_id(a)), Some(a));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("00000000000000000"), None); // 17 digits
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        assert_eq!(active(), None);
        let outer = TraceCtx {
            trace_id: 7,
            parent: 1,
        };
        let inner = TraceCtx {
            trace_id: 7,
            parent: 2,
        };
        with_ctx(outer, || {
            assert_eq!(active(), Some(outer));
            with_ctx(inner, || assert_eq!(active(), Some(inner)));
            assert_eq!(active(), Some(outer));
        });
        assert_eq!(active(), None);
    }

    #[test]
    fn spans_round_trip_through_the_store() {
        let trace_id = next_trace_id();
        let ctx = TraceCtx {
            trace_id,
            parent: 0,
        };
        let mut root = Span::start(ctx, SpanName::Request);
        root.set_detail(crate::span::detail::ENDPOINT_ANALYZE);
        let child_ctx = root.child_ctx();
        let child = Span::start(child_ctx, SpanName::Plan);
        child.end();
        root.end();
        global().finish_trace(trace_id);
        let trace = global().trace(trace_id).expect("trace stored");
        assert_eq!(trace.trace_id, trace_id);
        assert_eq!(trace.spans.len(), 2);
        let roots = trace.tree();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].record.name, SpanName::Request);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].record.name, SpanName::Plan);
    }
}
