//! Server-side counters behind `GET /metrics`.
//!
//! Everything is a relaxed atomic — metrics are advisory, and the hot path
//! must never contend on them. Engine-level numbers (cache hits/misses,
//! pool size) are read fresh from the [`Engine`](gleipnir_core::Engine) at
//! render time rather than mirrored.

use gleipnir_core::jsonfmt::{json_f64, json_ms};
use gleipnir_core::{CacheStats, LoadStats, RefineStats, SchedulerDepths, TierStats};
use gleipnir_telemetry as telemetry;
use gleipnir_telemetry::detail;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The crate version baked into `/healthz`, `/metrics`, and the
/// `gleipnir_build_info` Prometheus series.
pub(crate) const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Cumulative counters for one server instance.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Connections accepted (including ones later shed).
    pub connections_total: AtomicUsize,
    /// Connections shed with `429` because the queue was full.
    pub shed_total: AtomicUsize,
    /// Requests parsed and dispatched to workers (keep-alive means this
    /// can far exceed `connections_total`).
    pub requests_total: AtomicUsize,
    /// Requests currently being served by workers.
    pub in_flight: AtomicUsize,
    /// Successful `/analyze` responses.
    pub analyze_ok: AtomicUsize,
    /// Failed `/analyze` responses (parse or analysis errors).
    pub analyze_err: AtomicUsize,
    /// Successful `/batch` responses (the batch itself; entries may fail).
    pub batch_ok: AtomicUsize,
    /// Failed `/batch` responses.
    pub batch_err: AtomicUsize,
    /// Successful `/diff` responses.
    pub diff_ok: AtomicUsize,
    /// Failed `/diff` responses (parse or analysis errors).
    pub diff_err: AtomicUsize,
    /// Cumulative gates served from reused diff prefixes (no re-plan, no
    /// solve) across all `/diff` responses.
    pub diff_prefix_gates_reused: AtomicUsize,
    /// Non-analysis HTTP failures (bad method/path/body framing).
    pub http_err: AtomicUsize,
    /// Requests rejected with `429` because the tenant was over its
    /// per-class queue quota (distinct from `shed_total`, which is
    /// whole-server backpressure).
    pub quota_rejections: AtomicUsize,
    /// Anytime `/analyze` requests accepted with `202` + a token.
    pub anytime_accepted: AtomicUsize,
    /// Records appended to the certificate store so far.
    pub persisted_records: AtomicUsize,
    /// What the startup store load found (zeroes when no store).
    pub load_loaded: AtomicUsize,
    /// Startup-load rejected-record count.
    pub load_rejected: AtomicUsize,
    /// `GET /certs/since/` responses served to peers.
    pub certs_served: AtomicUsize,
    /// Successful gossip pulls (peer reachable, body imported).
    pub peer_pull_ok: AtomicUsize,
    /// Failed gossip pulls (unreachable peer or unusable body).
    pub peer_pull_err: AtomicUsize,
    /// Records received from peers (before verification).
    pub peer_records_received: AtomicUsize,
    /// Peer records that re-certified and entered the cache.
    pub peer_records_added: AtomicUsize,
    /// Peer records that failed re-certification (the containment path
    /// for malicious, stale, or corrupt peers).
    pub peer_records_rejected: AtomicUsize,
    /// Request wall (parse start → response framed) for `/analyze`.
    pub req_analyze_ms: telemetry::Histogram,
    /// Request wall for `/batch`.
    pub req_batch_ms: telemetry::Histogram,
    /// Request wall for `/diff`.
    pub req_diff_ms: telemetry::Histogram,
    /// Request wall for `/refine/<token>` polls.
    pub req_refine_ms: telemetry::Histogram,
    /// Request wall for everything else (`/healthz`, `/metrics`, …).
    pub req_other_ms: telemetry::Histogram,
}

/// A point-in-time snapshot of everything the renderers need beyond the
/// cumulative counters: engine state, queue depths (read under the
/// queue's own lock rather than mirrored in racy atomics), and config.
pub(crate) struct MetricsView {
    pub cache: CacheStats,
    pub tiers: TierStats,
    pub pool_threads: usize,
    pub workers: usize,
    /// Parsed HTTP requests waiting for a worker (capacity-oriented;
    /// the shed threshold is expressed against this number).
    pub queue_depth: usize,
    pub queue_capacity: usize,
    /// Combined per-class backlog: HTTP jobs waiting for a worker plus
    /// engine-pool obligations waiting for a solver, by priority class.
    pub depths: SchedulerDepths,
    pub store_enabled: bool,
    /// Refinement lifecycle counts from the engine's registry.
    pub refines: RefineStats,
    /// Configured per-tenant, per-class admission quota (0 = unlimited).
    pub tenant_quota: usize,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            started: Instant::now(),
            connections_total: AtomicUsize::new(0),
            shed_total: AtomicUsize::new(0),
            requests_total: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            analyze_ok: AtomicUsize::new(0),
            analyze_err: AtomicUsize::new(0),
            batch_ok: AtomicUsize::new(0),
            batch_err: AtomicUsize::new(0),
            diff_ok: AtomicUsize::new(0),
            diff_err: AtomicUsize::new(0),
            diff_prefix_gates_reused: AtomicUsize::new(0),
            http_err: AtomicUsize::new(0),
            quota_rejections: AtomicUsize::new(0),
            anytime_accepted: AtomicUsize::new(0),
            persisted_records: AtomicUsize::new(0),
            load_loaded: AtomicUsize::new(0),
            load_rejected: AtomicUsize::new(0),
            certs_served: AtomicUsize::new(0),
            peer_pull_ok: AtomicUsize::new(0),
            peer_pull_err: AtomicUsize::new(0),
            peer_records_received: AtomicUsize::new(0),
            peer_records_added: AtomicUsize::new(0),
            peer_records_rejected: AtomicUsize::new(0),
            req_analyze_ms: telemetry::Histogram::latency(),
            req_batch_ms: telemetry::Histogram::latency(),
            req_diff_ms: telemetry::Histogram::latency(),
            req_refine_ms: telemetry::Histogram::latency(),
            req_other_ms: telemetry::Histogram::latency(),
        }
    }

    /// Uptime in whole seconds (for `/healthz` and the Prometheus gauge).
    pub(crate) fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Folds one request wall into the per-endpoint latency histogram.
    /// `endpoint` is the request span's [`detail`] code.
    pub(crate) fn observe_request(&self, endpoint: u32, wall_ms: f64) {
        match endpoint {
            detail::ENDPOINT_ANALYZE => self.req_analyze_ms.observe_ms(wall_ms),
            detail::ENDPOINT_BATCH => self.req_batch_ms.observe_ms(wall_ms),
            detail::ENDPOINT_DIFF => self.req_diff_ms.observe_ms(wall_ms),
            detail::ENDPOINT_REFINE => self.req_refine_ms.observe_ms(wall_ms),
            _ => self.req_other_ms.observe_ms(wall_ms),
        }
    }

    pub(crate) fn note_load(&self, stats: &LoadStats) {
        self.load_loaded.store(stats.loaded, Ordering::Relaxed);
        self.load_rejected.store(stats.rejected, Ordering::Relaxed);
    }

    /// Renders the `/metrics` JSON document from the cumulative counters
    /// plus a [`MetricsView`] snapshot taken by the caller.
    pub(crate) fn to_json(&self, v: &MetricsView) -> String {
        let c = |a: &AtomicUsize| a.load(Ordering::Relaxed);
        let t = telemetry::global();
        format!(
            concat!(
                "{{\"uptime_ms\":{},",
                "\"pool_threads\":{},\"workers\":{},",
                "\"queue\":{{\"depth\":{},\"capacity\":{},\"shed_total\":{}}},",
                "\"scheduler\":{{\"interactive\":{},\"refinement\":{},\"batch\":{},",
                "\"tenant_quota\":{},\"quota_rejections\":{}}},",
                "\"refinements\":{{\"started\":{},\"completed\":{},\"failed\":{},",
                "\"pending\":{},\"accepted\":{}}},",
                "\"in_flight\":{},",
                "\"requests\":{{\"connections_total\":{},\"requests_total\":{},",
                "\"analyze_ok\":{},\"analyze_err\":{},",
                "\"batch_ok\":{},\"batch_err\":{},\"http_err\":{}}},",
                "\"diff\":{{\"requests_total\":{},\"errors\":{},\"prefix_gates_reused\":{}}},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"inflight_dedup\":{}}},",
                "\"tiers\":{{\"closed_form\":{},\"cold\":{},\"ip_iterations\":{}}},",
                "\"stage_totals_ms\":{{\"plan\":{},\"solve\":{},\"assemble\":{}}},",
                "\"store\":{{\"enabled\":{},\"loaded\":{},\"rejected\":{},\"appended\":{}}},",
                "\"peers\":{{\"certs_served\":{},\"pull_ok\":{},\"pull_err\":{},",
                "\"records_received\":{},\"records_added\":{},\"records_rejected\":{}}},",
                "\"uptime_seconds\":{},\"version\":\"{}\",",
                "\"saturation\":{{\"workers_busy\":{},\"queue_fill\":{}}},",
                "\"latency_ms\":{{\"analyze\":{},\"batch\":{},\"diff\":{},\"refine\":{},\"other\":{}}}}}"
            ),
            json_ms(self.started.elapsed().as_secs_f64() * 1e3),
            v.pool_threads,
            v.workers,
            v.queue_depth,
            v.queue_capacity,
            c(&self.shed_total),
            v.depths.interactive,
            v.depths.refinement,
            v.depths.batch,
            v.tenant_quota,
            c(&self.quota_rejections),
            v.refines.started,
            v.refines.completed,
            v.refines.failed,
            v.refines.pending,
            c(&self.anytime_accepted),
            c(&self.in_flight),
            c(&self.connections_total),
            c(&self.requests_total),
            c(&self.analyze_ok),
            c(&self.analyze_err),
            c(&self.batch_ok),
            c(&self.batch_err),
            c(&self.http_err),
            c(&self.diff_ok) + c(&self.diff_err),
            c(&self.diff_err),
            c(&self.diff_prefix_gates_reused),
            v.cache.hits,
            v.cache.misses,
            v.cache.entries,
            v.cache.inflight_dedup,
            v.tiers.closed_form,
            v.tiers.cold,
            v.tiers.ip_iterations,
            // Stage totals are the process-wide stage histograms' sums:
            // every analysis path records into them.
            json_ms(t.plan_ms.sum_ms()),
            json_ms(t.solve_ms.sum_ms()),
            json_ms(t.assemble_ms.sum_ms()),
            v.store_enabled,
            c(&self.load_loaded),
            c(&self.load_rejected),
            c(&self.persisted_records),
            c(&self.certs_served),
            c(&self.peer_pull_ok),
            c(&self.peer_pull_err),
            c(&self.peer_records_received),
            c(&self.peer_records_added),
            c(&self.peer_records_rejected),
            self.uptime_seconds(),
            VERSION,
            json_f64(c(&self.in_flight) as f64 / v.workers as f64),
            json_f64(v.queue_depth as f64 / v.queue_capacity as f64),
            quantiles_json(&self.req_analyze_ms),
            quantiles_json(&self.req_batch_ms),
            quantiles_json(&self.req_diff_ms),
            quantiles_json(&self.req_refine_ms),
            quantiles_json(&self.req_other_ms),
        )
    }

    /// Renders the `/metrics?format=prometheus` document (text exposition
    /// format v0.0.4). Same numbers as the JSON, plus the latency
    /// histograms in full (the JSON carries only quantile summaries).
    pub(crate) fn to_prometheus(&self, v: &MetricsView) -> String {
        use telemetry::prom;
        let c = |a: &AtomicUsize| a.load(Ordering::Relaxed) as u64;
        let no: &[(&str, &str)] = &[];
        let (cache, tiers) = (&v.cache, &v.tiers);
        let (workers, pool_threads) = (v.workers, v.pool_threads);
        let (queue_capacity, store_enabled) = (v.queue_capacity, v.store_enabled);
        let mut out = String::with_capacity(8 * 1024);
        prom::gauge(
            &mut out,
            "gleipnir_build_info",
            "Constant 1, labeled with the server version.",
            &[(&[("version", VERSION)][..], 1.0)],
        );
        prom::gauge(
            &mut out,
            "gleipnir_uptime_seconds",
            "Seconds since this server started.",
            &[(no, self.started.elapsed().as_secs_f64())],
        );
        prom::counter(
            &mut out,
            "gleipnir_connections_total",
            "Connections accepted (including ones later shed).",
            &[(no, c(&self.connections_total))],
        );
        prom::counter(
            &mut out,
            "gleipnir_shed_total",
            "Connections shed because the server was at capacity.",
            &[(no, c(&self.shed_total))],
        );
        prom::counter(
            &mut out,
            "gleipnir_requests_total",
            "Responses generated (parsed requests plus protocol errors).",
            &[(no, c(&self.requests_total))],
        );
        prom::counter(
            &mut out,
            "gleipnir_http_errors_total",
            "Error responses plus reads that died before one.",
            &[(no, c(&self.http_err))],
        );
        prom::counter(
            &mut out,
            "gleipnir_quota_rejections_total",
            "Requests rejected 429 because a tenant was over its class quota.",
            &[(no, c(&self.quota_rejections))],
        );
        prom::counter(
            &mut out,
            "gleipnir_refinements_total",
            "Anytime refinement lifecycle events.",
            &[
                (&[("event", "started")][..], v.refines.started as u64),
                (&[("event", "completed")][..], v.refines.completed as u64),
                (&[("event", "failed")][..], v.refines.failed as u64),
            ],
        );
        prom::gauge(
            &mut out,
            "gleipnir_refinements_pending",
            "Refinements registered but not yet published.",
            &[(no, v.refines.pending as f64)],
        );
        prom::counter(
            &mut out,
            "gleipnir_anytime_accepted_total",
            "Anytime /analyze requests answered 202 with a token.",
            &[(no, c(&self.anytime_accepted))],
        );
        prom::gauge(
            &mut out,
            "gleipnir_tenant_quota",
            "Per-tenant, per-class admission quota (0 = unlimited).",
            &[(no, v.tenant_quota as f64)],
        );
        prom::counter(
            &mut out,
            "gleipnir_responses_total",
            "Endpoint responses by outcome.",
            &[
                (
                    &[("endpoint", "analyze"), ("outcome", "ok")][..],
                    c(&self.analyze_ok),
                ),
                (
                    &[("endpoint", "analyze"), ("outcome", "err")][..],
                    c(&self.analyze_err),
                ),
                (
                    &[("endpoint", "batch"), ("outcome", "ok")][..],
                    c(&self.batch_ok),
                ),
                (
                    &[("endpoint", "batch"), ("outcome", "err")][..],
                    c(&self.batch_err),
                ),
                (
                    &[("endpoint", "diff"), ("outcome", "ok")][..],
                    c(&self.diff_ok),
                ),
                (
                    &[("endpoint", "diff"), ("outcome", "err")][..],
                    c(&self.diff_err),
                ),
            ],
        );
        prom::counter(
            &mut out,
            "gleipnir_diff_prefix_gates_reused_total",
            "Gates served from reused diff prefixes (no re-plan, no solve).",
            &[(no, c(&self.diff_prefix_gates_reused))],
        );
        prom::gauge(
            &mut out,
            "gleipnir_in_flight_requests",
            "Requests currently being served by workers.",
            &[(no, c(&self.in_flight) as f64)],
        );
        prom::gauge(
            &mut out,
            "gleipnir_workers",
            "HTTP worker threads.",
            &[(no, workers as f64)],
        );
        prom::gauge(
            &mut out,
            "gleipnir_pool_threads",
            "Engine solve-pool threads.",
            &[(no, pool_threads as f64)],
        );
        prom::gauge(
            &mut out,
            "gleipnir_queue_depth",
            "Scheduler backlog by priority class (HTTP jobs waiting for a \
             worker plus engine obligations waiting for a solver).",
            &[
                (&[("class", "interactive")][..], v.depths.interactive as f64),
                (&[("class", "refinement")][..], v.depths.refinement as f64),
                (&[("class", "batch")][..], v.depths.batch as f64),
            ],
        );
        prom::gauge(
            &mut out,
            "gleipnir_queue_capacity",
            "Job-queue capacity (shedding starts past workers+capacity).",
            &[(no, queue_capacity as f64)],
        );
        prom::gauge(
            &mut out,
            "gleipnir_saturation_ratio",
            "Busy fraction: workers serving, queue slots filled.",
            &[
                (
                    &[("resource", "workers")][..],
                    c(&self.in_flight) as f64 / workers as f64,
                ),
                (
                    &[("resource", "queue")][..],
                    v.queue_depth as f64 / queue_capacity as f64,
                ),
            ],
        );
        prom::counter(
            &mut out,
            "gleipnir_cache_lookups_total",
            "Certificate-cache lookups by result.",
            &[
                (&[("result", "hit")][..], cache.hits as u64),
                (&[("result", "miss")][..], cache.misses as u64),
                (
                    &[("result", "inflight_join")][..],
                    cache.inflight_dedup as u64,
                ),
            ],
        );
        prom::gauge(
            &mut out,
            "gleipnir_cache_entries",
            "Certificates currently cached.",
            &[(no, cache.entries as f64)],
        );
        prom::counter(
            &mut out,
            "gleipnir_solves_total",
            "SDP judgments answered, by tier.",
            &[
                (&[("tier", "closed_form")][..], tiers.closed_form as u64),
                (&[("tier", "cold")][..], tiers.cold as u64),
            ],
        );
        prom::counter(
            &mut out,
            "gleipnir_ip_iterations_total",
            "Interior-point iterations across all SDP solves.",
            &[(no, tiers.ip_iterations as u64)],
        );
        prom::gauge(
            &mut out,
            "gleipnir_store_enabled",
            "1 when the certificate store writes through to disk.",
            &[(no, if store_enabled { 1.0 } else { 0.0 })],
        );
        prom::counter(
            &mut out,
            "gleipnir_store_records",
            "Certificate-store record movements.",
            &[
                (&[("event", "loaded")][..], c(&self.load_loaded)),
                (&[("event", "rejected")][..], c(&self.load_rejected)),
                (&[("event", "appended")][..], c(&self.persisted_records)),
            ],
        );
        prom::counter(
            &mut out,
            "gleipnir_peer_records_total",
            "Fleet gossip record movements.",
            &[
                (&[("event", "served")][..], c(&self.certs_served)),
                (&[("event", "received")][..], c(&self.peer_records_received)),
                (&[("event", "added")][..], c(&self.peer_records_added)),
                (&[("event", "rejected")][..], c(&self.peer_records_rejected)),
            ],
        );
        prom::counter(
            &mut out,
            "gleipnir_peer_pulls_total",
            "Gossip pulls by outcome.",
            &[
                (&[("outcome", "ok")][..], c(&self.peer_pull_ok)),
                (&[("outcome", "err")][..], c(&self.peer_pull_err)),
            ],
        );
        prom::histogram(
            &mut out,
            "gleipnir_request_duration_seconds",
            "Request wall from parse start to framed response, per endpoint.",
            &[
                (
                    &[("endpoint", "analyze")][..],
                    self.req_analyze_ms.snapshot(),
                ),
                (&[("endpoint", "batch")][..], self.req_batch_ms.snapshot()),
                (&[("endpoint", "diff")][..], self.req_diff_ms.snapshot()),
                (&[("endpoint", "refine")][..], self.req_refine_ms.snapshot()),
                (&[("endpoint", "other")][..], self.req_other_ms.snapshot()),
            ],
        );
        let t = telemetry::global();
        prom::histogram(
            &mut out,
            "gleipnir_stage_duration_seconds",
            "Pipeline stage walls per stage run, every analysis path.",
            &[
                (&[("stage", "plan")][..], t.plan_ms.snapshot()),
                (&[("stage", "solve")][..], t.solve_ms.snapshot()),
                (&[("stage", "assemble")][..], t.assemble_ms.snapshot()),
            ],
        );
        prom::histogram(
            &mut out,
            "gleipnir_ip_solve_duration_seconds",
            "Interior-point solve wall per real (non-closed-form) solve.",
            &[(no, t.ip_solve_ms.snapshot())],
        );
        prom::histogram(
            &mut out,
            "gleipnir_refine_duration_seconds",
            "Anytime refinement wall: token minted to exact bound published.",
            &[(no, t.refine_ms.snapshot())],
        );
        out
    }
}

/// A `{count,p50,p95,p99}` JSON summary of one latency histogram
/// (milliseconds, matching the sibling `stage_totals_ms`).
fn quantiles_json(h: &telemetry::Histogram) -> String {
    let snap = h.snapshot();
    format!(
        "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        snap.count,
        json_ms(snap.quantile_ms(0.50)),
        json_ms(snap.quantile_ms(0.95)),
        json_ms(snap.quantile_ms(0.99)),
    )
}
