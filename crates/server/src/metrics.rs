//! The server's metrics: one declaration table ([`FAMILIES`]) renders
//! `GET /metrics`, its Prometheus form and the `docs/OBSERVABILITY.md`
//! catalog. Counters are relaxed atomics (advisory; the hot path never
//! contends on them); engine numbers are read into a [`MetricsView`] at
//! render time rather than mirrored.

use gleipnir_core::{CacheStats, RefineStats, SchedulerDepths, TierStats};
use gleipnir_telemetry as telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use telemetry::detail::{
    self, ENDPOINT_ANALYZE, ENDPOINT_BATCH, ENDPOINT_DIFF, ENDPOINT_OTHER, ENDPOINT_REFINE,
};
use telemetry::registry::{self, series, Family, Kind, Series, Value};
use telemetry::{global, Histogram};
use Counter::*;
use Source::{Count, Hist, View};
use Value::{Flag, Int, Ms, Real, Text};

/// The crate version baked into `/healthz`, `/metrics`, and the
/// `gleipnir_build_info` Prometheus series.
pub(crate) const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The server's counters, one atomic each; [`FAMILIES`] says what each
/// one counts.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Counter {
    ConnectionsTotal,
    ShedTotal,
    RequestsTotal,
    InFlight,
    AnalyzeOk,
    AnalyzeErr,
    BatchOk,
    BatchErr,
    DiffOk,
    DiffErr,
    DiffPrefixGatesReused,
    HttpErr,
    QuotaRejections,
    AnytimeAccepted,
    PersistedRecords,
    LoadLoaded,
    LoadRejected,
    CertsServed,
    PeerPullOk,
    PeerPullErr,
    PeerRecordsReceived,
    PeerRecordsAdded,
    PeerRecordsRejected,
}

const COUNTERS: usize = Counter::PeerRecordsRejected as usize + 1;

/// Cumulative counters and request-latency histograms for one server
/// instance.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    counters: [AtomicUsize; COUNTERS],
    /// Request walls (parse start → response framed) for `/analyze`,
    /// `/batch`, `/diff`, `/refine/<token>` and everything else.
    latency: [Histogram; 5],
}

/// A point-in-time snapshot of everything the renderers and `/healthz`
/// read besides the histograms: counters, engine state, queue depths and
/// config.
pub(crate) struct MetricsView {
    pub uptime: Duration,
    pub counts: [usize; COUNTERS],
    pub cache: CacheStats,
    pub tiers: TierStats,
    pub pool_threads: usize,
    pub workers: usize,
    /// Parsed HTTP requests waiting for a worker.
    pub queue_depth: usize,
    pub queue_capacity: usize,
    /// Per-class backlog: HTTP jobs plus engine-pool obligations.
    pub depths: SchedulerDepths,
    pub store_enabled: bool,
    /// Refinement lifecycle counts from the engine's registry.
    pub refines: RefineStats,
    /// Configured per-tenant, per-class admission quota (0 = unlimited).
    pub tenant_quota: usize,
}

impl MetricsView {
    pub(crate) fn count(&self, counter: Counter) -> usize {
        self.counts[counter as usize]
    }
}

/// Where a series' value comes from.
enum Source {
    /// A server counter, as loaded into the view.
    Count(Counter),
    /// A value computed from the view.
    View(fn(&MetricsView) -> Value),
    /// A latency histogram: the server's own or a process-wide one.
    Hist(fn(&Metrics) -> &Histogram),
}

/// The metric families, in exposition order. JSON keys come in table
/// order, and the keys of one JSON object must be declared in one run.
#[rustfmt::skip]
static FAMILIES: &[Family<Source>] = &[
    json_only("Milliseconds and whole seconds since the server started, and the server version.",
        &[
            series(&[], "uptime_ms", View(|v| Ms(v.uptime.as_secs_f64() * 1e3))),
            series(&[], "uptime_seconds", View(|v| Int(v.uptime.as_secs() as usize))),
            series(&[], "version", View(|_| Text(VERSION))),
        ]),
    Family { name: "gleipnir_build_info", kind: Kind::Gauge, labels: &["version"],
        help: "Constant 1, labeled with the server version.",
        series: &[series(&[VERSION], "", View(|_| Int(1)))] },
    Family { name: "gleipnir_uptime_seconds", kind: Kind::Gauge, labels: &[],
        help: "Seconds since the server started.",
        series: &[series(&[], "", View(|v| Real(v.uptime.as_secs_f64())))] },
    Family { name: "gleipnir_connections_total", kind: Kind::Counter, labels: &[],
        help: "Connections accepted, including ones later shed.",
        series: &[series(&[], "requests.connections_total", Count(ConnectionsTotal))] },
    Family { name: "gleipnir_requests_total", kind: Kind::Counter, labels: &[],
        help: "Responses generated: parsed requests plus terminal protocol errors \
               (400, 408, 413, 429).",
        series: &[series(&[], "requests.requests_total", Count(RequestsTotal))] },
    Family { name: "gleipnir_http_errors_total", kind: Kind::Counter, labels: &[],
        help: "Error responses, plus reads that died before any response.",
        series: &[series(&[], "requests.http_err", Count(HttpErr))] },
    Family { name: "gleipnir_responses_total", kind: Kind::Counter,
        labels: &["endpoint", "outcome"],
        help: "Responses of /analyze, /batch and /diff by outcome.",
        series: &[
            series(&["analyze", "ok"], "requests.analyze_ok", Count(AnalyzeOk)),
            series(&["analyze", "err"], "requests.analyze_err", Count(AnalyzeErr)),
            series(&["batch", "ok"], "requests.batch_ok", Count(BatchOk)),
            series(&["batch", "err"], "requests.batch_err", Count(BatchErr)),
            series(&["diff", "ok"], "", Count(DiffOk)),
            series(&["diff", "err"], "diff.errors", Count(DiffErr)),
        ] },
    json_only("/diff responses, ok plus err.", &[series(&[], "diff.requests_total",
        View(|v| Int(v.count(DiffOk) + v.count(DiffErr))))]),
    Family { name: "gleipnir_diff_prefix_gates_reused_total", kind: Kind::Counter, labels: &[],
        help: "Gates served from reused diff prefixes (ε taken from the old analysis, no solve).",
        series: &[series(&[], "diff.prefix_gates_reused", Count(DiffPrefixGatesReused))] },
    Family { name: "gleipnir_shed_total", kind: Kind::Counter, labels: &[],
        help: "Connections shed at capacity (soft 429 plus hard close).",
        series: &[series(&[], "queue.shed_total", Count(ShedTotal))] },
    json_only("Parsed HTTP requests waiting for a worker.",
        &[series(&[], "queue.depth", View(|v| Int(v.queue_depth)))]),
    Family { name: "gleipnir_queue_capacity", kind: Kind::Gauge, labels: &[],
        help: "Job-queue capacity (shedding starts past workers plus capacity).",
        series: &[series(&[], "queue.capacity", View(|v| Int(v.queue_capacity)))] },
    Family { name: "gleipnir_quota_rejections_total", kind: Kind::Counter, labels: &[],
        help: "Requests rejected 429 because a tenant was over its class quota.",
        series: &[series(&[], "scheduler.quota_rejections", Count(QuotaRejections))] },
    Family { name: "gleipnir_tenant_quota", kind: Kind::Gauge, labels: &[],
        help: "Per-tenant, per-class admission quota (0 = unlimited).",
        series: &[series(&[], "scheduler.tenant_quota", View(|v| Int(v.tenant_quota)))] },
    Family { name: "gleipnir_queue_depth", kind: Kind::Gauge, labels: &["class"],
        help: "Scheduler backlog per priority class: HTTP jobs waiting for a worker plus \
               engine obligations waiting for a solver.",
        series: &[
            series(&["interactive"], "scheduler.interactive", View(|v| Int(v.depths.interactive))),
            series(&["refinement"], "scheduler.refinement", View(|v| Int(v.depths.refinement))),
            series(&["batch"], "scheduler.batch", View(|v| Int(v.depths.batch))),
        ] },
    Family { name: "gleipnir_refinements_total", kind: Kind::Counter, labels: &["event"],
        help: "Anytime refinement lifecycle events.",
        series: &[
            series(&["started"], "refinements.started", View(|v| Int(v.refines.started))),
            series(&["completed"], "refinements.completed", View(|v| Int(v.refines.completed))),
            series(&["failed"], "refinements.failed", View(|v| Int(v.refines.failed))),
        ] },
    Family { name: "gleipnir_refinements_pending", kind: Kind::Gauge, labels: &[],
        help: "Refinements registered but not yet published.",
        series: &[series(&[], "refinements.pending", View(|v| Int(v.refines.pending)))] },
    Family { name: "gleipnir_anytime_accepted_total", kind: Kind::Counter, labels: &[],
        help: "Anytime /analyze requests answered 202 with a token.",
        series: &[series(&[], "refinements.accepted", Count(AnytimeAccepted))] },
    Family { name: "gleipnir_in_flight_requests", kind: Kind::Gauge, labels: &[],
        help: "Requests currently being served by workers (/healthz and /metrics excluded).",
        series: &[series(&[], "in_flight", Count(InFlight))] },
    Family { name: "gleipnir_workers", kind: Kind::Gauge, labels: &[],
        help: "HTTP worker threads.",
        series: &[series(&[], "workers", View(|v| Int(v.workers)))] },
    Family { name: "gleipnir_pool_threads", kind: Kind::Gauge, labels: &[],
        help: "Engine solve-pool threads.",
        series: &[series(&[], "pool_threads", View(|v| Int(v.pool_threads)))] },
    Family { name: "gleipnir_saturation_ratio", kind: Kind::Gauge, labels: &["resource"],
        help: "Busy fraction of each resource: workers serving, queue slots filled.",
        series: &[
            series(&["workers"], "saturation.workers_busy",
                View(|v| Real(v.count(InFlight) as f64 / v.workers as f64))),
            series(&["queue"], "saturation.queue_fill",
                View(|v| Real(v.queue_depth as f64 / v.queue_capacity as f64))),
        ] },
    Family { name: "gleipnir_cache_lookups_total", kind: Kind::Counter, labels: &["result"],
        help: "Certificate-cache lookups by result.",
        series: &[
            series(&["hit"], "cache.hits", View(|v| Int(v.cache.hits))),
            series(&["miss"], "cache.misses", View(|v| Int(v.cache.misses))),
            series(&["inflight_join"], "cache.inflight_dedup",
                View(|v| Int(v.cache.inflight_dedup))),
        ] },
    Family { name: "gleipnir_cache_entries", kind: Kind::Gauge, labels: &[],
        help: "Certificates currently cached.",
        series: &[series(&[], "cache.entries", View(|v| Int(v.cache.entries)))] },
    Family { name: "gleipnir_solves_total", kind: Kind::Counter, labels: &["tier"],
        help: "SDP judgments answered, by tier.",
        series: &[
            series(&["closed_form"], "tiers.closed_form", View(|v| Int(v.tiers.closed_form))),
            series(&["cold"], "tiers.cold", View(|v| Int(v.tiers.cold))),
        ] },
    Family { name: "gleipnir_ip_iterations_total", kind: Kind::Counter, labels: &[],
        help: "Interior-point iterations across all SDP solves.",
        series: &[series(&[], "tiers.ip_iterations", View(|v| Int(v.tiers.ip_iterations)))] },
    Family { name: "gleipnir_store_enabled", kind: Kind::Gauge, labels: &[],
        help: "1 when the certificate store writes through to disk.",
        series: &[series(&[], "store.enabled", View(|v| Flag(v.store_enabled)))] },
    Family { name: "gleipnir_store_records", kind: Kind::Counter, labels: &["event"],
        help: "Certificate-store record movements.",
        series: &[
            series(&["loaded"], "store.loaded", Count(LoadLoaded)),
            series(&["rejected"], "store.rejected", Count(LoadRejected)),
            series(&["appended"], "store.appended", Count(PersistedRecords)),
        ] },
    Family { name: "gleipnir_peer_records_total", kind: Kind::Counter, labels: &["event"],
        help: "Fleet-gossip record movements.",
        series: &[
            series(&["served"], "peers.certs_served", Count(CertsServed)),
            series(&["received"], "peers.records_received", Count(PeerRecordsReceived)),
            series(&["added"], "peers.records_added", Count(PeerRecordsAdded)),
            series(&["rejected"], "peers.records_rejected", Count(PeerRecordsRejected)),
        ] },
    Family { name: "gleipnir_peer_pulls_total", kind: Kind::Counter, labels: &["outcome"],
        help: "Gossip pulls by outcome.",
        series: &[
            series(&["ok"], "peers.pull_ok", Count(PeerPullOk)),
            series(&["err"], "peers.pull_err", Count(PeerPullErr)),
        ] },
    Family { name: "gleipnir_request_duration_seconds", kind: Kind::Histogram,
        labels: &["endpoint"],
        help: "Request wall from parse start to framed response, per endpoint.",
        series: &[
            series(&["analyze"], "latency_ms.analyze", Hist(|m| m.latency(ENDPOINT_ANALYZE))),
            series(&["batch"], "latency_ms.batch", Hist(|m| m.latency(ENDPOINT_BATCH))),
            series(&["diff"], "latency_ms.diff", Hist(|m| m.latency(ENDPOINT_DIFF))),
            series(&["refine"], "latency_ms.refine", Hist(|m| m.latency(ENDPOINT_REFINE))),
            series(&["other"], "latency_ms.other", Hist(|m| m.latency(ENDPOINT_OTHER))),
        ] },
    Family { name: "gleipnir_stage_duration_seconds", kind: Kind::Histogram, labels: &["stage"],
        help: "Pipeline stage walls per stage run, every analysis path.",
        series: &[
            series(&["plan"], "", Hist(|_| &global().plan_ms)),
            series(&["solve"], "", Hist(|_| &global().solve_ms)),
            series(&["assemble"], "", Hist(|_| &global().assemble_ms)),
        ] },
    json_only("Pipeline stage walls summed over every analysis path, in milliseconds.", &[
        series(&[], "stage_totals_ms.plan", View(|_| Ms(global().plan_ms.sum_ms()))),
        series(&[], "stage_totals_ms.solve", View(|_| Ms(global().solve_ms.sum_ms()))),
        series(&[], "stage_totals_ms.assemble", View(|_| Ms(global().assemble_ms.sum_ms()))),
    ]),
    Family { name: "gleipnir_ip_solve_duration_seconds", kind: Kind::Histogram, labels: &[],
        help: "Interior-point wall per real (non-closed-form) solve, from entering its lane \
               to its result.",
        series: &[series(&[], "", Hist(|_| &global().ip_solve_ms))] },
    Family { name: "gleipnir_refine_duration_seconds", kind: Kind::Histogram, labels: &[],
        help: "Anytime refinement wall, token minted to exact bound published.",
        series: &[series(&[], "", Hist(|_| &global().refine_ms))] },
];

const fn json_only(help: &'static str, series: &'static [Series<Source>]) -> Family<Source> {
    Family {
        name: "",
        kind: Kind::JsonOnly,
        labels: &[],
        help,
        series,
    }
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            started: Instant::now(),
            counters: [const { AtomicUsize::new(0) }; COUNTERS],
            latency: std::array::from_fn(|_| Histogram::latency()),
        }
    }

    pub(crate) fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    pub(crate) fn add(&self, counter: Counter, n: usize) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Undoes one [`Metrics::inc`] (`InFlight` is a level, not a total).
    pub(crate) fn dec(&self, counter: Counter) {
        self.counters[counter as usize].fetch_sub(1, Ordering::Relaxed);
    }

    /// Every counter, each loaded once.
    pub(crate) fn counts(&self) -> [usize; COUNTERS] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    pub(crate) fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The request-wall histogram for an `endpoint` (the request span's
    /// [`detail`] code).
    fn latency(&self, endpoint: u32) -> &Histogram {
        let slot = match endpoint {
            detail::ENDPOINT_ANALYZE => 0,
            detail::ENDPOINT_BATCH => 1,
            detail::ENDPOINT_DIFF => 2,
            detail::ENDPOINT_REFINE => 3,
            _ => 4,
        };
        &self.latency[slot]
    }

    /// Folds one request wall into its endpoint's latency histogram.
    pub(crate) fn observe_request(&self, endpoint: u32, wall_ms: f64) {
        self.latency(endpoint).observe_ms(wall_ms);
    }

    fn read(&self, v: &MetricsView, source: &Source) -> Value {
        match *source {
            Count(counter) => Int(v.count(counter)),
            View(f) => f(v),
            Hist(h) => Value::Hist(h(self).snapshot()),
        }
    }

    /// Renders the `/metrics` JSON document.
    pub(crate) fn to_json(&self, v: &MetricsView) -> String {
        registry::render_json(FAMILIES, |s| self.read(v, s))
    }

    /// Renders the `/metrics?format=prometheus` document (text exposition
    /// format v0.0.4): the JSON's numbers plus the latency histograms in
    /// full (the JSON carries only quantile summaries).
    pub(crate) fn to_prometheus(&self, v: &MetricsView) -> String {
        registry::render_prometheus(FAMILIES, |s| self.read(v, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    /// One fixed state: every counter and view field distinct, a few
    /// request walls of 20 s and more (so each histogram has few non-zero
    /// buckets), and one wall in each process-wide histogram (no other
    /// test in this binary records into those).
    fn fixture() -> (Metrics, MetricsView) {
        let m = Metrics::new();
        #[rustfmt::skip]
        let counters = [
            (ConnectionsTotal, 101), (ShedTotal, 2), (RequestsTotal, 303),
            (InFlight, 1), (AnalyzeOk, 40), (AnalyzeErr, 5), (BatchOk, 6),
            (BatchErr, 7), (DiffOk, 8), (DiffErr, 9),
            (DiffPrefixGatesReused, 1000), (HttpErr, 11), (QuotaRejections, 12),
            (AnytimeAccepted, 13), (PersistedRecords, 14), (LoadLoaded, 15),
            (LoadRejected, 16), (CertsServed, 17), (PeerPullOk, 18),
            (PeerPullErr, 19), (PeerRecordsReceived, 20), (PeerRecordsAdded, 21),
            (PeerRecordsRejected, 22),
        ];
        for (counter, n) in counters {
            m.add(counter, n);
        }
        #[rustfmt::skip]
        let view = MetricsView { uptime: m.uptime(), counts: m.counts(),
            cache: CacheStats { hits: 31, misses: 32, entries: 33, inflight_dedup: 34 },
            tiers: TierStats { closed_form: 35, cold: 36, ip_iterations: 3700 },
            pool_threads: 2, workers: 4, queue_depth: 3, queue_capacity: 8,
            depths: SchedulerDepths { interactive: 41, refinement: 42, batch: 43 },
            store_enabled: true,
            refines: RefineStats { started: 44, completed: 45, failed: 46, pending: 47 },
            tenant_quota: 48,
        };
        m.observe_request(detail::ENDPOINT_ANALYZE, 20_000.0);
        m.observe_request(detail::ENDPOINT_ANALYZE, 60_000.0);
        m.observe_request(detail::ENDPOINT_DIFF, 40_000.0);
        m.observe_request(detail::ENDPOINT_HEALTHZ, 70_000.0);
        let t = telemetry::global();
        t.plan_ms.observe_ms(50_000.0);
        t.solve_ms.observe_ms(30_000.0);
        t.assemble_ms.observe_ms(90_000.0);
        t.ip_solve_ms.observe_ms(20_000.0);
        t.refine_ms.observe_ms(80_000.0);
        (m, view)
    }

    fn flatten(prefix: &str, v: &Json, out: &mut BTreeSet<String>) {
        let leaf = match v {
            Json::Obj(map) => {
                for (k, child) in map {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    flatten(&path, child, out);
                }
                return;
            }
            Json::Num(n) => format!("{n}"),
            Json::Str(s) => format!("{s:?}"),
            Json::Bool(b) => b.to_string(),
            Json::Null | Json::Arr(_) => panic!("no null or array in /metrics: {prefix}"),
        };
        out.insert(format!("{prefix}={leaf}"));
    }

    /// `/metrics` JSON flattened to `path=value`, uptime keys excluded.
    const JSON: &str = r#"
cache.entries=33 cache.hits=31 cache.inflight_dedup=34 cache.misses=32 diff.errors=9
diff.prefix_gates_reused=1000 diff.requests_total=17 in_flight=1 latency_ms.analyze.count=2
latency_ms.analyze.p50=31623 latency_ms.analyze.p95=95623.4 latency_ms.analyze.p99=99124.68
latency_ms.batch.count=0 latency_ms.batch.p50=0 latency_ms.batch.p95=0 latency_ms.batch.p99=0
latency_ms.diff.count=1 latency_ms.diff.p50=43928.5 latency_ms.diff.p95=55003.45
latency_ms.diff.p99=55987.89 latency_ms.other.count=1 latency_ms.other.p50=78117
latency_ms.other.p95=97811.7 latency_ms.other.p99=99562.34 latency_ms.refine.count=0
latency_ms.refine.p50=0 latency_ms.refine.p95=0 latency_ms.refine.p99=0 peers.certs_served=17
peers.pull_err=19 peers.pull_ok=18 peers.records_added=21 peers.records_received=20
peers.records_rejected=22 pool_threads=2 queue.capacity=8 queue.depth=3 queue.shed_total=2
refinements.accepted=13 refinements.completed=45 refinements.failed=46 refinements.pending=47
refinements.started=44 requests.analyze_err=5 requests.analyze_ok=40 requests.batch_err=7
requests.batch_ok=6 requests.connections_total=101 requests.http_err=11
requests.requests_total=303 saturation.queue_fill=0.375 saturation.workers_busy=0.25
scheduler.batch=43 scheduler.interactive=41 scheduler.quota_rejections=12
scheduler.refinement=42 scheduler.tenant_quota=48 stage_totals_ms.assemble=90000
stage_totals_ms.plan=50000 stage_totals_ms.solve=30000 store.appended=14 store.enabled=true
store.loaded=15 store.rejected=16 tiers.closed_form=35 tiers.cold=36 tiers.ip_iterations=3700
version="VERSION" workers=4
"#;

    /// The exposition's `# TYPE` lines as `name=type`, `gleipnir_` dropped.
    const TYPES: &str = r#"
anytime_accepted_total=counter build_info=gauge cache_entries=gauge cache_lookups_total=counter
connections_total=counter diff_prefix_gates_reused_total=counter http_errors_total=counter
in_flight_requests=gauge ip_iterations_total=counter ip_solve_duration_seconds=histogram
peer_pulls_total=counter peer_records_total=counter pool_threads=gauge queue_capacity=gauge
queue_depth=gauge quota_rejections_total=counter refine_duration_seconds=histogram
refinements_pending=gauge refinements_total=counter request_duration_seconds=histogram
requests_total=counter responses_total=counter saturation_ratio=gauge shed_total=counter
solves_total=counter stage_duration_seconds=histogram store_enabled=gauge store_records=counter
tenant_quota=gauge uptime_seconds=gauge workers=gauge
"#;

    /// The exposition's samples as `series=value`, `gleipnir_` dropped,
    /// except the uptime gauge and the histogram buckets that read 0
    /// (checked as the rest of each ladder).
    const SAMPLES: &str = r#"
anytime_accepted_total=13 build_info{version="VERSION"}=1 cache_entries=33
cache_lookups_total{result="hit"}=31 cache_lookups_total{result="inflight_join"}=34
cache_lookups_total{result="miss"}=32 connections_total=101 diff_prefix_gates_reused_total=1000
http_errors_total=11 in_flight_requests=1 ip_iterations_total=3700
ip_solve_duration_seconds_bucket{le="+Inf"}=1 ip_solve_duration_seconds_bucket{le="100"}=1
ip_solve_duration_seconds_bucket{le="31.623"}=1 ip_solve_duration_seconds_bucket{le="56.234"}=1
ip_solve_duration_seconds_count=1 ip_solve_duration_seconds_sum=20
peer_pulls_total{outcome="err"}=19 peer_pulls_total{outcome="ok"}=18
peer_records_total{event="added"}=21 peer_records_total{event="received"}=20
peer_records_total{event="rejected"}=22 peer_records_total{event="served"}=17 pool_threads=2
queue_capacity=8 queue_depth{class="batch"}=43 queue_depth{class="interactive"}=41
queue_depth{class="refinement"}=42 quota_rejections_total=12
refine_duration_seconds_bucket{le="+Inf"}=1 refine_duration_seconds_bucket{le="100"}=1
refine_duration_seconds_count=1 refine_duration_seconds_sum=80 refinements_pending=47
refinements_total{event="completed"}=45 refinements_total{event="failed"}=46
refinements_total{event="started"}=44
request_duration_seconds_bucket{endpoint="analyze",le="+Inf"}=2
request_duration_seconds_bucket{endpoint="analyze",le="100"}=2
request_duration_seconds_bucket{endpoint="analyze",le="31.623"}=1
request_duration_seconds_bucket{endpoint="analyze",le="56.234"}=1
request_duration_seconds_bucket{endpoint="diff",le="+Inf"}=1
request_duration_seconds_bucket{endpoint="diff",le="100"}=1
request_duration_seconds_bucket{endpoint="diff",le="56.234"}=1
request_duration_seconds_bucket{endpoint="other",le="+Inf"}=1
request_duration_seconds_bucket{endpoint="other",le="100"}=1
request_duration_seconds_count{endpoint="analyze"}=2
request_duration_seconds_count{endpoint="batch"}=0
request_duration_seconds_count{endpoint="diff"}=1
request_duration_seconds_count{endpoint="other"}=1
request_duration_seconds_count{endpoint="refine"}=0
request_duration_seconds_sum{endpoint="analyze"}=80
request_duration_seconds_sum{endpoint="batch"}=0
request_duration_seconds_sum{endpoint="diff"}=40
request_duration_seconds_sum{endpoint="other"}=70
request_duration_seconds_sum{endpoint="refine"}=0 requests_total=303
responses_total{endpoint="analyze",outcome="err"}=5
responses_total{endpoint="analyze",outcome="ok"}=40
responses_total{endpoint="batch",outcome="err"}=7
responses_total{endpoint="batch",outcome="ok"}=6
responses_total{endpoint="diff",outcome="err"}=9 responses_total{endpoint="diff",outcome="ok"}=8
saturation_ratio{resource="queue"}=0.375 saturation_ratio{resource="workers"}=0.25 shed_total=2
solves_total{tier="closed_form"}=35 solves_total{tier="cold"}=36
stage_duration_seconds_bucket{stage="assemble",le="+Inf"}=1
stage_duration_seconds_bucket{stage="assemble",le="100"}=1
stage_duration_seconds_bucket{stage="plan",le="+Inf"}=1
stage_duration_seconds_bucket{stage="plan",le="100"}=1
stage_duration_seconds_bucket{stage="plan",le="56.234"}=1
stage_duration_seconds_bucket{stage="solve",le="+Inf"}=1
stage_duration_seconds_bucket{stage="solve",le="100"}=1
stage_duration_seconds_bucket{stage="solve",le="31.623"}=1
stage_duration_seconds_bucket{stage="solve",le="56.234"}=1
stage_duration_seconds_count{stage="assemble"}=1 stage_duration_seconds_count{stage="plan"}=1
stage_duration_seconds_count{stage="solve"}=1 stage_duration_seconds_sum{stage="assemble"}=90
stage_duration_seconds_sum{stage="plan"}=50 stage_duration_seconds_sum{stage="solve"}=30
store_enabled=1 store_records{event="appended"}=14 store_records{event="loaded"}=15
store_records{event="rejected"}=16 tenant_quota=48 workers=4
"#;

    /// The golden tokens, `prefix` restored and `VERSION` spelled out.
    fn tokens(golden: &str, prefix: &str) -> BTreeSet<String> {
        let token = |t: &str| format!("{prefix}{}", t.replace("VERSION", VERSION));
        golden.split_whitespace().map(token).collect()
    }

    /// Both `/metrics` documents render the same keys, nesting, families,
    /// types, labels and values from one fixed state.
    #[test]
    fn json_and_prometheus_render_the_fixed_state() {
        let (m, view) = fixture();

        let js = m.to_json(&view);
        assert!(js.starts_with("{\"uptime_ms\":"), "uptime_ms first: {js}");
        let mut flat = BTreeSet::new();
        flatten("", &json::parse(&js).expect("valid JSON"), &mut flat);
        flat.retain(|kv| !kv.starts_with("uptime_ms=") && !kv.starts_with("uptime_seconds="));
        assert_eq!(flat, tokens(JSON, ""), "{js}");

        let prom = m.to_prometheus(&view);
        let (mut types, mut samples) = (BTreeSet::new(), BTreeSet::new());
        for line in prom.lines() {
            if let Some(t) = line.strip_prefix("# TYPE ") {
                types.insert(t.replacen(' ', "=", 1));
            } else if !line.starts_with('#') && !line.starts_with("gleipnir_uptime_seconds ") {
                let (series, value) = line.rsplit_once(' ').expect("`series value`");
                samples.insert(format!("{series}={value}"));
            }
        }
        assert_eq!(types, tokens(TYPES, "gleipnir_"), "{prom}");
        // Each histogram series (one `_count` sample) has the whole ladder
        // of buckets; the ones the golden does not list read 0.
        let mut expected = tokens(SAMPLES, "gleipnir_");
        let ladder = telemetry::LATENCY_BOUNDS_MS
            .iter()
            .map(|b| format!("{}", b / 1e3));
        let ladder: Vec<String> = ladder.chain(["+Inf".to_string()]).collect();
        for (family, rest) in tokens(SAMPLES, "gleipnir_")
            .iter()
            .filter_map(|t| t.split_once("_count"))
        {
            let labels = rest.rsplit_once('=').expect("`series=value`").0;
            let inner = labels.trim_start_matches('{').trim_end_matches('}');
            let sep = if inner.is_empty() { "" } else { "," };
            for le in &ladder {
                let bucket = format!("{family}_bucket{{{inner}{sep}le=\"{le}\"}}=");
                if !expected.iter().any(|t| t.starts_with(&bucket)) {
                    expected.insert(format!("{bucket}0"));
                }
            }
        }
        let missing: Vec<_> = expected.difference(&samples).collect();
        let unexpected: Vec<_> = samples.difference(&expected).collect();
        assert!(
            missing.is_empty() && unexpected.is_empty(),
            "missing {missing:#?}\nunexpected {unexpected:#?}"
        );
    }

    /// The committed catalog in `docs/OBSERVABILITY.md` is the table's
    /// rendering.
    #[test]
    fn docs_catalog_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OBSERVABILITY.md");
        let docs = std::fs::read_to_string(path).expect("read docs/OBSERVABILITY.md");
        let section = docs
            .split_once("### Metric catalog\n")
            .expect("a `### Metric catalog` section")
            .1;
        let committed: String = section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .map(|l| format!("{l}\n"))
            .collect();
        let expected = registry::render_catalog(FAMILIES);
        assert!(
            committed == expected,
            "docs/OBSERVABILITY.md's metric catalog differs from the table; \
             replace it with:\n\n{expected}"
        );
    }

    /// A live server's exposition has exactly the table's families, with
    /// their types and label names.
    #[test]
    fn prometheus_exposition_matches_the_docs_catalog() {
        use std::io::{Read, Write};
        type Families = std::collections::BTreeMap<String, (String, BTreeSet<String>)>;

        let server = crate::spawn(crate::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            threads: 1,
            ..crate::ServerConfig::default()
        })
        .expect("spawn server");
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /metrics?format=prometheus HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        server.join();
        let (head, exposition) = response.split_once("\r\n\r\n").expect("response");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");

        let mut scraped = Families::new();
        let mut family = String::new();
        for line in exposition.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("`# TYPE name kind`");
                family = name.to_string();
                scraped.insert(family.clone(), (kind.to_string(), BTreeSet::new()));
            } else if let Some((_, labels)) = line.split_once('{') {
                let labels = labels.split_once('}').expect("closed label set").0;
                let names = &mut scraped.get_mut(&family).expect("sample after TYPE").1;
                for pair in labels.split(',') {
                    let name = pair.split_once('=').expect("label=value").0;
                    if name != "le" {
                        names.insert(name.to_string());
                    }
                }
            }
        }
        let declared: Families = FAMILIES
            .iter()
            .filter(|f| f.kind != Kind::JsonOnly)
            .map(|f| {
                let kind = format!("{:?}", f.kind).to_lowercase();
                let labels = f.labels.iter().map(|l| l.to_string()).collect();
                (f.name.to_string(), (kind, labels))
            })
            .collect();
        assert_eq!(scraped, declared);
    }
}
