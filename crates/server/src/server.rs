//! The daemon: reactor thread, worker pool, request routing, fleet
//! certificate sharing, and graceful shutdown.
//!
//! ## Threading model
//!
//! One **reactor** thread owns the non-blocking listener and every
//! connection (see [`crate::reactor`]): it accepts, reads, parses
//! (keep-alive and pipelining included), sheds with `429` past capacity,
//! enforces read deadlines, and flushes responses. Parsed requests go to
//! a small pool of **workers** which only route and orchestrate: the SDP
//! heavy lifting runs on the shared [`Engine`]'s own pool, so `workers`
//! controls request concurrency and `threads` controls solve parallelism
//! independently. Finished responses travel back to the reactor as
//! pre-framed bytes through a completion bin plus a waker.
//!
//! ## Fleet certificate sharing
//!
//! Every server keeps a [`CertStore`] (disk-backed with `--cache-dir`,
//! ephemeral otherwise) whose **sequence log** records each verified
//! certificate. `GET /certs/since/<seq>` serves the log suffix in the
//! sync wire format, and the `--peers` gossip loop ([`crate::peer`])
//! pulls the same endpoint on other instances. Imported records are
//! **re-certified** — the SDP rebuilt from the content address, the
//! stored dual must re-prove the stored ε — before they touch the cache,
//! so a malicious or corrupt peer degrades to cache misses, never to an
//! unsound bound.
//!
//! ## Shutdown
//!
//! [`ServerHandle::request_shutdown`] (wired to SIGINT/SIGTERM by the
//! `gleipnir serve` binary) stops the acceptor, lets workers **drain**
//! already-parsed requests, flushes every response, then persists any
//! certificates not yet on disk. Nothing is aborted mid-solve.

use crate::config::ServerConfig;
use crate::http;
use crate::json;
use crate::metrics::{Counter, Metrics, MetricsView, VERSION};
use crate::peer;
use crate::reactor::{waker_pair, Completion, JobQueue, Reactor, Waker};
use crate::wire;
use gleipnir_core::jsonfmt::{json_f64, json_ms, json_str, report_json};
use gleipnir_core::{
    AnalysisError, AnalysisRequest, CertStore, Engine, EngineOptions, RefineStatus, RefineToken,
    SchedulerDepths, TenantQuotas,
};
use gleipnir_telemetry as telemetry;
use gleipnir_telemetry::{detail, SpanName};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Why the server could not start.
#[derive(Debug)]
pub enum ServerError {
    /// The listen address could not be bound.
    Bind(std::io::Error),
    /// Engine construction failed (e.g. malformed `GLEIPNIR_THREADS`).
    Engine(AnalysisError),
    /// The certificate store directory could not be opened or read.
    Store(std::io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Bind(e) => write!(f, "could not bind listen address: {e}"),
            ServerError::Engine(e) => write!(f, "could not build engine: {e}"),
            ServerError::Store(e) => write!(f, "could not open certificate store: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// State shared by the reactor, the workers, the gossip loop, and the
/// handle.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) metrics: Metrics,
    pub(crate) config: ServerConfig,
    /// Always present: disk-backed with `--cache-dir`, ephemeral
    /// otherwise — either way the sequence log feeds `/certs/since/`.
    pub(crate) store: Mutex<CertStore>,
    /// Whether `store` writes through to disk (for `/metrics`).
    pub(crate) store_on_disk: bool,
    /// Parsed requests, reactor → workers.
    pub(crate) jobs: JobQueue,
    /// Framed responses, workers → reactor.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Pokes the reactor out of `poll(2)` when a completion lands.
    pub(crate) waker: Waker,
    pub(crate) shutdown: AtomicBool,
    /// Per-tenant, per-class admission quotas (`--tenant-quota`; limit 0
    /// admits everything). The reactor admits under these before a request
    /// touches the job queue; the permit rides on the `Job` and frees its
    /// slot when the response has been framed.
    pub(crate) quotas: TenantQuotas,
    /// Request context for live anytime tokens, so `GET /refine/<token>`
    /// can render the same report envelope `POST /analyze` would have.
    /// Bounded: past [`REFINE_SPECS_RETAINED`] the oldest entry ages out
    /// (polls then fall back to a bound-only envelope).
    refine_specs: Mutex<RefineSpecs>,
}

/// See [`Shared::refine_specs`].
#[derive(Default)]
struct RefineSpecs {
    by_token: HashMap<String, wire::AnalyzeSpec>,
    order: VecDeque<String>,
}

/// How many anytime request specs are kept for report rendering.
const REFINE_SPECS_RETAINED: usize = 1024;

impl Shared {
    /// How many connections may be in service before new ones are shed
    /// with `429`. Mirrors the old thread-per-connection admission
    /// arithmetic: `workers` being served plus `queue_capacity` waiting.
    pub(crate) fn max_serving_conns(&self) -> usize {
        self.config.workers.max(1) + self.config.queue_capacity.max(1)
    }
}

/// A running server. Dropping the handle shuts the server down gracefully
/// (request + drain + persist); call [`ServerHandle::request_shutdown`] /
/// [`ServerHandle::join`] to control the two phases yourself.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    gossip: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when `:0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine (tests inspect cache stats through this).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Asks the server to stop: the reactor stops accepting, workers
    /// drain already-parsed requests, every response is flushed.
    /// Non-blocking; pair with [`ServerHandle::join`].
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.jobs.notify_all();
        self.shared.waker.wake();
    }

    /// Waits for every thread to finish and persists any certificates not
    /// yet on disk. Implies [`ServerHandle::request_shutdown`].
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        self.request_shutdown();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
        persist_now(&self.shared);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// Builds the engine, warms it from the certificate store (when
/// configured), binds the listener, and spawns the reactor + workers
/// (+ the gossip loop when `--peers` is set).
///
/// # Errors
///
/// [`ServerError`] when the engine, store, or listener cannot be set up.
pub fn spawn(config: ServerConfig) -> Result<ServerHandle, ServerError> {
    let engine = Engine::with_options(EngineOptions {
        solver: Default::default(),
        threads: config.threads,
    })
    .map_err(ServerError::Engine)?;

    let metrics = Metrics::new();
    let store_on_disk = config.cache_dir.is_some();
    let store = match &config.cache_dir {
        Some(dir) => {
            let mut store = CertStore::open(dir).map_err(ServerError::Store)?;
            let stats = store.load_into(&engine).map_err(ServerError::Store)?;
            metrics.add(Counter::LoadLoaded, stats.loaded);
            metrics.add(Counter::LoadRejected, stats.rejected);
            eprintln!(
                "gleipnir-server: certificate store {}: {} loaded, {} rejected{}",
                store
                    .path()
                    .expect("disk-backed store has a path")
                    .display(),
                stats.loaded,
                stats.rejected,
                if stats.truncated { " (torn tail)" } else { "" }
            );
            store
        }
        // No --cache-dir: the sequence log still runs so this instance can
        // serve /certs/since/ to its peers; nothing touches disk.
        None => CertStore::ephemeral(),
    };

    let listener = TcpListener::bind(&config.addr).map_err(ServerError::Bind)?;
    let addr = listener.local_addr().map_err(ServerError::Bind)?;
    let (waker, wake_rx) = waker_pair().map_err(ServerError::Bind)?;

    let shared = Arc::new(Shared {
        engine,
        metrics,
        store: Mutex::new(store),
        store_on_disk,
        jobs: JobQueue::new(),
        completions: Mutex::new(Vec::new()),
        waker,
        shutdown: AtomicBool::new(false),
        quotas: TenantQuotas::new(config.tenant_quota),
        refine_specs: Mutex::new(RefineSpecs::default()),
        config,
    });

    let mut workers = Vec::with_capacity(shared.config.workers.max(1));
    for i in 0..shared.config.workers.max(1) {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("gleipnir-http-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn http worker"),
        );
    }
    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("gleipnir-reactor".into())
            .spawn(move || Reactor::new(shared, listener, wake_rx).run())
            .expect("spawn reactor")
    };
    let gossip = if shared.config.peers.is_empty() {
        None
    } else {
        let shared = Arc::clone(&shared);
        Some(
            std::thread::Builder::new()
                .name("gleipnir-gossip".into())
                .spawn(move || peer::gossip_loop(&shared))
                .expect("spawn gossip loop"),
        )
    };

    Ok(ServerHandle {
        shared,
        addr,
        reactor: Some(reactor),
        workers,
        gossip,
    })
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.jobs.pop(&shared.shutdown) {
        let popped_ns = telemetry::now_ns();
        let endpoint = endpoint_code(&job.request.path);
        // Probes stay out of `InFlight`, so an idle server reads idle.
        let counted = !matches!(
            endpoint,
            detail::ENDPOINT_HEALTHZ | detail::ENDPOINT_METRICS
        );
        if counted {
            shared.metrics.inc(Counter::InFlight);
        }
        // The trace root lives on the Job: the reactor minted the ids and
        // recorded the parse span; this thread records queue wait, the
        // handler, and finally the root request span, then seals the
        // trace so `GET /trace/<id>` can serve it.
        let under_root = telemetry::TraceCtx {
            trace_id: job.trace_id,
            parent: job.root_span,
        };
        telemetry::record_span(
            under_root,
            SpanName::QueueWait,
            telemetry::next_span_id(),
            job.enqueued_ns,
            popped_ns,
            0,
            0,
            0,
        );
        let handler_id = telemetry::next_span_id();
        let handler_ctx = telemetry::TraceCtx {
            trace_id: job.trace_id,
            parent: handler_id,
        };
        let response = telemetry::with_ctx(handler_ctx, || route(shared, &job.request));
        let end_ns = telemetry::now_ns();
        telemetry::record_span(
            under_root,
            SpanName::Handler,
            handler_id,
            popped_ns,
            end_ns,
            0,
            0,
            0,
        );
        telemetry::record_span(
            telemetry::TraceCtx {
                trace_id: job.trace_id,
                parent: 0,
            },
            SpanName::Request,
            job.root_span,
            job.parse_start_ns,
            end_ns,
            endpoint,
            0,
            0,
        );
        shared.metrics.observe_request(
            endpoint,
            end_ns.saturating_sub(job.parse_start_ns) as f64 / 1e6,
        );
        telemetry::global().finish_trace(job.trace_id);
        // Late shutdown closes keep-alive connections so drain finishes.
        let keep_alive = job.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let bytes = http::response_bytes_traced(
            response.status,
            response.content_type,
            &response.body,
            keep_alive,
            job.trace_id,
        );
        {
            let mut bin = shared.completions.lock().unwrap_or_else(|e| e.into_inner());
            bin.push(Completion {
                conn: job.conn,
                bytes,
                close: !keep_alive,
            });
        }
        shared.waker.wake();
        if counted {
            shared.metrics.dec(Counter::InFlight);
        }
    }
}

/// One routed response: the worker decides status/body, the reactor owns
/// framing context (keep-alive) and delivery.
struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }
}

/// The cert-sync endpoint's path prefix.
const CERTS_SINCE: &str = "/certs/since/";

/// The trace-retrieval endpoint's path prefix.
const TRACE_PREFIX: &str = "/trace/";

/// The anytime refinement-poll endpoint's path prefix.
const REFINE_PREFIX: &str = "/refine/";

/// Long-poll `wait_ms` ceiling: below the read/keep-alive deadlines so a
/// long poll always resolves (204) before the connection times out.
const MAX_WAIT_MS: u64 = 30_000;

/// Maps a request target to the request span's endpoint [`detail`] code
/// (also the per-endpoint latency-histogram key).
fn endpoint_code(target: &str) -> u32 {
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/analyze" => detail::ENDPOINT_ANALYZE,
        "/batch" => detail::ENDPOINT_BATCH,
        "/diff" => detail::ENDPOINT_DIFF,
        "/healthz" => detail::ENDPOINT_HEALTHZ,
        "/metrics" => detail::ENDPOINT_METRICS,
        p if p.starts_with(CERTS_SINCE) => detail::ENDPOINT_CERTS,
        p if p.starts_with(TRACE_PREFIX) => detail::ENDPOINT_TRACE,
        p if p.starts_with(REFINE_PREFIX) => detail::ENDPOINT_REFINE,
        _ => detail::ENDPOINT_OTHER,
    }
}

fn route(shared: &Arc<Shared>, request: &http::HttpRequest) -> Response {
    // The query string rides along in `path`; split it off here. Only
    // `/metrics?format=…` interprets one — everything else ignores it.
    let (path, query) = match request.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (request.path.as_str(), None),
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/metrics") => {
            let view = metrics_view(shared);
            let prometheus =
                query.is_some_and(|q| q.split('&').any(|kv| kv == "format=prometheus"));
            if prometheus {
                let body = shared.metrics.to_prometheus(&view);
                return Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4",
                    body: body.into_bytes(),
                };
            }
            Response::json(200, shared.metrics.to_json(&view))
        }
        ("GET", target) if target.starts_with(TRACE_PREFIX) => {
            handle_trace(shared, &target[TRACE_PREFIX.len()..])
        }
        ("GET", path) if path.starts_with(REFINE_PREFIX) => {
            handle_refine(shared, &path[REFINE_PREFIX.len()..], query)
        }
        ("POST", "/analyze") => handle_analyze(shared, &request.body),
        ("POST", "/batch") => handle_batch(shared, &request.body),
        ("POST", "/diff") => handle_diff(shared, &request.body),
        ("GET", path) if path.starts_with(CERTS_SINCE) => {
            match path[CERTS_SINCE.len()..].parse::<u64>() {
                Ok(seq) => {
                    // Serve the sequence-log suffix. The log only ever
                    // holds verified certificates, and receivers re-verify
                    // anyway — this side is plain bytes.
                    let body = {
                        let store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
                        store.encode_since(seq)
                    };
                    shared.metrics.inc(Counter::CertsServed);
                    Response {
                        status: 200,
                        content_type: "application/octet-stream",
                        body,
                    }
                }
                Err(_) => {
                    shared.metrics.inc(Counter::HttpErr);
                    Response::json(400, wire::error_json("bad sequence number"))
                }
            }
        }
        (_, path) => {
            shared.metrics.inc(Counter::HttpErr);
            // A known endpoint asked with the wrong method is a 405.
            if endpoint_code(path) == detail::ENDPOINT_OTHER {
                Response::json(404, wire::error_json(&format!("no such endpoint: {path}")))
            } else {
                Response::json(405, wire::error_json("method not allowed"))
            }
        }
    }
}

/// Snapshots everything `/metrics` and `/healthz` read besides the
/// histograms: counters, uptime, engine stats, HTTP queue depth, and the
/// combined per-class scheduler backlog (HTTP jobs waiting for a worker
/// plus engine obligations waiting for a solver).
fn metrics_view(shared: &Arc<Shared>) -> MetricsView {
    let http = shared.jobs.depths();
    let engine = shared.engine.scheduler_depths();
    MetricsView {
        uptime: shared.metrics.uptime(),
        counts: shared.metrics.counts(),
        cache: shared.engine.cache_stats(),
        tiers: shared.engine.tier_stats(),
        pool_threads: shared.engine.threads(),
        workers: shared.config.workers.max(1),
        queue_depth: shared.jobs.len(),
        queue_capacity: shared.config.queue_capacity.max(1),
        depths: SchedulerDepths {
            interactive: http.interactive + engine.interactive,
            refinement: http.refinement + engine.refinement,
            batch: http.batch + engine.batch,
        },
        store_enabled: shared.store_on_disk,
        refines: shared.engine.refine_stats(),
        tenant_quota: shared.config.tenant_quota,
    }
}

fn handle_healthz(shared: &Arc<Shared>) -> Response {
    let v = metrics_view(shared);
    let body = format!(
        concat!(
            "{{\"ok\":true,\"status\":\"ok\",",
            "\"uptime_seconds\":{},\"version\":\"{}\",",
            "\"in_flight\":{},\"workers\":{},",
            "\"queue_depth\":{},\"queue_capacity\":{}}}"
        ),
        v.uptime.as_secs(),
        VERSION,
        v.count(Counter::InFlight),
        v.workers,
        v.queue_depth,
        v.queue_capacity,
    );
    Response::json(200, body)
}

/// `GET /trace/<id>`: a recently completed trace as its span-tree JSON.
/// The store is a bounded ring, so old traces age out — `404` covers
/// both "never existed" and "evicted".
fn handle_trace(shared: &Arc<Shared>, id: &str) -> Response {
    match telemetry::parse_trace_id(id).and_then(|id| telemetry::global().trace(id)) {
        Some(trace) => Response::json(200, trace.to_json()),
        None => {
            shared.metrics.inc(Counter::HttpErr);
            Response::json(404, wire::error_json("no such trace (recent traces only)"))
        }
    }
}

/// Parses a JSON body, mapping framing problems to `400`.
fn parse_body(body: &[u8]) -> Result<json::Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    json::parse(text).map_err(|e| e.to_string())
}

fn handle_analyze(shared: &Arc<Shared>, body: &[u8]) -> Response {
    let value = match parse_body(body) {
        Ok(v) => v,
        Err(msg) => {
            shared.metrics.inc(Counter::AnalyzeErr);
            return Response::json(400, wire::error_json(&msg));
        }
    };
    let spec = match wire::analyze_spec_from_json(&value) {
        Ok(spec) => spec,
        Err(msg) => {
            shared.metrics.inc(Counter::AnalyzeErr);
            return Response::json(422, wire::error_json(&msg));
        }
    };
    if value.get("anytime").and_then(json::Json::as_bool) == Some(true) {
        return handle_analyze_anytime(shared, spec);
    }
    match shared.engine.analyze(&spec.request) {
        Ok(report) => {
            shared.metrics.inc(Counter::AnalyzeOk);
            persist_now(shared);
            Response::json(200, wire::analyze_ok_json(&spec, &report))
        }
        Err(e) => {
            shared.metrics.inc(Counter::AnalyzeErr);
            Response::json(422, wire::error_json(&e.to_string()))
        }
    }
}

/// `POST /analyze` with `"anytime": true`: answer `202` immediately with
/// the best currently-certified bound plus a refinement token, while the
/// exact solve continues on the engine's refinement priority class. The
/// spec is retained (bounded) so `GET /refine/<token>` can later render
/// the full report envelope.
fn handle_analyze_anytime(shared: &Arc<Shared>, spec: wire::AnalyzeSpec) -> Response {
    match shared.engine.analyze_anytime(&spec.request) {
        Ok(answer) => {
            let token = answer.token.to_string();
            {
                let mut specs = shared
                    .refine_specs
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                specs.by_token.insert(token.clone(), spec);
                specs.order.push_back(token.clone());
                while specs.order.len() > REFINE_SPECS_RETAINED {
                    if let Some(old) = specs.order.pop_front() {
                        specs.by_token.remove(&old);
                    }
                }
            }
            shared.metrics.inc(Counter::AnytimeAccepted);
            let body = format!(
                concat!(
                    "{{\"ok\":true,\"anytime\":true,\"token\":{},",
                    "\"first\":{{\"error_bound\":{},\"elapsed_ms\":{},",
                    "\"sources\":{{\"cache\":{},\"closed_form\":{},\"trivial\":{}}}}}}}"
                ),
                json_str(&token),
                json_f64(answer.first_bound),
                json_ms(answer.first_elapsed.as_secs_f64() * 1e3),
                answer.sources.cache,
                answer.sources.closed_form,
                answer.sources.trivial,
            );
            Response::json(202, body)
        }
        Err(e) => {
            shared.metrics.inc(Counter::AnalyzeErr);
            Response::json(422, wire::error_json(&e.to_string()))
        }
    }
}

/// `GET /refine/<token>[?wait_ms=N]`: poll (or long-poll) a refinement.
///
/// * `404` — unparsable, unknown, or evicted token.
/// * `202` — still pending (plain poll).
/// * `204` — long poll expired with the refinement still pending.
/// * `200` — the exact report; terminal, served repeatedly.
/// * `422` — the refinement failed; terminal, served repeatedly.
fn handle_refine(shared: &Arc<Shared>, rest: &str, query: Option<&str>) -> Response {
    let Some(token) = RefineToken::parse(rest) else {
        shared.metrics.inc(Counter::HttpErr);
        return Response::json(404, wire::error_json("no such refinement token"));
    };
    let wait_ms: Option<u64> = query.and_then(|q| {
        q.split('&')
            .find_map(|kv| kv.strip_prefix("wait_ms="))
            .and_then(|v| v.parse().ok())
    });
    let status = match wait_ms {
        Some(ms) => {
            let span = telemetry::active().map(|c| telemetry::Span::start(c, SpanName::RefineWait));
            let wait = Duration::from_millis(ms.min(MAX_WAIT_MS));
            let status = shared.engine.wait_refinement(token, wait);
            if let Some(span) = span {
                span.end();
            }
            status
        }
        None => shared.engine.refinement(token),
    };
    match status {
        None => {
            shared.metrics.inc(Counter::HttpErr);
            Response::json(404, wire::error_json("no such refinement token"))
        }
        Some(RefineStatus::Pending) => {
            if wait_ms.is_some() {
                // Long poll expired: bodyless 204 says "nothing yet, poll
                // again" without making the client parse anything.
                Response {
                    status: 204,
                    content_type: "application/json",
                    body: Vec::new(),
                }
            } else {
                Response::json(
                    202,
                    format!(
                        "{{\"ok\":true,\"done\":false,\"token\":{}}}",
                        json_str(&token.to_string())
                    ),
                )
            }
        }
        Some(RefineStatus::Done(report)) => {
            // The refinement ran real SDP solves; fold its certificates
            // into the store like any other served analysis. (Idempotent:
            // completed tokens are served repeatedly, and `persist_new`
            // only appends certificates not yet in the log.)
            persist_now(shared);
            let token_str = token.to_string();
            let rendered = {
                let specs = shared
                    .refine_specs
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                specs
                    .by_token
                    .get(&token_str)
                    .map(|spec| report_json(&spec.name, &spec.program, &report))
            };
            let body = match rendered {
                Some(report) => format!(
                    "{{\"ok\":true,\"done\":true,\"token\":{},\"report\":{}}}",
                    json_str(&token_str),
                    report,
                ),
                // Spec aged out of the bounded map: serve the bound alone.
                None => format!(
                    "{{\"ok\":true,\"done\":true,\"token\":{},\"error_bound\":{}}}",
                    json_str(&token_str),
                    json_f64(report.error_bound()),
                ),
            };
            Response::json(200, body)
        }
        Some(RefineStatus::Failed(msg)) => {
            shared.metrics.inc(Counter::AnalyzeErr);
            Response::json(422, wire::error_json(&msg))
        }
    }
}

fn handle_diff(shared: &Arc<Shared>, body: &[u8]) -> Response {
    let value = match parse_body(body) {
        Ok(v) => v,
        Err(msg) => {
            shared.metrics.inc(Counter::DiffErr);
            return Response::json(400, wire::error_json(&msg));
        }
    };
    let spec = match wire::diff_spec_from_json(&value) {
        Ok(spec) => spec,
        Err(msg) => {
            shared.metrics.inc(Counter::DiffErr);
            return Response::json(422, wire::error_json(&msg));
        }
    };
    match shared
        .engine
        .analyze_diff(&spec.old_request, &spec.new_request)
    {
        Ok(diff) => {
            shared.metrics.inc(Counter::DiffOk);
            shared
                .metrics
                .add(Counter::DiffPrefixGatesReused, diff.prefix_gates_reused());
            persist_now(shared);
            Response::json(200, wire::diff_ok_json(&spec, &diff))
        }
        Err(e) => {
            shared.metrics.inc(Counter::DiffErr);
            Response::json(422, wire::error_json(&e.to_string()))
        }
    }
}

fn handle_batch(shared: &Arc<Shared>, body: &[u8]) -> Response {
    let parsed = parse_body(body).and_then(|v| wire::batch_specs_from_json(&v));
    let specs = match parsed {
        Ok(specs) => specs,
        Err(msg) => {
            shared.metrics.inc(Counter::BatchErr);
            return Response::json(400, wire::error_json(&msg));
        }
    };
    let requests: Vec<AnalysisRequest> = specs
        .iter()
        .filter_map(|s| s.as_ref().ok().map(|s| s.request.clone()))
        .collect();
    let outcome = shared.engine.analyze_batch_detailed(&requests);
    let mut analyzed = outcome.results.into_iter();
    let entries: Vec<String> = specs
        .iter()
        .map(|entry| match entry {
            Ok(spec) => match analyzed.next().expect("one result per prepared request") {
                Ok(report) => wire::analyze_ok_json(spec, &report),
                Err(e) => wire::error_json(&e.to_string()),
            },
            Err(msg) => wire::error_json(msg),
        })
        .collect();
    shared.metrics.inc(Counter::BatchOk);
    persist_now(shared);
    let body = format!(
        "{{\"ok\":true,\"results\":[{}],\"worker_threads\":{},\"elapsed_ms\":{}}}",
        entries.join(","),
        outcome.worker_threads,
        json_ms(outcome.elapsed.as_secs_f64() * 1e3),
    );
    Response::json(200, body)
}

/// Folds any not-yet-persisted engine certificates into the store: the
/// sequence log always (that is what peers sync), the file only for a
/// disk-backed store. Called after each served analysis, after each
/// peer import, and at shutdown, so even a `kill -9` loses at most the
/// last request's certificates.
pub(crate) fn persist_now(shared: &Shared) {
    let mut store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
    match store.persist_new(&shared.engine) {
        Ok(n) => {
            if n > 0 {
                shared.metrics.add(Counter::PersistedRecords, n);
            }
        }
        Err(e) => eprintln!("gleipnir-server: certificate persist failed: {e}"),
    }
}
