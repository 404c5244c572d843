//! The long-lived analysis engine: one instance, many analyses.
//!
//! [`Engine`] is the unified entry point for every analysis method
//! (state-aware, adaptive, worst-case, LQR-full-sim). It owns two
//! process-lifetime resources:
//!
//! * a **content-addressed SDP bound cache shared across requests,
//!   methods, and MPS widths**: a per-gate certificate is keyed by the
//!   exact content of the SDP it certifies — gate matrix, noisy-channel
//!   Kraus operators, quantized local density ρ′, δ bucket, and solver
//!   options — so an adaptive sweep's second width, a repeated request, or
//!   a sibling request in a batch all reuse certificates the engine
//!   already paid for. Cache reuse is sound by the Weaken rule: entries
//!   are solved at a δ rounded *up* to the bucket edge with ρ′ perturbed
//!   only within the extra slack (see
//!   [`crate::AnalysisRequest::delta_quantum`]). The cache also performs
//!   **in-flight deduplication**: two obligations with the same key —
//!   whether from one request's solve stage or from concurrent batch
//!   siblings — trigger one SDP solve and one insert
//!   ([`CacheStats::inflight_dedup`] counts the piggybackers);
//!
//! * a **work-stealing worker pool** (see [`crate::pool`]) sized by
//!   [`EngineOptions::threads`] / the `GLEIPNIR_THREADS` env var. The pool
//!   serves *both* levels of parallelism: a single request's solve stage
//!   fans its per-gate SDP obligations over it, and
//!   [`Engine::analyze_batch`] fans whole requests over the same threads —
//!   so one request saturates the machine and a batch never
//!   oversubscribes it. Anytime refinements run one at a time on the
//!   pool's dedicated refinement runner, at the same full width.
//!
//! The engine is thread-safe (`&Engine` can be shared freely);
//! [`Engine::analyze_batch`] returns per-request `Result`s — a failing or
//! panicking request never sinks its siblings.

use crate::adaptive::run_adaptive;
use crate::assemble::assemble_report;
use crate::baseline::{run_lqr_full_sim, run_worst_case};
use crate::diamond::DiamondError;
use crate::plan::Walk;
// `lock` recovers poisoned mutexes: the cache only ever holds
// fully-written `(key, ε)` pairs — a worker that panicked mid-analysis
// cannot leave a torn entry behind — so a poisoned shard is safe to keep
// using. This is what keeps one panicking batch request from sinking its
// siblings.
use crate::pool::{lock, run_indexed, PoolHandle, PriorityClass, SchedulerDepths, WorkerPool};
use crate::refine::{
    compute_first_answer, AnytimeAnswer, RefineStats, RefineStatus, RefineToken, RefinementRegistry,
};
use crate::report::Report;
use crate::request::{AnalysisRequest, Method};
use crate::solve::spawn_solve;
use crate::testkit::ScriptedGate;
use crate::tiers::{TierStats, TierTotals};
use crate::AnalysisError;
use gleipnir_linalg::CMat;
use gleipnir_sdp::{SdpError, SolverOptions};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Number of independent cache shards; keeps lock contention low when
/// workers hammer the cache concurrently.
const CACHE_SHARDS: usize = 16;

/// A rendezvous for one in-flight SDP solve: the leading thread fills the
/// result, every joining thread waits on it.
#[derive(Default)]
pub(crate) struct InflightSlot {
    result: Mutex<Option<Result<f64, DiamondError>>>,
    ready: Condvar,
}

impl InflightSlot {
    /// Blocks until the leading thread completes (or abandons) the solve.
    /// Progress is guaranteed: a lead is only ever held by a thread
    /// actively solving, and [`LeadGuard`] fills the slot even on panic.
    pub(crate) fn wait(&self) -> Result<f64, DiamondError> {
        let mut slot = lock(&self.result);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Proof that the holder won the race to solve a key. Must be resolved via
/// [`LeadGuard::complete`]; dropping it (a panic unwinding through the
/// solve) completes the lead with an error so joiners never hang.
pub(crate) struct LeadGuard<'a> {
    cache: &'a SdpCache,
    key: Option<Vec<u64>>,
}

impl LeadGuard<'_> {
    /// Publishes the solve's outcome: inserts the certificate into the
    /// cache on success, wakes every joiner either way.
    pub(crate) fn complete(mut self, result: Result<Certificate, DiamondError>) {
        let key = self.key.take().expect("lead completed once");
        self.cache.finish_lead(key, result);
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.cache.finish_lead(
                key,
                Err(DiamondError::Solver(SdpError::Numerical(
                    "in-flight SDP solve abandoned by a panicking worker".into(),
                ))),
            );
        }
    }
}

/// The outcome of an in-flight-aware cache lookup.
pub(crate) enum Lookup<'a> {
    /// A finished certificate answered the judgment.
    Hit(f64),
    /// Another thread is solving this key right now; wait on the slot.
    Join(Arc<InflightSlot>),
    /// The caller won the lead: solve, then [`LeadGuard::complete`].
    Lead(LeadGuard<'a>),
}

/// A cached, re-verifiable SDP certificate: the certified bound ε plus the
/// dual vector proving it and the dimensions needed to re-parse the entry's
/// content address back into an SDP. `dim`/`n_kraus`/`dual` exist for the
/// persistent store ([`crate::persist`]): a loaded entry is only trusted
/// after its dual vector re-certifies ε against the rebuilt problem.
#[derive(Clone, Debug)]
pub(crate) struct Certificate {
    /// The certified diamond-norm upper bound.
    pub eps: f64,
    /// Ideal-gate dimension `d` (the key stores matrices as flat bit
    /// streams; without `d` they cannot be re-parsed).
    pub dim: u32,
    /// Number of Kraus operators in the noisy channel.
    pub n_kraus: u32,
    /// The weak-duality dual vector `y` behind `eps`.
    pub dual: Arc<Vec<f64>>,
}

/// The engine's shared, content-addressed SDP bound cache with in-flight
/// solve deduplication.
pub(crate) struct SdpCache {
    shards: Vec<Mutex<HashMap<Vec<u64>, Certificate>>>,
    inflight: Mutex<HashMap<Vec<u64>, Arc<InflightSlot>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    inflight_dedup: AtomicUsize,
    /// Monotonic count of `insert` calls — a cheap change signal the
    /// persistence layer uses to skip whole-cache exports when nothing
    /// new could possibly need writing.
    inserts: AtomicUsize,
}

impl SdpCache {
    fn new() -> Self {
        SdpCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            inflight_dedup: AtomicUsize::new(0),
            inserts: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: &[u64]) -> &Mutex<HashMap<Vec<u64>, Certificate>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS]
    }

    /// Stores a certificate under its content address.
    pub(crate) fn insert(&self, key: Vec<u64>, cert: Certificate) {
        lock(self.shard(&key)).insert(key, cert);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// The monotonic insert counter (see the field docs).
    pub(crate) fn insert_count(&self) -> usize {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Clones out every stored `(key, certificate)` pair — the persistence
    /// layer's export hook. Shards are locked one at a time, so concurrent
    /// analyses are only ever briefly blocked on a single shard.
    pub(crate) fn export(&self) -> Vec<(Vec<u64>, Certificate)> {
        self.shards
            .iter()
            .flat_map(|s| {
                lock(s)
                    .iter()
                    .map(|(k, c)| (k.clone(), c.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Whether a certificate for this key is already present (no counter
    /// side effects — used by import paths).
    pub(crate) fn contains(&self, key: &[u64]) -> bool {
        lock(self.shard(key)).contains_key(key)
    }

    /// Side-effect-free peek at a finished certificate's ε — the anytime
    /// first answer's cache source. Deliberately narrower than
    /// [`SdpCache::lookup_or_lead`]: no hit/miss counting (an anytime probe must not
    /// perturb the pinned counter fixtures) and no in-flight interaction
    /// (first answers never join or lead a solve).
    pub(crate) fn peek(&self, key: &[u64]) -> Option<f64> {
        lock(self.shard(key)).get(key).map(|c| c.eps)
    }

    /// In-flight-aware lookup: a finished certificate wins; otherwise the
    /// caller either joins the thread already solving this key or becomes
    /// the lead itself. Lock order is inflight-map → shard, and
    /// [`SdpCache::finish_lead`] never holds both, so the nesting is safe.
    pub(crate) fn lookup_or_lead(&self, key: &[u64]) -> Lookup<'_> {
        // Fast path: a bare shard probe, no global lock. Certificates are
        // only ever added (outside `clear_cache`), so a hit here is final —
        // this keeps the warm-cache path as parallel as the 16-way
        // sharding intends.
        if let Some(eps) = lock(self.shard(key)).get(key).map(|c| c.eps) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(eps);
        }
        let mut inflight = lock(&self.inflight);
        // Re-probe *under* the in-flight lock: a lead inserts into the
        // cache before removing its in-flight entry, so a racer that
        // missed the fast probe sees the key in at least one of the two
        // maps here.
        if let Some(eps) = lock(self.shard(key)).get(key).map(|c| c.eps) {
            drop(inflight);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(eps);
        }
        match inflight.entry(key.to_vec()) {
            Entry::Occupied(e) => {
                let slot = Arc::clone(e.get());
                drop(inflight);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.inflight_dedup.fetch_add(1, Ordering::Relaxed);
                Lookup::Join(slot)
            }
            Entry::Vacant(v) => {
                v.insert(Arc::default());
                drop(inflight);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Lead(LeadGuard {
                    cache: self,
                    key: Some(key.to_vec()),
                })
            }
        }
    }

    fn finish_lead(&self, key: Vec<u64>, result: Result<Certificate, DiamondError>) {
        let published = result.as_ref().map(|c| c.eps).map_err(Clone::clone);
        if let Ok(cert) = result {
            self.insert(key.clone(), cert);
        }
        let slot = lock(&self.inflight).remove(&key);
        if let Some(slot) = slot {
            *lock(&slot.result) = Some(published);
            slot.ready.notify_all();
        }
    }

    /// Counts judgments answered without their own lookup — the duplicate
    /// obligations a solve stage folded onto a single representative.
    pub(crate) fn note_follower_hits(&self, n: usize) {
        if n > 0 {
            self.hits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts judgments deduplicated against an in-flight solve rather
    /// than a finished certificate.
    pub(crate) fn note_inflight_dedup(&self, n: usize) {
        if n > 0 {
            self.inflight_dedup.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn entries(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    fn clear(&self) {
        for s in &self.shards {
            lock(s).clear();
        }
        // The in-flight map is deliberately left alone: clearing it would
        // orphan threads waiting on a slot. Leads complete and remove
        // their own entries.
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.inflight_dedup.store(0, Ordering::Relaxed);
    }
}

/// Cache-key tag for ρ̂-constrained `(ρ̂, δ)`-diamond SDPs.
pub(crate) const KEY_RHO_DELTA: u64 = 1;
/// Cache-key tag for unconstrained diamond SDPs (worst-case analysis).
pub(crate) const KEY_UNCONSTRAINED: u64 = 0;
/// Separator between heterogeneous key segments.
pub(crate) const KEY_SEP: u64 = u64::MAX;

fn push_mat(key: &mut Vec<u64>, m: &CMat) {
    for z in m.as_slice() {
        key.push(z.re.to_bits());
        key.push(z.im.to_bits());
    }
}

fn push_opts(key: &mut Vec<u64>, opts: &SolverOptions) {
    key.push(opts.max_iterations as u64);
    key.push(opts.tolerance.to_bits());
}

/// Content address of a `(ρ̂, δ)`-diamond SDP: ideal gate, noisy Kraus
/// operators, quantized ρ′, and solver options, plus the **effective δ**
/// the certificate was solved at (bucket index *and* bucket width — the
/// cache is engine-wide, and requests may differ in `delta_quantum`, so a
/// bare bucket integer would let certificates solved for a smaller δ
/// unsoundly answer judgments with a larger one).
pub(crate) fn key_rho_delta(
    gate: &CMat,
    kraus: &[CMat],
    rho_q: &CMat,
    bucket: u64,
    delta_quantum: f64,
    opts: &SolverOptions,
) -> Vec<u64> {
    let mut key = vec![KEY_RHO_DELTA];
    push_mat(&mut key, gate);
    key.push(KEY_SEP);
    for k in kraus {
        push_mat(&mut key, k);
    }
    key.push(KEY_SEP);
    push_mat(&mut key, rho_q);
    key.push(bucket);
    key.push(delta_quantum.to_bits());
    push_opts(&mut key, opts);
    key
}

/// Content address of an unconstrained diamond SDP.
pub(crate) fn key_unconstrained(gate: &CMat, kraus: &[CMat], opts: &SolverOptions) -> Vec<u64> {
    let mut key = vec![KEY_UNCONSTRAINED];
    push_mat(&mut key, gate);
    key.push(KEY_SEP);
    for k in kraus {
        push_mat(&mut key, k);
    }
    push_opts(&mut key, opts);
    key
}

/// A snapshot of the engine's cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Judgments answered from a finished certificate (across all requests
    /// so far), including duplicates a solve stage folded together.
    pub hits: usize,
    /// Lookups that missed and required an SDP solve.
    pub misses: usize,
    /// Certificates currently stored.
    pub entries: usize,
    /// Judgments answered by piggybacking on an SDP solve that was already
    /// in flight (same request or a concurrent sibling) instead of
    /// triggering their own. A sub-classification of `hits`.
    pub inflight_dedup: usize,
}

/// The outcome of [`Engine::analyze_batch_detailed`].
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request results, in request order.
    pub results: Vec<Result<Report, AnalysisError>>,
    /// Distinct threads that processed at least one request (the caller's
    /// thread participates, so this is ≥ 1 for a non-empty batch and at
    /// most `min(batch size, Engine::threads())`).
    pub worker_threads: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
}

/// Construction options for an [`Engine`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineOptions {
    /// Default solver options for requests that don't override them.
    pub solver: SolverOptions,
    /// Concurrency cap for the engine's worker pool, *including* the
    /// calling thread (`1` = fully sequential). `0` defers to the
    /// `GLEIPNIR_THREADS` env var, and failing that to
    /// `available_parallelism()` (at least 2).
    pub threads: usize,
}

impl From<SolverOptions> for EngineOptions {
    fn from(solver: SolverOptions) -> Self {
        EngineOptions { solver, threads: 0 }
    }
}

/// Parses a `GLEIPNIR_THREADS` value: `Ok(Some(n))` for an explicit
/// positive cap, `Ok(None)` for `0` (= auto), `Err` for anything that
/// doesn't parse (`"four"`, `"-2"`, `""`). Malformed values must never
/// fall through silently: the user asked for a specific concurrency and
/// would otherwise get `available_parallelism()` with no signal.
pub(crate) fn parse_threads_env(value: &str) -> Result<Option<usize>, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "GLEIPNIR_THREADS must be a non-negative integer (0 = auto), got `{value}`"
        )),
    }
}

/// The auto thread cap: `available_parallelism()`, at least 2 so that even
/// a single-core host overlaps a batch's requests (matching the pre-pool
/// behavior).
fn auto_threads() -> usize {
    thread::available_parallelism()
        .map_or(2, |n| n.get())
        .max(2)
}

/// Resolves the configured thread cap: explicit > `GLEIPNIR_THREADS` >
/// [`auto_threads`].
///
/// # Errors
///
/// [`AnalysisError::InvalidConfig`] when the env var is consulted and is
/// malformed.
fn resolve_threads(requested: usize) -> Result<usize, AnalysisError> {
    if requested > 0 {
        return Ok(requested);
    }
    match std::env::var("GLEIPNIR_THREADS") {
        Ok(value) => match parse_threads_env(&value) {
            Ok(Some(n)) => Ok(n),
            Ok(None) => Ok(auto_threads()),
            Err(msg) => Err(AnalysisError::InvalidConfig(msg)),
        },
        Err(_) => Ok(auto_threads()),
    }
}

/// The engine state shared with (and outliving) pool jobs.
pub(crate) struct EngineShared {
    pub(crate) cache: SdpCache,
    pub(crate) options: SolverOptions,
    /// Engine-lifetime tier totals (per-tier answer counts + cumulative
    /// interior-point iterations), surfaced by [`Engine::tier_stats`] and
    /// the server's `/metrics`.
    pub(crate) tiers: TierTotals,
    /// The anytime refinement registry: token → in-flight/completed exact
    /// re-analysis (see [`crate::refine`]).
    pub(crate) refines: RefinementRegistry,
}

/// A cheap, clonable, `'static` handle to the engine — what analysis
/// stages and pool jobs work against. Holds the pool only weakly so a
/// queued job can never be the one to drop (and join) the pool.
#[derive(Clone)]
pub(crate) struct EngineHandle {
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) pool: PoolHandle,
    /// The scheduling class this handle's solve stages submit pool work
    /// under — interactive for direct `analyze` calls, batch for batch
    /// fan-out, refinement for anytime background re-analyses.
    pub(crate) class: PriorityClass,
}

impl EngineHandle {
    /// The solver options a request resolves to.
    pub(crate) fn resolve_options(&self, request: &AnalysisRequest) -> SolverOptions {
        request.solver_options().unwrap_or(self.shared.options)
    }

    /// The engine's shared SDP cache (per-request participation is decided
    /// by [`AnalysisRequest::cache_enabled`]).
    pub(crate) fn cache(&self) -> &SdpCache {
        &self.shared.cache
    }
}

/// Runs one analysis request against an engine handle, dispatching on its
/// [`Method`]. The free-function form (rather than a method on [`Engine`])
/// lets pool workers run batch requests without holding the engine itself.
pub(crate) fn analyze_request(
    h: &EngineHandle,
    request: &AnalysisRequest,
) -> Result<Report, AnalysisError> {
    match request.method() {
        Method::StateAware { mps_width } => {
            let walk = Walk::of(h, request);
            let mut plan = walk.plan(request.program(), *mps_width)?;
            let solved = spawn_solve(h, std::mem::take(&mut plan.obligations), &walk).join(h)?;
            Ok(Report::StateAware(assemble_report(plan, solved)))
        }
        Method::Adaptive(cfg) => run_adaptive(h, request, cfg).map(Report::Adaptive),
        Method::WorstCase => run_worst_case(h, request).map(Report::WorstCase),
        Method::LqrFullSim => run_lqr_full_sim(h, request).map(Report::LqrFullSim),
    }
}

/// The long-lived, thread-safe analysis engine (see the module docs).
///
/// # Examples
///
/// ```
/// use gleipnir_circuit::ProgramBuilder;
/// use gleipnir_core::{AnalysisRequest, Engine, Method};
/// use gleipnir_noise::NoiseModel;
///
/// let engine = Engine::new();
/// let mut b = ProgramBuilder::new(2);
/// b.h(0).cnot(0, 1);
/// let request = AnalysisRequest::builder(b.build())
///     .noise(NoiseModel::uniform_bit_flip(1e-4))
///     .method(Method::StateAware { mps_width: 8 })
///     .build()?;
/// let report = engine.analyze(&request)?;
/// assert!(report.error_bound() > 0.0);
/// assert!(report.error_bound() < 2e-4);
/// # Ok::<(), gleipnir_core::AnalysisError>(())
/// ```
pub struct Engine {
    shared: Arc<EngineShared>,
    pool: Arc<WorkerPool>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cache", &self.shared.cache)
            .field("options", &self.shared.options)
            .field("threads", &self.pool.threads())
            .finish()
    }
}

impl std::fmt::Debug for SdpCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SdpCache")
            .field("entries", &self.entries())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field(
                "inflight_dedup",
                &self.inflight_dedup.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with default solver options and an auto-sized pool.
    ///
    /// Infallible by design (it backs [`Default`]): when `GLEIPNIR_THREADS`
    /// is malformed it warns **once** on stderr and falls back to
    /// [`available_parallelism`](thread::available_parallelism). Use
    /// [`Engine::with_options`] to surface the malformed env var as an
    /// error instead.
    pub fn new() -> Self {
        match Self::with_options(EngineOptions::default()) {
            Ok(engine) => engine,
            Err(err) => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!("gleipnir: {err}; falling back to available parallelism");
                });
                Self::build(SolverOptions::default(), auto_threads())
            }
        }
    }

    fn build(solver: SolverOptions, threads: usize) -> Self {
        Engine {
            shared: Arc::new(EngineShared {
                cache: SdpCache::new(),
                options: solver,
                tiers: TierTotals::default(),
                refines: RefinementRegistry::default(),
            }),
            pool: Arc::new(WorkerPool::new(threads)),
        }
    }

    /// An engine built from [`EngineOptions`] (a bare [`SolverOptions`]
    /// also converts, keeping the pool auto-sized): per-request solver
    /// defaults plus the worker-pool thread cap.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidConfig`] when `threads` is 0 (= defer to the
    /// environment) and `GLEIPNIR_THREADS` is set but malformed (e.g.
    /// `"four"` or `"-2"`) — a requested concurrency cap is configuration,
    /// and silently ignoring it would hand the user a different pool size
    /// than the one they asked for.
    pub fn with_options(options: impl Into<EngineOptions>) -> Result<Self, AnalysisError> {
        let options = options.into();
        Ok(Self::build(
            options.solver,
            resolve_threads(options.threads)?,
        ))
    }

    /// The engine-level default solver options.
    pub fn options(&self) -> &SolverOptions {
        &self.shared.options
    }

    /// The resolved concurrency cap: how many threads (including a calling
    /// thread) may analyze simultaneously.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// A snapshot of the shared cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.shared.cache.hits.load(Ordering::Relaxed),
            misses: self.shared.cache.misses.load(Ordering::Relaxed),
            entries: self.shared.cache.entries(),
            inflight_dedup: self.shared.cache.inflight_dedup.load(Ordering::Relaxed),
        }
    }

    /// Engine-lifetime tier totals: how many judgments each tier of the
    /// bound engine answered, and the interior-point iterations spent
    /// (see [`crate::TierPolicy`] — with the default exact policy
    /// everything lands in `cold`).
    pub fn tier_stats(&self) -> TierStats {
        self.shared.tiers.snapshot()
    }

    /// Drops every cached certificate and resets the counters.
    pub fn clear_cache(&self) {
        self.shared.cache.clear();
    }

    /// The shared SDP cache (for the persistence layer's export/import).
    pub(crate) fn sdp_cache(&self) -> &SdpCache {
        &self.shared.cache
    }

    /// The handle analysis stages and pool jobs run against. Direct
    /// `analyze` calls run in the interactive class.
    pub(crate) fn handle(&self) -> EngineHandle {
        self.handle_with_class(PriorityClass::Interactive)
    }

    /// A handle whose solve-stage pool submissions carry `class`.
    pub(crate) fn handle_with_class(&self, class: PriorityClass) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
            pool: PoolHandle::new(&self.pool),
            class,
        }
    }

    /// Runs one analysis request, dispatching on its [`Method`]. The
    /// request's solve stage fans per-gate SDP obligations over the
    /// engine's worker pool — a single request already uses every
    /// configured thread.
    ///
    /// # Errors
    ///
    /// [`AnalysisError`] on width mismatch, unsupported features, or SDP
    /// failure. (Requests are validated at build time, so configuration
    /// errors surface earlier, from [`crate::AnalysisRequestBuilder::build`].)
    pub fn analyze(&self, request: &AnalysisRequest) -> Result<Report, AnalysisError> {
        analyze_request(&self.handle(), request)
    }

    /// Analyzes a batch of requests across the engine's worker pool,
    /// returning one `Result` per request (in request order). A failing or
    /// panicking request does not affect its siblings, and all workers
    /// share the engine's SDP cache and in-flight dedup.
    pub fn analyze_batch(
        &self,
        requests: &[AnalysisRequest],
    ) -> Vec<Result<Report, AnalysisError>> {
        self.analyze_batch_detailed(requests).results
    }

    /// [`Engine::analyze_batch`] plus batch-level bookkeeping: the number
    /// of threads that *actually processed* at least one request (not the
    /// number spawned) and the wall-clock time.
    pub fn analyze_batch_detailed(&self, requests: &[AnalysisRequest]) -> BatchOutcome {
        let start = Instant::now();
        if requests.is_empty() {
            return BatchOutcome {
                results: Vec::new(),
                worker_threads: 0,
                elapsed: start.elapsed(),
            };
        }
        // Requests are cloned into an Arc so pool workers can outlive the
        // borrow; panics inside a request become that request's
        // `AnalysisError::Panicked` (converted by the task set).
        let requests: Arc<Vec<AnalysisRequest>> = Arc::new(requests.to_vec());
        let h = self.handle_with_class(PriorityClass::Batch);
        let task_h = h.clone();
        let out = run_indexed(&h.pool, PriorityClass::Batch, requests.len(), move |i| {
            analyze_request(&task_h, &requests[i])
        });
        BatchOutcome {
            results: out.results,
            worker_threads: out.participants,
            elapsed: start.elapsed(),
        }
    }

    /// Anytime analysis: returns **immediately** with the best
    /// currently-certified upper bound on ε (finished cold certificates,
    /// Tier-0 closed forms, or the trivial bound 1 — no SDP is solved)
    /// plus a [`RefineToken`], while the exact analysis runs in the
    /// background on the pool's refinement runner, with its solve
    /// stage's assists queued at refinement priority. Poll the token
    /// with [`Engine::refinement`] / [`Engine::wait_refinement`] for the
    /// tightened ε.
    ///
    /// Soundness (SOUNDNESS.md obligation 8): the first bound is a
    /// certified upper bound on the refined ε, and the refinement runs the
    /// request under [`crate::TierPolicy::Exact`] — its ε is bit-identical
    /// to a cold exact-policy [`Engine::analyze`] of the same request.
    /// Nothing on the first-answer path writes the cache, enters the
    /// in-flight dedup protocol, or perturbs the cache counters.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidConfig`] for non-state-aware requests
    /// (anytime refinement is defined over the state-aware proof system),
    /// or any planning error the full analysis would also hit.
    pub fn analyze_anytime(
        &self,
        request: &AnalysisRequest,
    ) -> Result<AnytimeAnswer, AnalysisError> {
        let start = Instant::now();
        let h = self.handle();
        let (first_bound, sources) = compute_first_answer(&h, request)?;
        let (token, entry) = self.shared.refines.register();
        let exact = request.exact_clone();
        let refine_h = self.handle_with_class(PriorityClass::Refinement);
        let job_h = refine_h.clone();
        self.shared.refines.submit(
            &refine_h,
            Box::new(move || {
                let result = analyze_request(&job_h, &exact);
                job_h.shared.refines.publish(token, &entry, result);
            }),
        );
        Ok(AnytimeAnswer {
            token,
            first_bound,
            first_elapsed: start.elapsed(),
            sources,
        })
    }

    /// The current state of an anytime refinement: `None` for a token this
    /// engine never minted (or evicted long after completion), otherwise
    /// the [`RefineStatus`]. Terminal states are served repeatedly.
    pub fn refinement(&self, token: RefineToken) -> Option<RefineStatus> {
        self.shared.refines.get(token).map(|e| e.status())
    }

    /// Long-poll form of [`Engine::refinement`]: blocks until the
    /// refinement reaches a terminal state or `timeout` elapses, returning
    /// the state at that moment (`Pending` on timeout).
    pub fn wait_refinement(&self, token: RefineToken, timeout: Duration) -> Option<RefineStatus> {
        self.shared.refines.get(token).map(|e| e.wait(timeout))
    }

    /// Engine-lifetime refinement counters.
    pub fn refine_stats(&self) -> RefineStats {
        self.shared.refines.stats()
    }

    /// Current per-class backlog of the engine's worker pool (queued jobs
    /// not yet claimed by a worker).
    pub fn scheduler_depths(&self) -> SchedulerDepths {
        self.pool.depths()
    }

    /// **Test support.** Scripted-refinement mode: while on, refinement
    /// jobs queue inside the engine instead of the worker pool and run
    /// only when [`Engine::run_next_refinement`] is called — giving the
    /// deterministic scheduler harness full control over the interleaving
    /// of submission, polling, and completion. No production effect when
    /// left off (the default).
    pub fn set_scripted_refinements(&self, on: bool) {
        self.shared.refines.set_scripted(on);
    }

    /// **Test support.** Runs the oldest queued scripted refinement on the
    /// calling thread; `false` when none are queued.
    pub fn run_next_refinement(&self) -> bool {
        self.shared.refines.run_next()
    }

    /// **Test support.** Scripted refinements queued and not yet run.
    pub fn pending_refinements(&self) -> usize {
        self.shared.refines.queued()
    }

    /// **Test support.** Arms a one-shot [`ScriptedGate`]: the next
    /// refinement to finish computing parks at the gate *before* its
    /// result becomes visible, so a test can provably poll the `Pending`
    /// state mid-solve, then release the gate and observe completion.
    pub fn hold_next_refinement(&self) -> Arc<ScriptedGate> {
        let gate = Arc::new(ScriptedGate::new());
        self.shared.refines.arm_hold(Arc::clone(&gate));
        gate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal test certificate (empty dual vector — the cache itself
    /// never inspects certificate internals).
    fn cert(eps: f64) -> Certificate {
        Certificate {
            eps,
            dim: 2,
            n_kraus: 1,
            dual: Arc::new(Vec::new()),
        }
    }

    #[test]
    fn thread_cap_resolution_prefers_explicit() {
        assert_eq!(resolve_threads(3).unwrap(), 3);
        assert_eq!(resolve_threads(1).unwrap(), 1);
        // Auto mode is at least 2 (or whatever the env var pins — in
        // either case nonzero).
        assert!(resolve_threads(0).unwrap() >= 1);
    }

    #[test]
    fn threads_env_parsing_is_strict() {
        assert_eq!(parse_threads_env("4"), Ok(Some(4)));
        assert_eq!(parse_threads_env(" 8 "), Ok(Some(8)));
        assert_eq!(parse_threads_env("0"), Ok(None));
        for bad in ["four", "-2", "", "1.5", "2x"] {
            let err = parse_threads_env(bad).unwrap_err();
            assert!(err.contains("GLEIPNIR_THREADS"), "{bad}: {err}");
        }
    }

    /// Probe body for [`malformed_threads_env_is_invalid_config`]: only
    /// asserts when *this process* was launched with a malformed
    /// `GLEIPNIR_THREADS` (the parent test spawns such a child). Run
    /// normally, the env is clean and the probe is a no-op — so no test in
    /// this binary ever mutates the process environment.
    #[test]
    fn env_probe_malformed_threads() {
        match std::env::var("GLEIPNIR_THREADS") {
            Ok(value) if parse_threads_env(&value).is_err() => {
                let deferred = Engine::with_options(EngineOptions {
                    solver: SolverOptions::default(),
                    threads: 0,
                });
                assert!(
                    matches!(
                        deferred,
                        Err(AnalysisError::InvalidConfig(ref msg)) if msg.contains(&value)
                    ),
                    "malformed env must surface as InvalidConfig, got {deferred:?}"
                );
                // An explicit cap never consults the env var.
                let explicit = Engine::with_options(EngineOptions {
                    solver: SolverOptions::default(),
                    threads: 2,
                });
                assert_eq!(explicit.unwrap().threads(), 2);
                // `Engine::new` stays infallible: it warns and falls back.
                assert!(Engine::new().threads() >= 2);
            }
            _ => {}
        }
    }

    /// Re-runs [`env_probe_malformed_threads`] in a child process whose
    /// environment carries `GLEIPNIR_THREADS=four` from birth — the
    /// process env is global state, and `set_var` in a multithreaded test
    /// binary would race every other test that builds an engine.
    #[test]
    fn malformed_threads_env_is_invalid_config() {
        let exe = std::env::current_exe().expect("test binary path");
        let output = std::process::Command::new(exe)
            .args(["engine::tests::env_probe_malformed_threads", "--exact"])
            .env("GLEIPNIR_THREADS", "four")
            .output()
            .expect("spawn probe child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "probe failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        // Guard against the filter silently matching nothing (e.g. after a
        // rename): the child must have actually run the probe.
        assert!(
            stdout.contains("1 passed"),
            "probe did not run in the child:\n{stdout}"
        );
    }

    #[test]
    fn engine_reports_its_thread_cap() {
        let engine = Engine::with_options(EngineOptions {
            solver: SolverOptions::default(),
            threads: 3,
        })
        .unwrap();
        assert_eq!(engine.threads(), 3);
        let sequential = Engine::with_options(EngineOptions {
            solver: SolverOptions::default(),
            threads: 1,
        })
        .unwrap();
        assert_eq!(sequential.threads(), 1);
    }

    #[test]
    fn inflight_lookup_leads_then_hits() {
        let cache = SdpCache::new();
        let key = vec![1u64, 2, 3];
        match cache.lookup_or_lead(&key) {
            Lookup::Lead(guard) => guard.complete(Ok(cert(0.5))),
            _ => panic!("fresh key must be a lead"),
        }
        match cache.lookup_or_lead(&key) {
            Lookup::Hit(eps) => assert_eq!(eps, 0.5),
            _ => panic!("completed lead must be a hit"),
        }
        assert_eq!(cache.inflight.lock().unwrap().len(), 0, "entry removed");
    }

    #[test]
    fn abandoned_lead_unblocks_joiners_with_an_error() {
        let cache = Arc::new(SdpCache::new());
        let key = vec![9u64];
        let guard = match cache.lookup_or_lead(&key) {
            Lookup::Lead(g) => g,
            _ => panic!("fresh key must be a lead"),
        };
        let joiner = match cache.lookup_or_lead(&key) {
            Lookup::Join(slot) => slot,
            _ => panic!("second lookup must join the in-flight solve"),
        };
        drop(guard); // simulates a panic unwinding through the solve
        assert!(joiner.wait().is_err(), "joiner must observe the failure");
        // The failed key is not cached; the next lookup leads again.
        assert!(matches!(cache.lookup_or_lead(&key), Lookup::Lead(_)));
    }

    #[test]
    fn concurrent_leads_share_one_solve() {
        let cache = Arc::new(SdpCache::new());
        let key = vec![7u64, 7];
        let guard = match cache.lookup_or_lead(&key) {
            Lookup::Lead(g) => g,
            _ => panic!("lead"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            let key = key.clone();
            std::thread::spawn(move || match cache.lookup_or_lead(&key) {
                Lookup::Join(slot) => slot.wait(),
                Lookup::Hit(eps) => Ok(eps),
                Lookup::Lead(_) => panic!("only one lead per key"),
            })
        };
        guard.complete(Ok(cert(0.25)));
        assert_eq!(waiter.join().unwrap().unwrap(), 0.25);
        assert_eq!(cache.peek(&key), Some(0.25));
    }
}
