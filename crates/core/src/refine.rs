//! The anytime refinement subsystem: tokens, the refinement registry, and
//! per-tenant queue quotas.
//!
//! [`Engine::analyze_anytime`](crate::Engine::analyze_anytime) answers in
//! two steps. The **first answer** is assembled without solving a single
//! SDP: each gate judgment is answered by the best *currently-certified*
//! bound — a finished cold certificate already in the cache (read through
//! a side-effect-free peek), the Tier-0 closed form when the residual
//! channel is Pauli-type, or the trivial bound `1` (half-diamond norms
//! never exceed 1). Every one of those per-gate values is a certified
//! upper bound on the ε the exact solve will later produce, and the
//! Seq/Meas combination rules are monotone — so the whole-program first
//! answer is a certified upper bound on the final refined ε (SOUNDNESS.md
//! obligation 8).
//!
//! The **refinement** is the unmodified exact analysis (the request
//! re-run under [`TierPolicy::Exact`](crate::TierPolicy::Exact)), pushed
//! onto the engine's worker pool in the
//! [`PriorityClass::Refinement`](crate::PriorityClass::Refinement) class
//! and published here under a [`RefineToken`] for clients to poll
//! ([`Engine::refinement`](crate::Engine::refinement)) or long-poll
//! ([`Engine::wait_refinement`](crate::Engine::wait_refinement)).
//!
//! Nothing on the first-answer path writes to the SDP cache or enters the
//! in-flight dedup protocol: the peek is read-only and the closed form is
//! recomputed locally, so exact-policy requests on the same engine can
//! never observe an anytime artifact.

use crate::assemble::assemble_report;
use crate::engine::EngineHandle;
use crate::error::AnalysisError;
use crate::plan::Walk;
use crate::pool::{lock, PriorityClass};
use crate::report::Report;
use crate::request::{AnalysisRequest, Method};
use crate::solve::SolveOutcome;
use crate::testkit::ScriptedGate;
use crate::tiers::closed_form_gate_bound;
use gleipnir_telemetry as telemetry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Completed refinements retained for repeated polling; the oldest
/// completed entry is evicted past this (pending entries are never
/// evicted — their token holder is still owed an answer).
const COMPLETED_RETAINED: usize = 1024;

/// An opaque handle to one in-flight (or completed) anytime refinement.
/// Displayed and parsed as 16 lowercase hex digits — the spelling the
/// server's `GET /refine/<token>` route uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RefineToken(u64);

impl RefineToken {
    /// Parses a token in the [`fmt::Display`] spelling (16 hex digits).
    pub fn parse(s: &str) -> Option<RefineToken> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(RefineToken)
    }
}

impl fmt::Display for RefineToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Where a refinement stands right now.
#[derive(Clone, Debug)]
pub enum RefineStatus {
    /// The exact solve is still queued or running.
    Pending,
    /// The exact solve finished; the refined report is final.
    Done(Arc<Report>),
    /// The exact solve failed (the first answer remains a sound bound).
    Failed(String),
}

impl RefineStatus {
    /// Whether the refinement has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, RefineStatus::Pending)
    }
}

/// How each gate judgment of an anytime first answer was certified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnytimeSources {
    /// Judgments answered by a finished cold certificate in the cache.
    pub cache: usize,
    /// Judgments answered by the Tier-0 closed form.
    pub closed_form: usize,
    /// Judgments answered by the trivial bound `1`.
    pub trivial: usize,
}

/// The immediate result of [`Engine::analyze_anytime`](crate::Engine::analyze_anytime):
/// a certified (loose) bound available now, plus the token under which the
/// exact refinement will appear.
#[derive(Clone, Debug)]
pub struct AnytimeAnswer {
    /// The token to poll for the refined ε.
    pub token: RefineToken,
    /// The certified first bound — an upper bound on the refined ε.
    pub first_bound: f64,
    /// Wall-clock time spent producing the first answer.
    pub first_elapsed: Duration,
    /// Per-source accounting of the first answer's gate judgments.
    pub sources: AnytimeSources,
}

/// Engine-lifetime refinement counters (the server's `refinements_total`
/// and `refinements_pending` series).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Refinements started (tokens minted).
    pub started: usize,
    /// Refinements that completed with a report.
    pub completed: usize,
    /// Refinements that failed.
    pub failed: usize,
    /// Refinements still queued or running.
    pub pending: usize,
}

/// One registered refinement: its state plus the condvar long-polls park
/// on.
pub(crate) struct RefineEntry {
    state: Mutex<RefineStatus>,
    done: Condvar,
    started: Instant,
}

impl RefineEntry {
    fn new() -> Self {
        RefineEntry {
            state: Mutex::new(RefineStatus::Pending),
            done: Condvar::new(),
            started: Instant::now(),
        }
    }

    pub(crate) fn status(&self) -> RefineStatus {
        lock(&self.state).clone()
    }

    /// Blocks until the refinement reaches a terminal state or `timeout`
    /// elapses, returning the state at that moment.
    pub(crate) fn wait(&self, timeout: Duration) -> RefineStatus {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.state);
        loop {
            if state.is_terminal() {
                return state.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return state.clone();
            }
            state = self
                .done
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Jobs queued under scripted mode (see
/// [`Engine::set_scripted_refinements`](crate::Engine::set_scripted_refinements)).
type RefineJob = Box<dyn FnOnce() + Send + 'static>;

struct RegistryInner {
    entries: HashMap<u64, Arc<RefineEntry>>,
    /// Completed tokens in completion order (eviction queue).
    completed_order: VecDeque<u64>,
}

/// The engine's token → refinement map, plus the deterministic-harness
/// hooks the scheduler tests drive.
pub(crate) struct RefinementRegistry {
    inner: Mutex<RegistryInner>,
    next: AtomicU64,
    started: AtomicUsize,
    completed: AtomicUsize,
    failed: AtomicUsize,
    /// Scripted mode: refinement jobs queue here instead of the pool, and
    /// run only when the test harness calls
    /// [`RefinementRegistry::run_next`] — giving tests full control over
    /// the interleaving of submission, polling, and completion.
    scripted: AtomicBool,
    scripted_jobs: Mutex<VecDeque<RefineJob>>,
    /// An armed rendezvous: the next refinement to publish stops at the
    /// gate *before* its result becomes visible, so a test can observe
    /// the mid-solve `Pending` state at a precise point. One-shot.
    hold: Mutex<Option<Arc<ScriptedGate>>>,
}

impl Default for RefinementRegistry {
    fn default() -> Self {
        RefinementRegistry {
            inner: Mutex::new(RegistryInner {
                entries: HashMap::new(),
                completed_order: VecDeque::new(),
            }),
            next: AtomicU64::new(0),
            started: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            scripted: AtomicBool::new(false),
            scripted_jobs: Mutex::new(VecDeque::new()),
            hold: Mutex::new(None),
        }
    }
}

impl RefinementRegistry {
    /// Mints a fresh token and registers a pending entry under it.
    pub(crate) fn register(&self) -> (RefineToken, Arc<RefineEntry>) {
        // splitmix64 over a counter: process-unique, well-mixed, never 0.
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let mut z = n
            .wrapping_add(0x9E3779B97F4A7C15)
            .wrapping_mul(0xFF51AFD7ED558CCD);
        z = (z ^ (z >> 33)).wrapping_mul(0xC4CEB9FE1A85EC53);
        let id = (z ^ (z >> 33)).max(1);
        let entry = Arc::new(RefineEntry::new());
        lock(&self.inner).entries.insert(id, Arc::clone(&entry));
        self.started.fetch_add(1, Ordering::Relaxed);
        (RefineToken(id), entry)
    }

    pub(crate) fn get(&self, token: RefineToken) -> Option<Arc<RefineEntry>> {
        lock(&self.inner).entries.get(&token.0).map(Arc::clone)
    }

    /// Publishes a refinement's outcome: honors an armed hold gate, sets
    /// the terminal state, wakes long-polls, feeds the refinement-latency
    /// histogram, and evicts the oldest completed entry past the
    /// retention cap.
    pub(crate) fn publish(
        &self,
        token: RefineToken,
        entry: &RefineEntry,
        result: Result<Report, AnalysisError>,
    ) {
        if let Some(gate) = lock(&self.hold).take() {
            gate.arrive();
            gate.wait_released();
        }
        let status = match result {
            Ok(report) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                RefineStatus::Done(Arc::new(report))
            }
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                RefineStatus::Failed(e.to_string())
            }
        };
        telemetry::global()
            .refine_ms
            .observe_duration(entry.started.elapsed());
        *lock(&entry.state) = status;
        entry.done.notify_all();
        let mut inner = lock(&self.inner);
        inner.completed_order.push_back(token.0);
        while inner.completed_order.len() > COMPLETED_RETAINED {
            if let Some(old) = inner.completed_order.pop_front() {
                inner.entries.remove(&old);
            }
        }
    }

    /// Routes a refinement job: the scripted queue under scripted mode,
    /// the pool's background path otherwise.
    pub(crate) fn submit(&self, h: &EngineHandle, job: RefineJob) {
        if self.scripted.load(Ordering::SeqCst) {
            lock(&self.scripted_jobs).push_back(job);
        } else {
            h.pool.submit_background(job);
        }
    }

    pub(crate) fn set_scripted(&self, on: bool) {
        self.scripted.store(on, Ordering::SeqCst);
    }

    /// Runs the oldest queued scripted job on the calling thread.
    /// `false` when the queue is empty.
    pub(crate) fn run_next(&self) -> bool {
        let job = lock(&self.scripted_jobs).pop_front();
        match job {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }

    pub(crate) fn queued(&self) -> usize {
        lock(&self.scripted_jobs).len()
    }

    pub(crate) fn arm_hold(&self, gate: Arc<ScriptedGate>) {
        *lock(&self.hold) = Some(gate);
    }

    pub(crate) fn stats(&self) -> RefineStats {
        let started = self.started.load(Ordering::Relaxed);
        let completed = self.completed.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        RefineStats {
            started,
            completed,
            failed,
            pending: started.saturating_sub(completed + failed),
        }
    }
}

/// Computes the anytime first answer for a state-aware request: plans the
/// program (exactly as the real analysis will), answers every obligation
/// from certified-but-cheap sources only, and assembles. Never solves an
/// SDP, never writes the cache, never touches the in-flight protocol,
/// never perturbs the hit/miss counters.
pub(crate) fn compute_first_answer(
    h: &EngineHandle,
    request: &AnalysisRequest,
) -> Result<(f64, AnytimeSources), AnalysisError> {
    let Method::StateAware { mps_width } = request.method() else {
        return Err(AnalysisError::InvalidConfig(
            "anytime analysis requires a state-aware request".into(),
        ));
    };
    let walk = Walk::of(h, request);
    let plan = walk.plan(request.program(), *mps_width)?;
    let mut sources = AnytimeSources::default();
    let epsilons: Vec<f64> = plan
        .obligations
        .iter()
        .map(|ob| {
            let peeked = ob.cached.as_ref().and_then(|c| h.shared.cache.peek(&c.key));
            match peeked {
                Some(eps) => {
                    sources.cache += 1;
                    eps
                }
                None => match closed_form_gate_bound(&ob.gate_matrix, &ob.noisy) {
                    Some(eps) => {
                        sources.closed_form += 1;
                        eps
                    }
                    None => {
                        // ½‖Ũ − U‖⋄ ≤ 1 always: the trivial certified bound.
                        sources.trivial += 1;
                        1.0
                    }
                },
            }
        })
        .collect();
    let solved = SolveOutcome {
        epsilons,
        ..SolveOutcome::default()
    };
    Ok((assemble_report(plan, solved).error_bound(), sources))
}

/// Per-tenant admission control for one scheduling class: at most `limit`
/// admitted-and-unreleased requests per `(tenant, class)` pair. A limit
/// of 0 disables quotas entirely (every admission succeeds with a no-op
/// permit).
///
/// Admission hands out a [`QuotaPermit`] whose `Drop` releases the slot —
/// the holder threads it through to wherever the request finishes, and
/// release is automatic on every exit path (including panics).
pub struct TenantQuotas {
    limit: usize,
    slots: Mutex<HashMap<(String, PriorityClass), Arc<AtomicUsize>>>,
}

impl TenantQuotas {
    /// Quotas capping each `(tenant, class)` at `limit` in-flight
    /// requests; 0 = unlimited.
    pub fn new(limit: usize) -> Self {
        TenantQuotas {
            limit,
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The configured per-(tenant, class) cap (0 = unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Tries to admit one request for `tenant` in `class`: `Some(permit)`
    /// when under the cap (hold the permit for the request's lifetime),
    /// `None` when the tenant has saturated its quota for that class.
    pub fn try_admit(&self, tenant: &str, class: PriorityClass) -> Option<QuotaPermit> {
        if self.limit == 0 {
            return Some(QuotaPermit { slot: None });
        }
        let slot = {
            let mut slots = lock(&self.slots);
            Arc::clone(
                slots
                    .entry((tenant.to_string(), class))
                    .or_insert_with(|| Arc::new(AtomicUsize::new(0))),
            )
        };
        // Optimistic increment with rollback: contention on one tenant's
        // counter is the loaded case quotas exist for, so stay lock-free.
        if slot.fetch_add(1, Ordering::AcqRel) < self.limit {
            Some(QuotaPermit { slot: Some(slot) })
        } else {
            slot.fetch_sub(1, Ordering::AcqRel);
            None
        }
    }

    /// Currently admitted requests for `(tenant, class)`.
    pub fn in_use(&self, tenant: &str, class: PriorityClass) -> usize {
        lock(&self.slots)
            .get(&(tenant.to_string(), class))
            .map_or(0, |s| s.load(Ordering::Acquire))
    }
}

/// Proof of admission under a [`TenantQuotas`] cap; dropping it releases
/// the slot.
pub struct QuotaPermit {
    slot: Option<Arc<AtomicUsize>>,
}

impl Drop for QuotaPermit {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            slot.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl fmt::Debug for QuotaPermit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuotaPermit")
            .field("limited", &self.slot.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_and_differ() {
        let reg = RefinementRegistry::default();
        let (a, _) = reg.register();
        let (b, _) = reg.register();
        assert_ne!(a, b);
        assert_eq!(RefineToken::parse(&a.to_string()), Some(a));
        assert_eq!(a.to_string().len(), 16);
        assert_eq!(RefineToken::parse(""), None);
        assert_eq!(RefineToken::parse("zz"), None);
        assert_eq!(RefineToken::parse("00000000000000000"), None); // 17 digits
    }

    #[test]
    fn unknown_tokens_resolve_to_none() {
        let reg = RefinementRegistry::default();
        assert!(reg.get(RefineToken(12345)).is_none());
    }

    #[test]
    fn publish_transitions_pending_to_done_and_counts() {
        let reg = RefinementRegistry::default();
        let (token, entry) = reg.register();
        assert!(matches!(entry.status(), RefineStatus::Pending));
        assert_eq!(reg.stats().pending, 1);
        reg.publish(
            token,
            &entry,
            Err(AnalysisError::InvalidConfig("boom".into())),
        );
        assert!(matches!(entry.status(), RefineStatus::Failed(ref m) if m.contains("boom")));
        let stats = reg.stats();
        assert_eq!((stats.started, stats.failed, stats.pending), (1, 1, 0));
        // Completed (terminal) entries are served repeatedly.
        assert!(reg.get(token).is_some());
        assert!(reg.get(token).unwrap().status().is_terminal());
    }

    #[test]
    fn wait_returns_immediately_on_terminal_state() {
        let reg = RefinementRegistry::default();
        let (token, entry) = reg.register();
        reg.publish(
            token,
            &entry,
            Err(AnalysisError::InvalidConfig("done already".into())),
        );
        // A long timeout must not be slept through when the state is
        // already terminal.
        let t0 = Instant::now();
        assert!(entry.wait(Duration::from_secs(60)).is_terminal());
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn wait_times_out_to_pending() {
        let reg = RefinementRegistry::default();
        let (_, entry) = reg.register();
        assert!(matches!(
            entry.wait(Duration::from_millis(1)),
            RefineStatus::Pending
        ));
    }

    #[test]
    fn completed_entries_evict_oldest_first() {
        let reg = RefinementRegistry::default();
        let mut tokens = Vec::new();
        for _ in 0..COMPLETED_RETAINED + 10 {
            let (token, entry) = reg.register();
            reg.publish(token, &entry, Err(AnalysisError::InvalidConfig("x".into())));
            tokens.push(token);
        }
        for old in &tokens[..10] {
            assert!(reg.get(*old).is_none(), "oldest completed evicted");
        }
        for new in &tokens[10..] {
            assert!(reg.get(*new).is_some(), "recent completed retained");
        }
    }

    #[test]
    fn quotas_admit_up_to_the_limit_per_tenant_and_class() {
        let q = TenantQuotas::new(2);
        let a1 = q.try_admit("alice", PriorityClass::Batch).expect("1st");
        let _a2 = q.try_admit("alice", PriorityClass::Batch).expect("2nd");
        assert!(
            q.try_admit("alice", PriorityClass::Batch).is_none(),
            "alice saturated her batch quota"
        );
        // Another tenant, and another class for the same tenant, are
        // unaffected — a heavy batch user cannot starve anyone else.
        assert!(q.try_admit("bob", PriorityClass::Batch).is_some());
        assert!(q.try_admit("alice", PriorityClass::Interactive).is_some());
        assert_eq!(q.in_use("alice", PriorityClass::Batch), 2);
        // Releasing a permit reopens the slot.
        drop(a1);
        assert_eq!(q.in_use("alice", PriorityClass::Batch), 1);
        assert!(q.try_admit("alice", PriorityClass::Batch).is_some());
    }

    #[test]
    fn zero_limit_disables_quotas() {
        let q = TenantQuotas::new(0);
        for _ in 0..100 {
            // No-op permits: admission never fails, nothing is counted.
            let permit = q.try_admit("anyone", PriorityClass::Batch).unwrap();
            drop(permit);
        }
        assert_eq!(q.in_use("anyone", PriorityClass::Batch), 0);
    }
}
