//! Stage 2 of the analysis pipeline: the **solve** stage, now fronted by
//! the tiered bound engine.
//!
//! Takes the plan's flat obligation list and discharges every `(ρ̂, δ)`-
//! diamond judgment, fanning the work over the engine's worker pool (the
//! submitting thread participates too — see [`crate::pool`]). It is the
//! only place an analysis method solves an SDP: the worst-case and LQR
//! baselines ([`crate::baseline`]) plan their own obligations into it, and
//! every unit is posed by one rule ([`pose`]). Under the
//! request's [`TierPolicy`] each judgment is answered by the cheapest
//! sound mechanism:
//!
//! * **cache hit / in-flight join** — a finished certificate (or a solve
//!   already running on another thread) answers it outright;
//! * **Tier 0, closed form** (fast policy only) — the noisy gate's
//!   residual channel is Pauli-type, so the certified analytic bound
//!   substitutes for the SDP (zero interior-point iterations). The value is
//!   *not* cached and never enters the in-flight protocol — it is cheaper
//!   to recompute than to store, and keeping it out of both means
//!   exact-policy requests on the same engine can never observe it (not
//!   even by joining a concurrent fast-policy solve);
//! * **cold solve** — the classic interior-point solve, advanced in a
//!   lock-step [`SdpBatch`] lane next to up to three other same-shape
//!   solves of the same thread (see [`Stage::drive`]); each lane's bits
//!   are its lone solve's.
//!
//! ## Deduplication, determinism, and accounting
//!
//! Obligations are first folded into **units**: all obligations sharing a
//! cache key become one unit (solved once — its value is *canonical*: the
//! quantized judgment `(ρ_q, δ_eff)` is recoverable from the key alone, so
//! whichever thread solves it produces bit-identical ε), and each uncached
//! obligation is its own unit (solved at its exact `(ρ′, δ)`). A request
//! that bypasses the cache still folds keyed obligations (the worst case's
//! repeated gates), but leaves the engine's cache and its counters alone.
//! Unit results are written back by obligation index, so **the ε vector,
//! the derivation assembled from it, and the `sdp_solves`/`cache_hits`
//! accounting are identical for any pool size** — including 1, which is
//! byte-for-byte the sequential analysis.
//!
//! Tiering preserves that invariant: the closed form is a pure function of
//! the gate and its channel, so the tier decisions (and hence every ε bit)
//! are independent of scheduling. With the default [`TierPolicy::Exact`]
//! the stage is bit-identical to the pre-tiering engine.
//!
//! The stats mirror what the old sequential walk counted: the first
//! obligation of a key is the solve (or the hit, if a certificate
//! existed), every later one a cache hit. Obligations answered by folding
//! onto a solve that was in flight — same-request duplicates and
//! concurrent batch siblings racing on one key — are *additionally*
//! counted as `inflight_dedup`. Tier 0 answers are a category of their
//! own ([`TierCounts::closed_form`]): neither `sdp_solves` nor
//! `cache_hits`, so `gates = sdp_solves + cache_hits + closed_form` under
//! any policy.

use crate::diamond::{diamond_result, rho_delta_problem, DiamondError};
use crate::engine::{
    self, Certificate, EngineHandle, EngineShared, InflightSlot, LeadGuard, Lookup,
};
use crate::error::AnalysisError;
use crate::plan::{CachedJudgment, SolveObligation, Walk};
use crate::pool::{spawn_claiming, Claims, PendingRun};
use crate::tiers::{closed_form_gate_bound, BoundTier, TierCounts, TierPolicy};
use gleipnir_linalg::CMat;
use gleipnir_noise::Channel;
use gleipnir_sdp::{SdpBatch, SdpError, SdpProblem, SdpSolution, SolverOptions, SolverProfile};
use gleipnir_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The solve stage's result: one ε per obligation (in plan order) plus the
/// accounting the report surfaces.
#[derive(Default)]
pub(crate) struct SolveOutcome {
    /// Certified bounds, indexed like the plan's obligation list.
    pub epsilons: Vec<f64>,
    /// Which tier produced each ε, indexed like `epsilons` (cache hits and
    /// in-flight joins report [`BoundTier::ColdSolve`]: every certificate
    /// comes from a cold solve). The differential analyzer names these per
    /// changed gate.
    pub tiers: Vec<BoundTier>,
    /// SDPs actually solved by this stage (Tier 0 answers are counted in
    /// `tier_counts.closed_form` instead).
    pub sdp_solves: usize,
    /// Judgments answered from the engine's cache (or by folding onto a
    /// solve this stage performed once).
    pub cache_hits: usize,
    /// Judgments deduplicated against an in-flight solve (a subset of
    /// `cache_hits`).
    pub inflight_dedup: usize,
    /// How each tier-answered judgment was produced.
    pub tier_counts: TierCounts,
    /// Interior-point iterations spent by this stage's solves.
    pub ip_iterations: usize,
    /// Aggregated per-phase solver timings across this stage's SDP solves
    /// (closed-form answers contribute nothing).
    pub solver_profile: SolverProfile,
    /// Threads that solved at least one unit (1 = the caller alone).
    pub solve_workers: usize,
    /// Wall-clock span of the stage's execution: first unit claimed →
    /// last unit finished. (Dispatch-to-join would over-report when the
    /// caller overlaps other work — e.g. the adaptive sweep planning the
    /// next width — before joining.)
    pub elapsed: Duration,
}

/// One schedulable solve: either a canonical cached judgment shared by
/// every obligation with its key, or a single exact-δ obligation.
enum Unit {
    /// Obligation indices sharing one cache key, in plan order.
    Keyed(Vec<usize>),
    /// A cache-bypassing obligation solved at its exact judgment.
    Exact(usize),
}

/// How a unit's value was obtained (drives the accounting).
enum UnitValue {
    /// This stage answered it with the Tier 0 closed form.
    ClosedForm(f64),
    /// This stage paid for a cold interior-point solve.
    Solved {
        eps: f64,
        iterations: usize,
        profile: SolverProfile,
    },
    /// A finished certificate answered it.
    CacheHit(f64),
    /// Another thread's in-flight solve answered it.
    Joined(f64),
}

/// A dispatched-but-not-joined solve stage. The caller may overlap other
/// work (the adaptive sweep plans its next MPS width here) before calling
/// [`PendingSolve::join`].
pub(crate) struct PendingSolve {
    pending: PendingRun<Option<UnitValue>>,
    units: Arc<Vec<Unit>>,
    n_obligations: usize,
    /// The stage's `solve` span (traced requests only), recorded at join.
    span: Option<telemetry::Span>,
    /// Whether keyed units went through the engine's cache (and so whether
    /// their folded followers count in its hit counters).
    use_cache: bool,
}

/// The pipeline's solve stage: folds obligations into units and
/// dispatches them over the pool under the walk's solver options and tier
/// policy. Opens the `solve` span (traced requests only), which every
/// obligation span parents under.
pub(crate) fn spawn_solve(
    h: &EngineHandle,
    obligations: Vec<SolveObligation>,
    walk: &Walk<'_>,
) -> PendingSolve {
    let span = telemetry::active().map(|c| telemetry::Span::start(c, telemetry::SpanName::Solve));
    let n_obligations = obligations.len();
    let mut units: Vec<Unit> = Vec::new();
    let mut by_key: HashMap<&[u64], usize> = HashMap::new();
    for (i, ob) in obligations.iter().enumerate() {
        match &ob.cached {
            Some(c) => match by_key.get(c.key.as_slice()) {
                Some(&u) => match &mut units[u] {
                    Unit::Keyed(obs) => obs.push(i),
                    Unit::Exact(_) => unreachable!("keyed units never alias exact ones"),
                },
                None => {
                    by_key.insert(c.key.as_slice(), units.len());
                    units.push(Unit::Keyed(vec![i]));
                }
            },
            None => units.push(Unit::Exact(i)),
        }
    }
    drop(by_key); // releases the borrow on `obligations`

    let units = Arc::new(units);
    let stage = Arc::new(Stage {
        shared: Arc::clone(&h.shared),
        units: Arc::clone(&units),
        obligations,
        opts: walk.opts,
        policy: walk.tiers,
        use_cache: walk.cache_enabled,
        // First failure cancels the units not yet claimed (the old
        // sequential walk stopped at its first failing gate; solving
        // hundreds of further SDPs just to report the same error would
        // waste minutes of CPU). Already-running units still finish —
        // leads always complete.
        cancelled: AtomicBool::new(false),
        // Captured once at dispatch: pool threads record their obligation
        // spans under the stage's span (the ambient context does not cross
        // threads). `dispatch_ns` turns claim time into per-unit pool
        // queue wait. Recording happens strictly *after* each unit's value
        // is computed — observation only, never an input.
        trace_ctx: span.as_ref().map(telemetry::Span::child_ctx),
        dispatch_ns: telemetry::now_ns(),
    });
    let pending = spawn_claiming(&h.pool, h.class, units.len(), move |claims| {
        stage.drive(claims)
    });
    PendingSolve {
        pending,
        units,
        n_obligations,
        span,
        use_cache: walk.cache_enabled,
    }
}

impl SolveObligation {
    /// A worst-case obligation: the unconstrained diamond norm of `gate`
    /// under its noisy channel, keyed by [`engine::key_unconstrained`]. Its
    /// judgment is `(0, 0)`: a zero ρ turns the input constraint into
    /// `tr(0·ρ_in) ≥ 0`, which every input meets, so [`pose`] asks
    /// [`rho_delta_problem`] for exactly the unconstrained problem.
    pub(crate) fn unconstrained(gate: CMat, noisy: Channel, opts: &SolverOptions) -> Self {
        let key = engine::key_unconstrained(&gate, noisy.kraus(), opts);
        let zero = CMat::zeros(gate.rows(), gate.cols());
        SolveObligation {
            gate_matrix: gate,
            noisy,
            rho_prime: zero.clone(),
            delta: 0.0,
            cached: Some(CachedJudgment {
                rho_q: zero,
                delta_eff: 0.0,
                key,
            }),
        }
    }
}

/// The one posing rule: an obligation's SDP is the `(ρ̂, δ)`-diamond
/// problem of its judgment — the quantized `(ρ_q, δ_eff)` when it has a
/// cache key (so the ε is recoverable from the key alone), its exact
/// `(ρ′, δ)` otherwise. A vacuous judgment poses the unconstrained problem.
fn pose(ob: &SolveObligation) -> Result<(SdpProblem, f64), DiamondError> {
    let (rho, delta) = match &ob.cached {
        Some(c) => (&c.rho_q, c.delta_eff),
        None => (&ob.rho_prime, ob.delta),
    };
    rho_delta_problem(&ob.gate_matrix, &ob.noisy, rho, delta)
}

/// Everything a participating thread needs to discharge the stage's units.
struct Stage {
    shared: Arc<EngineShared>,
    units: Arc<Vec<Unit>>,
    obligations: Vec<SolveObligation>,
    opts: SolverOptions,
    policy: TierPolicy,
    use_cache: bool,
    cancelled: AtomicBool,
    trace_ctx: Option<telemetry::TraceCtx>,
    dispatch_ns: u64,
}

/// How a claimed unit proceeds.
enum Start<'c> {
    /// Answered on the spot (closed form, cache hit, or a failure).
    Done(Result<UnitValue, AnalysisError>),
    /// Another thread leads this key; wait on the slot.
    Join(Arc<InflightSlot>),
    /// This thread solves it: the posed SDP and its lead.
    Solve(SdpProblem, Lead<'c>),
}

/// A lead solve riding in a lane: what its completion needs.
struct Lead<'c> {
    unit: usize,
    claim_ns: u64,
    /// When the solve entered its lane (its own wall time, for the
    /// `ip_solve_ms` histogram).
    started: Instant,
    trace_bound: f64,
    /// The cache lead for keyed units (`None` for exact units).
    guard: Option<LeadGuard<'c>>,
    dim: u32,
    n_kraus: u32,
}

impl Stage {
    /// One thread's share of the stage. Leads of the same shape fill the
    /// lanes of a [`SdpBatch`] (one batch per shape in hand), and the
    /// thread keeps claiming while every batch has a free lane — it never
    /// waits for a batch to fill. Each step advances every batch one
    /// interior-point iteration; a lane that finishes is published at once
    /// and refilled by the next claim. Joins on other threads' leads are
    /// only waited on once this thread holds no unpublished lead, so two
    /// threads leading each other's keys cannot deadlock.
    fn drive(&self, claims: &mut Claims<'_, Option<UnitValue>>) {
        let mut batches: Vec<SdpBatch<Lead<'_>>> = Vec::new();
        let mut joins: Vec<(usize, u64, Arc<InflightSlot>)> = Vec::new();
        let mut exhausted = false;
        loop {
            while !exhausted && !batches.iter().any(SdpBatch::is_full) {
                let Some(u) = claims.claim() else {
                    exhausted = true;
                    break;
                };
                let claim_ns = telemetry::now_ns();
                if self.cancelled.load(Ordering::Relaxed) {
                    claims.complete(u, Ok(None));
                    continue;
                }
                match self.start(u, claim_ns) {
                    Start::Done(outcome) => self.finish(claims, u, claim_ns, outcome),
                    Start::Join(slot) => joins.push((u, claim_ns, slot)),
                    Start::Solve(problem, lead) => {
                        // Join a running batch of this shape, else reuse
                        // an idle one, else open one.
                        let slot = batches
                            .iter()
                            .position(|b| !b.is_empty() && b.accepts(&problem))
                            .or_else(|| batches.iter().position(SdpBatch::is_empty));
                        match slot {
                            Some(b) => batches[b].push(problem, lead),
                            None => {
                                let mut batch = SdpBatch::new(self.opts);
                                batch.push(problem, lead);
                                batches.push(batch);
                            }
                        }
                    }
                }
            }
            if batches.iter().all(SdpBatch::is_empty) {
                break;
            }
            for batch in &mut batches {
                batch.step(|lead, result| self.finish_lead(claims, lead, result));
            }
        }
        for (u, claim_ns, slot) in joins {
            let outcome = slot
                .wait()
                .map(UnitValue::Joined)
                .map_err(AnalysisError::Diamond);
            self.finish(claims, u, claim_ns, outcome);
        }
    }

    /// Resolves a claimed unit as far as it goes without solving: the
    /// Tier 0 closed form, a cache hit, a join, or a posed lead SDP.
    fn start(&self, u: usize, claim_ns: u64) -> Start<'_> {
        let (ob, key) = match &self.units[u] {
            Unit::Exact(i) => (&self.obligations[*i], None),
            Unit::Keyed(obs) => {
                let ob = &self.obligations[obs[0]];
                let cached = ob.cached.as_ref().expect("keyed unit has a judgment");
                (ob, Some(cached.key.as_slice()))
            }
        };
        // A keyed unit of a request that bypasses the cache still folds its
        // obligations, but never touches the engine's cache.
        let cached = key
            .filter(|_| self.use_cache)
            .map(|key| (&self.shared.cache, key));
        // Tier 0 stays entirely outside the cache AND the in-flight
        // protocol: the analytic value is never published anywhere a
        // concurrent exact-policy request could observe it (joining an
        // in-flight slot included). A finished certificate still wins — it
        // is tighter (state-aware) and engine-consistent. Only the fast
        // policy has a closed form, so only it probes.
        if self.policy == TierPolicy::Fast && !cached.is_some_and(|(c, key)| c.contains(key)) {
            if let Some(eps) = closed_form_gate_bound(&ob.gate_matrix, &ob.noisy) {
                return Start::Done(Ok(UnitValue::ClosedForm(eps)));
            }
        }
        let guard = match cached.map(|(c, key)| c.lookup_or_lead(key)) {
            Some(Lookup::Hit(eps)) => return Start::Done(Ok(UnitValue::CacheHit(eps))),
            Some(Lookup::Join(slot)) => return Start::Join(slot),
            Some(Lookup::Lead(guard)) => Some(guard),
            None => None,
        };
        match pose(ob) {
            Ok((problem, trace_bound)) => Start::Solve(
                problem,
                Lead {
                    unit: u,
                    claim_ns,
                    started: Instant::now(),
                    trace_bound,
                    guard,
                    dim: ob.gate_matrix.rows() as u32,
                    n_kraus: ob.noisy.kraus().len() as u32,
                },
            ),
            Err(e) => {
                if let Some(guard) = guard {
                    guard.complete(Err(e.clone()));
                }
                Start::Done(Err(AnalysisError::Diamond(e)))
            }
        }
    }

    /// Publishes a finished lane: the certificate to the cache (waking any
    /// joiners) and the unit's value to the task set.
    fn finish_lead(
        &self,
        claims: &mut Claims<'_, Option<UnitValue>>,
        lead: Lead<'_>,
        result: Result<SdpSolution, SdpError>,
    ) {
        // Every actual interior-point solve feeds the global solve-time
        // histogram (tracing on or off) with its own wall time.
        telemetry::global()
            .ip_solve_ms
            .observe_ms(lead.started.elapsed().as_secs_f64() * 1e3);
        let outcome = match result
            .map_err(DiamondError::Solver)
            .and_then(|sol| diamond_result(sol, lead.trace_bound))
        {
            Ok(r) => {
                if let Some(guard) = lead.guard {
                    guard.complete(Ok(Certificate {
                        eps: r.bound,
                        dim: lead.dim,
                        n_kraus: lead.n_kraus,
                        dual: Arc::new(r.dual),
                    }));
                }
                Ok(UnitValue::Solved {
                    eps: r.bound,
                    iterations: r.iterations,
                    profile: r.profile,
                })
            }
            Err(e) => {
                if let Some(guard) = lead.guard {
                    guard.complete(Err(e.clone()));
                }
                Err(AnalysisError::Diamond(e))
            }
        };
        self.finish(claims, lead.unit, lead.claim_ns, outcome);
    }

    /// Records the unit's obligation span (traced requests only), notes a
    /// failure for cancellation, and delivers the unit's result.
    fn finish(
        &self,
        claims: &mut Claims<'_, Option<UnitValue>>,
        u: usize,
        claim_ns: u64,
        outcome: Result<UnitValue, AnalysisError>,
    ) {
        if let (Ok(value), Some(ctx)) = (&outcome, self.trace_ctx) {
            record_obligation_span(ctx, &self.units[u], value, self.dispatch_ns, claim_ns);
        }
        if outcome.is_err() {
            // The store is sequenced before this unit's result slot is
            // written, so by the time join() collects, the triggering
            // failure is always recorded alongside any skipped units.
            self.cancelled.store(true, Ordering::Relaxed);
        }
        claims.complete(u, outcome.map(Some));
    }
}

/// Records one obligation's span (`value` = pool queue-wait ns, `value2`
/// = IP iterations, `detail` = outcome code) and, when the unit paid for
/// an interior-point solve, re-emits the seven `SolverProfile` phases as
/// child spans laid out consecutively from the obligation's start. All of
/// it is post-hoc bookkeeping on the worker thread — the solver hot path
/// records nothing, and nothing here allocates beyond the ring writes.
fn record_obligation_span(
    ctx: telemetry::TraceCtx,
    unit: &Unit,
    value: &UnitValue,
    dispatch_ns: u64,
    claim_ns: u64,
) {
    use telemetry::detail as d;
    let (detail, iterations, profile) = match value {
        UnitValue::ClosedForm(_) => match unit {
            Unit::Exact(_) => (d::OBLIGATION_CLOSED_FORM, 0, None),
            Unit::Keyed(_) => (d::OBLIGATION_ANALYTIC, 0, None),
        },
        UnitValue::Solved {
            iterations,
            profile,
            ..
        } => {
            let detail = match unit {
                Unit::Exact(_) => d::OBLIGATION_EXACT,
                Unit::Keyed(_) => d::OBLIGATION_LEAD_COLD,
            };
            (detail, *iterations, Some(profile))
        }
        UnitValue::CacheHit(..) => (d::OBLIGATION_CACHE_HIT, 0, None),
        UnitValue::Joined(..) => (d::OBLIGATION_JOINED, 0, None),
    };
    let span_id = telemetry::next_span_id();
    telemetry::record_span(
        ctx,
        telemetry::SpanName::Obligation,
        span_id,
        claim_ns,
        telemetry::now_ns(),
        detail,
        claim_ns.saturating_sub(dispatch_ns),
        iterations as u64,
    );
    if let Some(profile) = profile {
        let child = telemetry::TraceCtx {
            trace_id: ctx.trace_id,
            parent: span_id,
        };
        let mut t = claim_ns;
        for (i, (_, ms)) in profile.phases().iter().enumerate() {
            let end = t + (ms * 1e6) as u64;
            telemetry::record_span(
                child,
                telemetry::SpanName::phase(i),
                telemetry::next_span_id(),
                t,
                end,
                0,
                0,
                0,
            );
            t = end;
        }
    }
}

impl PendingSolve {
    /// Joins the stage: the calling thread claims remaining units, then
    /// the results are folded back into per-obligation ε's and stats.
    /// Records the `solve` span and observes the stage's own wall (first
    /// claim → last unit) in the `solve_ms` histogram.
    ///
    /// # Errors
    ///
    /// The error of the earliest failing obligation (in plan order) among
    /// the units that ran — with a sequential pool this is exactly the old
    /// walk's first-failure, since the first failure cancels everything
    /// after it.
    pub(crate) fn join(self, h: &EngineHandle) -> Result<SolveOutcome, AnalysisError> {
        let out = self.pending.join();
        telemetry::global().solve_ms.observe_duration(out.elapsed);
        if let Some(span) = self.span {
            span.end();
        }
        let mut epsilons = vec![0.0f64; self.n_obligations];
        let mut tiers = vec![BoundTier::ColdSolve; self.n_obligations];
        let mut sdp_solves = 0usize;
        let mut cache_hits = 0usize;
        let mut inflight_dedup = 0usize;
        let mut tier_counts = TierCounts::default();
        let mut ip_iterations = 0usize;
        let mut solver_profile = SolverProfile::default();
        // Followers were answered without a lookup of their own; the
        // engine's counters see them only when the stage used its cache.
        let note_followers = |hits: usize, dedup: usize| {
            if self.use_cache {
                h.cache().note_follower_hits(hits);
                h.cache().note_inflight_dedup(dedup);
            }
        };
        // (first failing obligation index, its error)
        let mut failure: Option<(usize, AnalysisError)> = None;
        for (unit, result) in self.units.iter().zip(out.results) {
            let (first, followers): (usize, &[usize]) = match unit {
                Unit::Exact(i) => (*i, &[]),
                Unit::Keyed(obs) => (obs[0], &obs[1..]),
            };
            match result {
                // A unit skipped by cancellation: the triggering failure
                // is recorded in another slot, and the whole outcome is
                // discarded on the error path — nothing to fold in.
                Ok(None) => {}
                Ok(Some(value)) => {
                    let (eps, tier) = match value {
                        UnitValue::ClosedForm(eps) => {
                            // Tier 0 judgments (and their folded
                            // duplicates) are their own accounting
                            // category — the cache was never consulted
                            // for the answer.
                            tier_counts.closed_form += 1 + followers.len();
                            (eps, BoundTier::ClosedForm)
                        }
                        UnitValue::Solved {
                            eps,
                            iterations,
                            profile,
                        } => {
                            sdp_solves += 1;
                            ip_iterations += iterations;
                            solver_profile.add(&profile);
                            tier_counts.cold += 1;
                            // Followers replay the sequential accounting:
                            // the first occurrence paid the certificate,
                            // the rest are cache hits deduped against the
                            // solve in flight.
                            cache_hits += followers.len();
                            inflight_dedup += followers.len();
                            note_followers(followers.len(), followers.len());
                            (eps, BoundTier::ColdSolve)
                        }
                        UnitValue::CacheHit(eps) => {
                            cache_hits += 1 + followers.len();
                            note_followers(followers.len(), 0);
                            (eps, BoundTier::ColdSolve)
                        }
                        UnitValue::Joined(eps) => {
                            cache_hits += 1 + followers.len();
                            inflight_dedup += 1 + followers.len();
                            note_followers(followers.len(), followers.len());
                            (eps, BoundTier::ColdSolve)
                        }
                    };
                    epsilons[first] = eps;
                    tiers[first] = tier;
                    for &i in followers {
                        epsilons[i] = eps;
                        tiers[i] = tier;
                    }
                }
                Err(e) => {
                    if failure.as_ref().map_or(true, |(i, _)| first < *i) {
                        failure = Some((first, e));
                    }
                }
            }
        }
        if let Some((_, e)) = failure {
            return Err(e);
        }
        h.shared.tiers.note(tier_counts, ip_iterations);
        Ok(SolveOutcome {
            epsilons,
            tiers,
            sdp_solves,
            cache_hits,
            inflight_dedup,
            tier_counts,
            ip_iterations,
            solver_profile,
            solve_workers: out.participants,
            elapsed: out.elapsed,
        })
    }
}
