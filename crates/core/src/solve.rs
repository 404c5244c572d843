//! Stage 2 of the analysis pipeline: the **solve** stage, now fronted by
//! the tiered bound engine.
//!
//! Takes the plan's flat obligation list and discharges every `(ρ̂, δ)`-
//! diamond judgment, fanning the work over the engine's worker pool (the
//! submitting thread participates too — see [`crate::pool`]). Under the
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
//! * **cold solve** — the classic interior-point solve.
//!
//! ## Deduplication, determinism, and accounting
//!
//! Obligations are first folded into **units**: all obligations sharing a
//! cache key become one unit (solved once — its value is *canonical*: the
//! quantized judgment `(ρ_q, δ_eff)` is recoverable from the key alone, so
//! whichever thread solves it produces bit-identical ε), and each uncached
//! obligation is its own unit (solved at its exact `(ρ′, δ)`). Unit
//! results are written back by obligation index, so **the ε vector, the
//! derivation assembled from it, and the `sdp_solves`/`cache_hits`
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

use crate::diamond::rho_delta_diamond;
use crate::engine::{Certificate, EngineHandle, Lookup};
use crate::error::AnalysisError;
use crate::plan::SolveObligation;
use crate::pool::{spawn_indexed, PendingRun};
use crate::tiers::{closed_form_gate_bound, note_engine_totals, BoundTier, TierCounts, TierPolicy};
use gleipnir_sdp::{SolverOptions, SolverProfile};
use gleipnir_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The solve stage's result: one ε per obligation (in plan order) plus the
/// accounting the report surfaces.
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
}

/// Folds obligations into units and dispatches them over the pool.
pub(crate) fn spawn_solve(
    h: &EngineHandle,
    obligations: Vec<SolveObligation>,
    opts: SolverOptions,
    policy: TierPolicy,
) -> PendingSolve {
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
    let obligations = Arc::new(obligations);
    let shared = Arc::clone(&h.shared);
    let task_units = Arc::clone(&units);
    // First failure cancels the units not yet claimed (the old sequential
    // walk stopped at its first failing gate; solving hundreds of further
    // SDPs just to report the same error would waste minutes of CPU).
    // Already-running units still finish — leads always complete.
    let cancelled = Arc::new(AtomicBool::new(false));
    // Captured once at dispatch: pool threads record their obligation
    // spans against the submitting request's trace (the ambient context
    // does not cross threads). `dispatch_ns` turns claim time into
    // per-unit pool queue wait. Recording happens strictly *after* each
    // unit's value is computed — observation only, never an input.
    let trace_ctx = telemetry::active();
    let dispatch_ns = telemetry::now_ns();
    let pending = spawn_indexed(&h.pool, h.class, units.len(), move |u| {
        if cancelled.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let claim_ns = telemetry::now_ns();
        let closed_form = |ob: &SolveObligation| -> Option<f64> {
            (policy == TierPolicy::Fast)
                .then(|| closed_form_gate_bound(&ob.gate_matrix, &ob.noisy))
                .flatten()
        };
        let outcome = match &task_units[u] {
            Unit::Exact(i) => {
                let ob = &obligations[*i];
                match closed_form(ob) {
                    Some(eps) => Ok(UnitValue::ClosedForm(eps)),
                    None => rho_delta_diamond(
                        &ob.gate_matrix,
                        &ob.noisy,
                        &ob.rho_prime,
                        ob.delta,
                        &opts,
                    )
                    .map(|r| UnitValue::Solved {
                        eps: r.bound,
                        iterations: r.iterations,
                        profile: r.profile,
                    })
                    .map_err(AnalysisError::from),
                }
            }
            Unit::Keyed(obs) => {
                let ob = &obligations[obs[0]];
                let cached = ob.cached.as_ref().expect("keyed unit has a judgment");
                // Tier 0 stays entirely outside the cache AND the in-flight
                // protocol: the analytic value is never published anywhere a
                // concurrent exact-policy request could observe it (joining
                // an in-flight slot included). A finished certificate still
                // wins — it is tighter (state-aware) and engine-consistent.
                let analytic = if shared.cache.contains(&cached.key) {
                    None
                } else {
                    closed_form(ob)
                };
                if let Some(eps) = analytic {
                    Ok(UnitValue::ClosedForm(eps))
                } else {
                    match shared.cache.lookup_or_lead(&cached.key) {
                        Lookup::Hit(eps) => Ok(UnitValue::CacheHit(eps)),
                        Lookup::Join(slot) => slot
                            .wait()
                            .map(UnitValue::Joined)
                            .map_err(AnalysisError::Diamond),
                        Lookup::Lead(guard) => match rho_delta_diamond(
                            &ob.gate_matrix,
                            &ob.noisy,
                            &cached.rho_q,
                            cached.delta_eff,
                            &opts,
                        ) {
                            Ok(r) => {
                                guard.complete(Ok(Certificate {
                                    eps: r.bound,
                                    dim: ob.gate_matrix.rows() as u32,
                                    n_kraus: ob.noisy.kraus().len() as u32,
                                    dual: Arc::new(r.dual),
                                }));
                                Ok(UnitValue::Solved {
                                    eps: r.bound,
                                    iterations: r.iterations,
                                    profile: r.profile,
                                })
                            }
                            Err(e) => {
                                guard.complete(Err(e.clone()));
                                Err(AnalysisError::Diamond(e))
                            }
                        },
                    }
                }
            }
        };
        if let Ok(value) = &outcome {
            // Every actual interior-point solve feeds the global solve-
            // time histogram (tracing on or off); the obligation span and
            // its re-emitted solver-phase children only exist for traced
            // requests.
            if let UnitValue::Solved { profile, .. } = value {
                telemetry::global().ip_solve_ms.observe_ms(profile.total_ms);
            }
            if let Some(ctx) = trace_ctx {
                record_obligation_span(ctx, &task_units[u], value, dispatch_ns, claim_ns);
            }
        }
        if outcome.is_err() {
            // The store is sequenced before this task's result slot is
            // written, so by the time join() collects, the triggering
            // failure is always recorded alongside any skipped units.
            cancelled.store(true, Ordering::Relaxed);
        }
        outcome.map(Some)
    });
    PendingSolve {
        pending,
        units,
        n_obligations,
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
    ///
    /// # Errors
    ///
    /// The error of the earliest failing obligation (in plan order) among
    /// the units that ran — with a sequential pool this is exactly the old
    /// walk's first-failure, since the first failure cancels everything
    /// after it.
    pub(crate) fn join(self, h: &EngineHandle) -> Result<SolveOutcome, AnalysisError> {
        let out = self.pending.join();
        let mut epsilons = vec![0.0f64; self.n_obligations];
        let mut tiers = vec![BoundTier::ColdSolve; self.n_obligations];
        let mut sdp_solves = 0usize;
        let mut cache_hits = 0usize;
        let mut inflight_dedup = 0usize;
        let mut tier_counts = TierCounts::default();
        let mut ip_iterations = 0usize;
        let mut solver_profile = SolverProfile::default();
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
                            h.cache().note_follower_hits(followers.len());
                            h.cache().note_inflight_dedup(followers.len());
                            (eps, BoundTier::ColdSolve)
                        }
                        UnitValue::CacheHit(eps) => {
                            cache_hits += 1 + followers.len();
                            h.cache().note_follower_hits(followers.len());
                            (eps, BoundTier::ColdSolve)
                        }
                        UnitValue::Joined(eps) => {
                            cache_hits += 1 + followers.len();
                            inflight_dedup += 1 + followers.len();
                            h.cache().note_follower_hits(followers.len());
                            h.cache().note_inflight_dedup(followers.len());
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
        note_engine_totals(h, tier_counts, ip_iterations);
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
