//! The unified analysis report: one enum for every method's output, with
//! common accessors so callers (CLI, batch consumers, benchmarks) can treat
//! reports uniformly and reach for method-specific extras only when they
//! need them.

use crate::adaptive::{AdaptiveReport, AdaptiveStep};
use crate::baseline::{LqrReport, WorstCaseReport};
use crate::logic::{Derivation, StageTimings, StateAwareReport};
use crate::tiers::TierCounts;
use gleipnir_sdp::SolverProfile;
use std::fmt;
use std::time::Duration;

/// The outcome of [`crate::Engine::analyze`], tagged by method.
#[derive(Clone, Debug)]
pub enum Report {
    /// A state-aware `(ρ̂, δ)`-diamond analysis at a fixed MPS width.
    StateAware(StateAwareReport),
    /// An adaptive width search (carries the trajectory).
    Adaptive(AdaptiveReport),
    /// A worst-case (unconstrained diamond norm) analysis.
    WorstCase(WorstCaseReport),
    /// The LQR-with-full-simulation baseline.
    LqrFullSim(LqrReport),
}

impl Report {
    /// A stable machine-readable method name (matches
    /// [`crate::Method::name`]).
    pub fn method_name(&self) -> &'static str {
        match self {
            Report::StateAware(_) => "state_aware",
            Report::Adaptive(_) => "adaptive",
            Report::WorstCase(_) => "worst_case",
            Report::LqrFullSim(_) => "lqr_full_sim",
        }
    }

    /// The certified whole-program error bound ε. For worst case this is
    /// the unclamped total (use [`WorstCaseReport::clamped`] for the
    /// `[0, 1]` form); every other method's bound is its certified ε.
    pub fn error_bound(&self) -> f64 {
        match self {
            Report::StateAware(r) => r.error_bound(),
            Report::Adaptive(r) => r.report.error_bound(),
            Report::WorstCase(r) => r.total,
            Report::LqrFullSim(r) => r.bound,
        }
    }

    /// Wall-clock time of the analysis.
    pub fn elapsed(&self) -> Duration {
        match self {
            Report::StateAware(r) => r.elapsed(),
            Report::Adaptive(r) => r.elapsed,
            Report::WorstCase(r) => r.elapsed,
            Report::LqrFullSim(r) => r.elapsed,
        }
    }

    /// SDPs actually solved (for adaptive: summed over the trajectory).
    pub fn sdp_solves(&self) -> usize {
        match self {
            Report::StateAware(r) => r.sdp_solves(),
            Report::Adaptive(r) => r.trajectory.iter().map(|s| s.sdp_solves).sum(),
            Report::WorstCase(r) => r.sdp_solves,
            // Exact predicates are never cached: one solve per gate.
            Report::LqrFullSim(r) => r.gate_count,
        }
    }

    /// Judgments answered from the engine's shared cache (for adaptive:
    /// summed over the trajectory; 0 for LQR, which never caches).
    pub fn cache_hits(&self) -> usize {
        match self {
            Report::StateAware(r) => r.cache_hits(),
            Report::Adaptive(r) => r.trajectory.iter().map(|s| s.cache_hits).sum(),
            Report::WorstCase(r) => r.cache_hits,
            Report::LqrFullSim(_) => 0,
        }
    }

    /// Judgments deduplicated against an SDP solve that was still in
    /// flight — a duplicate within one solve stage, or a concurrent batch
    /// sibling racing on the same key (for adaptive: summed over the
    /// trajectory; 0 for methods that never hit the solve stage).
    pub fn inflight_dedup(&self) -> usize {
        match self {
            Report::StateAware(r) => r.inflight_dedup(),
            Report::Adaptive(r) => r.trajectory.iter().map(|s| s.inflight_dedup).sum(),
            _ => 0,
        }
    }

    /// How the bound engine's tiers answered the gate judgments (for
    /// adaptive: summed over the trajectory). Under the default
    /// [`crate::TierPolicy::Exact`] everything lands in
    /// [`TierCounts::cold`].
    pub fn tier_counts(&self) -> TierCounts {
        match self {
            Report::StateAware(r) => r.tier_counts(),
            Report::Adaptive(r) => {
                let mut total = TierCounts::default();
                for s in &r.trajectory {
                    total.add(s.tier_counts);
                }
                total
            }
            Report::WorstCase(r) => r.tier_counts,
            Report::LqrFullSim(r) => r.tier_counts,
        }
    }

    /// Interior-point iterations the analysis's SDP solves spent (for
    /// adaptive: summed over the trajectory).
    pub fn ip_iterations(&self) -> usize {
        match self {
            Report::StateAware(r) => r.ip_iterations(),
            Report::Adaptive(r) => r.trajectory.iter().map(|s| s.ip_iterations).sum(),
            Report::WorstCase(r) => r.ip_iterations,
            Report::LqrFullSim(r) => r.ip_iterations,
        }
    }

    /// Aggregated per-phase interior-point solver timings (for adaptive:
    /// summed over the trajectory; all-zero for analyses answered entirely
    /// by cache hits or closed forms). Phase times accumulate across solves that ran on
    /// several pool workers, so `total_ms` is solver CPU time rather than
    /// the analysis's wall clock.
    pub fn solver_profile(&self) -> SolverProfile {
        match self {
            Report::StateAware(r) => r.solver_profile(),
            Report::Adaptive(r) => {
                let mut total = SolverProfile::default();
                for s in &r.trajectory {
                    total.add(&s.solver_profile);
                }
                total
            }
            Report::WorstCase(r) => r.solver_profile,
            Report::LqrFullSim(r) => r.solver_profile,
        }
    }

    /// Per-stage (plan / solve / assemble) wall-clock breakdown, where the
    /// method runs the pipeline (for adaptive: the best width's timings).
    pub fn stage_timings(&self) -> Option<StageTimings> {
        match self {
            Report::StateAware(r) => Some(r.stage_timings()),
            Report::Adaptive(r) => Some(r.report.stage_timings()),
            _ => None,
        }
    }

    /// Threads that discharged at least one solve-stage unit, where the
    /// method runs the pipeline (for adaptive: the best width's count).
    pub fn solve_workers(&self) -> Option<usize> {
        match self {
            Report::StateAware(r) => Some(r.solve_workers()),
            Report::Adaptive(r) => Some(r.report.solve_workers()),
            _ => None,
        }
    }

    /// The MPS truncation error δ, where the method has one.
    pub fn tn_delta(&self) -> Option<f64> {
        match self {
            Report::StateAware(r) => Some(r.tn_delta()),
            Report::Adaptive(r) => Some(r.report.tn_delta()),
            _ => None,
        }
    }

    /// The derivation (proof) tree, where the method produces one.
    pub fn derivation(&self) -> Option<&Derivation> {
        match self {
            Report::StateAware(r) => Some(r.derivation()),
            Report::Adaptive(r) => Some(r.report.derivation()),
            _ => None,
        }
    }

    /// The adaptive trajectory, if this was an adaptive run.
    pub fn trajectory(&self) -> Option<&[AdaptiveStep]> {
        match self {
            Report::Adaptive(r) => Some(&r.trajectory),
            _ => None,
        }
    }

    /// The state-aware report, if this is one (for adaptive runs: the
    /// best-width report).
    pub fn as_state_aware(&self) -> Option<&StateAwareReport> {
        match self {
            Report::StateAware(r) => Some(r),
            Report::Adaptive(r) => Some(&r.report),
            _ => None,
        }
    }

    /// The adaptive report, if this is one.
    pub fn as_adaptive(&self) -> Option<&AdaptiveReport> {
        match self {
            Report::Adaptive(r) => Some(r),
            _ => None,
        }
    }

    /// The worst-case report, if this is one.
    pub fn as_worst_case(&self) -> Option<&WorstCaseReport> {
        match self {
            Report::WorstCase(r) => Some(r),
            _ => None,
        }
    }

    /// The LQR report, if this is one.
    pub fn as_lqr(&self) -> Option<&LqrReport> {
        match self {
            Report::LqrFullSim(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the report, returning the state-aware payload (for
    /// adaptive runs: the best-width report).
    pub fn into_state_aware(self) -> Option<StateAwareReport> {
        match self {
            Report::StateAware(r) => Some(r),
            Report::Adaptive(r) => Some(r.report),
            _ => None,
        }
    }

    /// Consumes the report, returning the adaptive payload.
    pub fn into_adaptive(self) -> Option<AdaptiveReport> {
        match self {
            Report::Adaptive(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Report::StateAware(r) => write!(f, "{r}"),
            Report::Adaptive(r) => {
                writeln!(
                    f,
                    "adaptive: settled on w = {} after {} widths ({:?})",
                    r.width,
                    r.trajectory.len(),
                    r.elapsed
                )?;
                for s in &r.trajectory {
                    writeln!(
                        f,
                        "  w = {:>4}: ε ≤ {:.6e}  (TN δ = {:.3e}, {} solves, {} cache hits)",
                        s.width, s.bound, s.tn_delta, s.sdp_solves, s.cache_hits
                    )?;
                }
                write!(f, "{}", r.report)
            }
            Report::WorstCase(r) => write!(
                f,
                "worst-case bound: {:.6e} over {} gates ({} SDP solves, {} cache hits); clamped: {:.6e}",
                r.total,
                r.gate_count,
                r.sdp_solves,
                r.cache_hits,
                r.clamped()
            ),
            Report::LqrFullSim(r) => write!(
                f,
                "LQR-full-sim bound: {:.6e} over {} gates ({:?})",
                r.bound, r.gate_count, r.elapsed
            ),
        }
    }
}
