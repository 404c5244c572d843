//! The tiered bound engine's vocabulary: which tier answered a judgment,
//! what a request allows, and the counters that flow into reports,
//! `--json` output, and the server's `/metrics`.
//!
//! A per-gate `(ρ̂, δ)`-diamond judgment can be answered two ways (see
//! `docs/PERFORMANCE.md` for the decision tree and `docs/SOUNDNESS.md`
//! for why each is sound):
//!
//! * **Tier 0 — closed form** ([`BoundTier::ClosedForm`]): the noisy
//!   gate's residual channel classifies as Pauli-type
//!   ([`gleipnir_noise::classify_residual`]) and the certified analytic
//!   bound substitutes for the SDP. Zero interior-point iterations; the
//!   answer ignores `(ρ̂, δ)` and is therefore an upper bound on the
//!   constrained optimum by monotonicity.
//! * **Cold solve** ([`BoundTier::ColdSolve`]): the full
//!   interior-point solve from the standard cold start.
//!
//! Tier 0 is **opt-in per request** ([`TierPolicy::Fast`]; the default is
//! [`TierPolicy::Exact`]): it changes the produced ε at the bit level
//! (sound either way), and the default must preserve the engine's
//! bit-exactness contract (`tests/pipeline_determinism.rs`). The closed
//! form is a pure function of the gate and its channel, so pool size never
//! changes the answer under either policy.

use gleipnir_linalg::CMat;
use gleipnir_noise::{classify_residual, Channel};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How a single bound was produced (carried by
/// [`DiamondResult`](crate::DiamondResult) and the cache's certificates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundTier {
    /// Certified analytic closed form (Pauli-type residual channel).
    ClosedForm,
    /// Interior-point solve from the standard cold start.
    ColdSolve,
}

impl BoundTier {
    /// A stable machine-readable tier name.
    pub fn name(&self) -> &'static str {
        match self {
            BoundTier::ClosedForm => "closed_form",
            BoundTier::ColdSolve => "cold",
        }
    }
}

/// Which tiers a request may use (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TierPolicy {
    /// Cold solves only (the default): bit-identical to the pre-tiering
    /// engine.
    #[default]
    Exact,
    /// Tier 0 closed forms where provable, cold solves otherwise.
    Fast,
}

/// Per-request tier accounting: how many gate judgments each tier
/// answered. Flows into [`Report`](crate::Report), the CLI's `--json`
/// output, and the server's `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Judgments answered by the Tier 0 closed form (including duplicates
    /// folded onto one classification).
    pub closed_form: usize,
    /// SDPs solved cold.
    pub cold: usize,
}

impl TierCounts {
    /// Total judgments the tiers answered (cache hits excluded).
    pub fn total(&self) -> usize {
        self.closed_form + self.cold
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: TierCounts) {
        self.closed_form += other.closed_form;
        self.cold += other.cold;
    }
}

/// Engine-lifetime tier totals (a [`TierCounts`] plus cumulative
/// interior-point iteration work), served by
/// [`Engine::tier_stats`](crate::Engine::tier_stats) and the server's
/// `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Judgments answered by the closed form.
    pub closed_form: usize,
    /// Cold SDP solves.
    pub cold: usize,
    /// Interior-point iterations spent across all solves — the currency
    /// the closed form saves.
    pub ip_iterations: usize,
}

/// The atomics behind [`TierStats`] (relaxed: advisory counters only).
#[derive(Debug, Default)]
pub(crate) struct TierTotals {
    closed_form: AtomicUsize,
    cold: AtomicUsize,
    ip_iterations: AtomicUsize,
}

impl TierTotals {
    pub(crate) fn note(&self, counts: TierCounts, ip_iterations: usize) {
        let add = |a: &AtomicUsize, n: usize| {
            if n > 0 {
                a.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&self.closed_form, counts.closed_form);
        add(&self.cold, counts.cold);
        add(&self.ip_iterations, ip_iterations);
    }

    pub(crate) fn snapshot(&self) -> TierStats {
        TierStats {
            closed_form: self.closed_form.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
            ip_iterations: self.ip_iterations.load(Ordering::Relaxed),
        }
    }
}

/// The Tier 0 gate answer: the certified closed-form upper bound on
/// `½‖Ũ − U‖⋄` when the noisy gate's residual channel is Pauli-type,
/// `None` otherwise. Sound for any `(ρ̂, δ)` constraint by monotonicity
/// (the constrained diamond norm never exceeds the unconstrained one).
pub(crate) fn closed_form_gate_bound(ideal: &CMat, noisy: &Channel) -> Option<f64> {
    classify_residual(ideal, noisy.kraus()).closed_form_diamond_bound()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_circuit::Gate;

    #[test]
    fn policy_constructors() {
        assert_eq!(TierPolicy::default(), TierPolicy::Exact);
    }

    #[test]
    fn closed_form_applies_to_pauli_noise_only() {
        let pauli = Channel::bit_flip(1e-3).after_unitary(&Gate::H.matrix());
        let bound = closed_form_gate_bound(&Gate::H.matrix(), &pauli).expect("Pauli closed form");
        assert!((bound - 1e-3).abs() < 1e-9);

        let damp = Channel::amplitude_damping(0.2).after_unitary(&Gate::H.matrix());
        assert!(closed_form_gate_bound(&Gate::H.matrix(), &damp).is_none());
    }

    #[test]
    fn counts_accumulate() {
        let mut a = TierCounts {
            closed_form: 1,
            cold: 3,
        };
        a.add(TierCounts {
            closed_form: 10,
            cold: 1,
        });
        assert_eq!(a.total(), 15);
        let totals = TierTotals::default();
        totals.note(a, 42);
        let snap = totals.snapshot();
        assert_eq!(snap.closed_form, 11);
        assert_eq!(snap.cold, 4);
        assert_eq!(snap.ip_iterations, 42);
    }
}
