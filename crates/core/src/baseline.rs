//! Baseline analyses the paper compares against (Table 2):
//!
//! * [`Method::WorstCase`](crate::Method::WorstCase) — the unconstrained
//!   diamond norm summed over all gates (§2.3's worst-case analysis; for
//!   the paper's bit-flip model this is exactly `gate_count × p`);
//! * [`Method::LqrFullSim`](crate::Method::LqrFullSim) — LQR [24]
//!   instantiated with the best predicate obtainable from *full
//!   simulation*: the exact intermediate state is computed with the dense
//!   density-matrix simulator and each gate is bounded by the
//!   `(ρ_exact, 0)`-diamond norm. Exponential in qubits — the paper
//!   reports it timing out beyond 10 qubits.
//!
//! Worst-case certificates live in the owning engine's shared cache (an
//! unconstrained diamond norm depends only on the gate, its noise channel,
//! and the solver options), so a batch of worst-case requests over related
//! programs solves each distinct `(gate, channel)` pair once.

use crate::diamond::rho_delta_diamond;
use crate::engine::{self, EngineHandle};
use crate::request::AnalysisRequest;
use crate::tiers::{closed_form_gate_bound, TierCounts};
use crate::{unconstrained_diamond, AnalysisError};
use gleipnir_circuit::Gate;
use gleipnir_linalg::CMat;
use gleipnir_sdp::SolverOptions;
use gleipnir_sim::DensityMatrix;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The worst-case (unconstrained diamond norm) analysis report.
#[derive(Clone, Debug)]
pub struct WorstCaseReport {
    /// The summed bound (not clamped; trace-distance semantics cap at 1).
    pub total: f64,
    /// Number of gates analyzed.
    pub gate_count: usize,
    /// Distinct (gate, channel) SDPs solved (the rest were cache hits or
    /// closed forms).
    pub sdp_solves: usize,
    /// Gate bounds answered from the engine's shared cache (including
    /// repeats within this program).
    pub cache_hits: usize,
    /// How the bound engine's tiers answered the gates. Worst case is the
    /// one method where Tier 0 is *lossless*: the unconstrained diamond
    /// norm is exactly what the closed form certifies, so under
    /// [`crate::TierPolicy::Fast`] every Pauli-type gate skips its SDP
    /// with no extra looseness.
    pub tier_counts: TierCounts,
    /// Interior-point iterations the analysis's SDP solves spent.
    pub ip_iterations: usize,
    /// Aggregated per-phase solver timings across the analysis's SDP
    /// solves (all-zero when every gate was closed-form or cached).
    pub solver_profile: gleipnir_sdp::SolverProfile,
    /// Wall-clock time of the analysis.
    pub elapsed: Duration,
}

impl WorstCaseReport {
    /// The bound clamped to the trace-distance range `[0, 1]` (the form
    /// quoted in the paper's §7.2).
    pub fn clamped(&self) -> f64 {
        self.total.min(1.0)
    }
}

/// The LQR-with-full-simulation baseline report.
#[derive(Clone, Debug)]
pub struct LqrReport {
    /// The summed per-gate `(ρ_exact, 0)`-diamond bounds.
    pub bound: f64,
    /// Number of gates analyzed (each one SDP solve; exact predicates are
    /// never cached).
    pub gate_count: usize,
    /// Wall-clock time of the analysis.
    pub elapsed: Duration,
}

/// Sums the unconstrained diamond norms of every noisy gate in the program
/// (branch bodies included — each gate's worst case is counted once, which
/// upper-bounds the per-path sum the logic would produce).
pub(crate) fn run_worst_case(
    h: &EngineHandle,
    request: &AnalysisRequest,
) -> Result<WorstCaseReport, AnalysisError> {
    let start = Instant::now();
    let opts = h.resolve_options(request);
    let shared = request.cache_enabled().then(|| h.cache());
    let noise = request.noise();

    // A per-run memo always dedups repeats inside this program; the
    // engine's shared cache (when enabled) additionally carries bounds
    // across requests.
    let tiers = request.tier_policy();
    // Local memo values remember how they were produced: a repeated
    // closed-form gate counts as closed form again (mirroring the solve
    // stage's follower accounting), a repeated solved/shared value as a
    // cache hit — so `gate_count = sdp_solves + cache_hits + closed_form`
    // holds here too.
    let mut local: HashMap<Vec<u64>, (f64, bool)> = HashMap::new();
    let mut total = 0.0;
    let mut gate_count = 0usize;
    let mut solves = 0usize;
    let mut cache_hits = 0usize;
    let mut tier_counts = TierCounts::default();
    let mut ip_iterations = 0usize;
    let mut solver_profile = gleipnir_sdp::SolverProfile::default();
    let mut err: Option<AnalysisError> = None;
    request.program().body().for_each_gate(&mut |g| {
        if err.is_some() {
            return;
        }
        gate_count += 1;
        let noisy = noise.noisy_gate(&g.gate, &g.qubits);
        let key = engine::key_unconstrained(&g.gate.matrix(), noisy.kraus(), &opts);
        if let Some(&(eps, analytic)) = local.get(&key) {
            if analytic {
                tier_counts.closed_form += 1;
            } else {
                cache_hits += 1;
            }
            total += eps;
            return;
        }
        if let Some(eps) = shared.and_then(|c| c.get(&key)) {
            cache_hits += 1;
            local.insert(key, (eps, false));
            total += eps;
            return;
        }
        // Tier 0: for the unconstrained norm the closed form is lossless
        // (it certifies exactly this quantity); never cached, like the
        // solve stage.
        if tiers == crate::TierPolicy::Fast {
            if let Some(eps) = closed_form_gate_bound(&g.gate.matrix(), &noisy) {
                tier_counts.closed_form += 1;
                local.insert(key, (eps, true));
                total += eps;
                return;
            }
        }
        match unconstrained_diamond(&g.gate.matrix(), &noisy, &opts) {
            Ok(r) => {
                solves += 1;
                tier_counts.cold += 1;
                ip_iterations += r.iterations;
                solver_profile.add(&r.profile);
                if let Some(c) = shared {
                    c.insert(
                        key.clone(),
                        crate::engine::Certificate {
                            eps: r.bound,
                            dim: g.gate.matrix().rows() as u32,
                            n_kraus: noisy.kraus().len() as u32,
                            dual: std::sync::Arc::new(r.dual),
                        },
                    );
                }
                local.insert(key, (r.bound, false));
                total += r.bound;
            }
            Err(e) => err = Some(e.into()),
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    h.shared.tiers.note(tier_counts, ip_iterations);
    Ok(WorstCaseReport {
        total,
        gate_count,
        sdp_solves: solves,
        cache_hits,
        tier_counts,
        ip_iterations,
        solver_profile,
        elapsed: start.elapsed(),
    })
}

/// LQR with a full-simulation predicate: exact intermediate states from the
/// dense density-matrix simulator, each gate bounded by the
/// `(ρ_exact_local, 0)`-diamond norm.
///
/// Only straight-line programs with basis inputs are supported (the paper's
/// Table 2 benchmarks are straight-line), and the register is limited to 12
/// qubits — beyond that the `4ⁿ` density matrix is the very blow-up the
/// paper's "timed out" column demonstrates.
pub(crate) fn run_lqr_full_sim(
    request: &AnalysisRequest,
    opts: &SolverOptions,
) -> Result<LqrReport, AnalysisError> {
    let input = request.input().as_basis().ok_or_else(|| {
        AnalysisError::Unsupported("LQR-full-sim baseline requires a basis input state".into())
    })?;
    let start = Instant::now();
    let program = request.program();
    if input.n_qubits() != program.n_qubits() {
        return Err(AnalysisError::WidthMismatch {
            input: input.n_qubits(),
            program: program.n_qubits(),
        });
    }
    if program.n_qubits() > 12 {
        return Err(AnalysisError::Unsupported(format!(
            "full simulation of {} qubits (the baseline the paper reports as timing out)",
            program.n_qubits()
        )));
    }
    let gates = program.straight_line_gates().ok_or_else(|| {
        AnalysisError::Unsupported("LQR-full-sim baseline handles straight-line programs".into())
    })?;

    let mut rho = DensityMatrix::from_basis(input);
    let mut bound = 0.0;
    for g in gates {
        let qubits: Vec<usize> = g.qubits.iter().map(|q| q.0).collect();
        let rho_prime = exact_local_density(&rho, &qubits);
        let noisy = request.noise().noisy_gate(&g.gate, &g.qubits);
        let r = rho_delta_diamond(&g.gate.matrix(), &noisy, &rho_prime, 0.0, opts)?;
        bound += r.bound;
        rho.apply_gate(&g.gate, &g.qubits);
    }
    Ok(LqrReport {
        bound,
        gate_count: program.gate_count(),
        elapsed: start.elapsed(),
    })
}

/// The exact reduced density matrix on `qubits` in operand order.
fn exact_local_density(rho: &DensityMatrix, qubits: &[usize]) -> CMat {
    match qubits {
        [q] => rho.local_density(&[*q]),
        [a, b] => {
            let keep = [*a.min(b), *a.max(b)];
            let ordered = rho.local_density(&keep);
            if a < b {
                ordered
            } else {
                let sw = Gate::Swap.matrix();
                sw.mul_mat(&ordered).mul_mat(&sw)
            }
        }
        _ => unreachable!("gates have arity 1 or 2"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisRequest, Engine, Method, Report};
    use gleipnir_circuit::{Program, ProgramBuilder};
    use gleipnir_noise::NoiseModel;
    use gleipnir_sim::BasisState;

    fn worst_case(program: &Program, noise: &NoiseModel) -> WorstCaseReport {
        let engine = Engine::new();
        let request = AnalysisRequest::builder(program.clone())
            .noise(noise.clone())
            .method(Method::WorstCase)
            .build()
            .unwrap();
        match engine.analyze(&request).unwrap() {
            Report::WorstCase(r) => r,
            other => panic!("expected worst-case report, got {}", other.method_name()),
        }
    }

    fn lqr(
        program: &Program,
        input: &BasisState,
        noise: &NoiseModel,
    ) -> Result<LqrReport, AnalysisError> {
        let engine = Engine::new();
        let request = AnalysisRequest::builder(program.clone())
            .input(input)
            .noise(noise.clone())
            .method(Method::LqrFullSim)
            .build()?;
        match engine.analyze(&request)? {
            Report::LqrFullSim(r) => Ok(r),
            other => panic!("expected LQR report, got {}", other.method_name()),
        }
    }

    fn state_aware_uncached(program: &Program, input: &BasisState, noise: &NoiseModel) -> f64 {
        let engine = Engine::new();
        let request = AnalysisRequest::builder(program.clone())
            .input(input)
            .noise(noise.clone())
            .method(Method::StateAware { mps_width: 16 })
            .cache(false)
            .build()
            .unwrap();
        engine.analyze(&request).unwrap().error_bound()
    }

    #[test]
    fn worst_case_is_gate_count_times_p() {
        // The paper's closed form for the bit-flip model.
        let p = 1e-4;
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).cnot(1, 2).rx(0, 0.3).rzz(0, 2, 0.9);
        let report = worst_case(&b.build(), &NoiseModel::uniform_bit_flip(p));
        assert_eq!(report.gate_count, 5);
        assert!(
            (report.total - 5.0 * p).abs() < 5.0 * p * 1e-3,
            "{}",
            report.total
        );
        // Only a few distinct (gate, channel) pairs were solved.
        assert!(report.sdp_solves <= 5);
    }

    #[test]
    fn worst_case_fast_policy_answers_pauli_gates_analytically() {
        // Worst case is exactly the unconstrained norm the Tier 0 closed
        // form certifies, so under the fast policy a Pauli noise model
        // needs zero SDPs — and leaves no trace in the shared cache.
        let p = 1e-4;
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).cnot(1, 2).rx(0, 0.3).rzz(0, 2, 0.9);
        let engine = Engine::new();
        let request = AnalysisRequest::builder(b.build())
            .noise(NoiseModel::uniform_bit_flip(p))
            .method(Method::WorstCase)
            .tiering(crate::TierPolicy::Fast)
            .build()
            .unwrap();
        let report = match engine.analyze(&request).unwrap() {
            Report::WorstCase(r) => r,
            other => panic!("expected worst-case report, got {}", other.method_name()),
        };
        assert_eq!(report.sdp_solves, 0);
        assert_eq!(report.ip_iterations, 0);
        assert_eq!(report.tier_counts.closed_form, report.gate_count);
        assert!(
            (report.total - 5.0 * p).abs() < 5.0 * p * 1e-3,
            "{}",
            report.total
        );
        assert_eq!(
            report.sdp_solves + report.cache_hits + report.tier_counts.closed_form,
            report.gate_count
        );
        assert_eq!(
            engine.cache_stats().entries,
            0,
            "closed forms are never cached"
        );
        assert_eq!(engine.tier_stats().closed_form, report.gate_count);
    }

    #[test]
    fn worst_case_clamps_at_one() {
        let mut b = ProgramBuilder::new(1);
        for _ in 0..30 {
            b.x(0);
        }
        let report = worst_case(&b.build(), &NoiseModel::uniform_bit_flip(0.2));
        assert!(report.total > 1.0);
        assert_eq!(report.clamped(), 1.0);
        // 29 of the 30 identical gates came from the cache.
        assert_eq!(report.sdp_solves, 1);
        assert_eq!(report.cache_hits, 29);
    }

    #[test]
    fn lqr_full_sim_matches_gleipnir_on_small_programs() {
        // The paper's §7.1 observation: for small programs Gleipnir's bounds
        // equal the full-simulation LQR bounds (the MPS is exact there).
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).rx(2, 0.8).rzz(1, 2, 0.5).cnot(0, 2);
        let p = b.build();
        let noise = NoiseModel::uniform_bit_flip(1e-4);
        let input = BasisState::zeros(3);
        let lqr = lqr(&p, &input, &noise).unwrap();
        let gleipnir = state_aware_uncached(&p, &input, &noise);
        assert!(
            (gleipnir - lqr.bound).abs() < 1e-6,
            "gleipnir {gleipnir} vs lqr {}",
            lqr.bound
        );
        assert_eq!(lqr.gate_count, 5);
    }

    #[test]
    fn gleipnir_bound_never_exceeds_worst_case() {
        let mut b = ProgramBuilder::new(4);
        b.h(0).h(1).cnot(0, 1).cnot(2, 3).rx(3, 1.0).rzz(1, 2, 0.6);
        let p = b.build();
        let noise = NoiseModel::uniform_bit_flip(1e-3);
        let worst = worst_case(&p, &noise);
        let engine = Engine::new();
        let request = AnalysisRequest::builder(p.clone())
            .noise(noise.clone())
            .method(Method::StateAware { mps_width: 8 })
            .build()
            .unwrap();
        let gleipnir = engine.analyze(&request).unwrap().error_bound();
        assert!(
            gleipnir <= worst.total + 1e-7,
            "{gleipnir} > {}",
            worst.total
        );
    }

    #[test]
    fn lqr_rejects_branching_and_large_programs() {
        let mut b = ProgramBuilder::new(2);
        b.if_measure(0, |_| {}, |_| {});
        let err = lqr(&b.build(), &BasisState::zeros(2), &NoiseModel::Noiseless).unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)));

        let big = ProgramBuilder::new(13).build();
        let err = lqr(&big, &BasisState::zeros(13), &NoiseModel::Noiseless).unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)));
    }
}
