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
//! Both are plan walks of their own that hand one obligation per gate to
//! the solve stage ([`crate::solve`]), exactly like the state-aware
//! pipeline: the stage owns the cache protocol, the tier decision, the
//! accounting, the pool's lanes and the `solve` / `obligation` spans.
//! Worst-case obligations are keyed by the unconstrained content address
//! (an unconstrained diamond norm depends only on the gate, its noise
//! channel, and the solver options), so repeats inside a request fold onto
//! one solve, and a batch of worst-case requests over related programs
//! solves each distinct `(gate, channel)` pair once. LQR obligations are
//! exact and uncached, and always run under [`TierPolicy::Exact`].

use crate::engine::EngineHandle;
use crate::plan::{SolveObligation, Walk};
use crate::request::AnalysisRequest;
use crate::solve::{spawn_solve, SolveOutcome};
use crate::tiers::{TierCounts, TierPolicy};
use crate::AnalysisError;
use gleipnir_circuit::Gate;
use gleipnir_linalg::CMat;
use gleipnir_sdp::SolverProfile;
use gleipnir_sim::DensityMatrix;
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
    pub solver_profile: SolverProfile,
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
    /// How the gates were answered: all cold solves (LQR ignores the
    /// request's tier policy).
    pub tier_counts: TierCounts,
    /// Interior-point iterations the analysis's SDP solves spent.
    pub ip_iterations: usize,
    /// Aggregated per-phase solver timings across the analysis's SDP
    /// solves.
    pub solver_profile: SolverProfile,
    /// Wall-clock time of the analysis.
    pub elapsed: Duration,
}

/// The sum of the solved ε's in gate order.
fn total(solved: &SolveOutcome) -> f64 {
    solved.epsilons.iter().fold(0.0, |sum, eps| sum + eps)
}

/// Sums the unconstrained diamond norms of every noisy gate in the program
/// (branch bodies included — each gate's worst case is counted once, which
/// upper-bounds the per-path sum the logic would produce).
pub(crate) fn run_worst_case(
    h: &EngineHandle,
    request: &AnalysisRequest,
) -> Result<WorstCaseReport, AnalysisError> {
    let start = Instant::now();
    let walk = Walk::of(h, request);
    let mut obligations = Vec::new();
    request.program().body().for_each_gate(&mut |g| {
        let noisy = walk.noise.noisy_gate(&g.gate, &g.qubits);
        obligations.push(SolveObligation::unconstrained(
            g.gate.matrix(),
            noisy,
            &walk.opts,
        ));
    });
    let gate_count = obligations.len();
    let solved = spawn_solve(h, obligations, &walk).join(h)?;
    Ok(WorstCaseReport {
        total: total(&solved),
        gate_count,
        sdp_solves: solved.sdp_solves,
        cache_hits: solved.cache_hits,
        tier_counts: solved.tier_counts,
        ip_iterations: solved.ip_iterations,
        solver_profile: solved.solver_profile,
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
    h: &EngineHandle,
    request: &AnalysisRequest,
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

    let mut walk = Walk::of(h, request);
    walk.tiers = TierPolicy::Exact;
    let mut rho = DensityMatrix::from_basis(input);
    let mut obligations = Vec::with_capacity(gates.len());
    for g in gates {
        let qubits: Vec<usize> = g.qubits.iter().map(|q| q.0).collect();
        obligations.push(SolveObligation {
            gate_matrix: g.gate.matrix(),
            noisy: walk.noise.noisy_gate(&g.gate, &g.qubits),
            rho_prime: exact_local_density(&rho, &qubits),
            delta: 0.0,
            cached: None,
        });
        rho.apply_gate(&g.gate, &g.qubits);
    }
    let gate_count = obligations.len();
    let solved = spawn_solve(h, obligations, &walk).join(h)?;
    Ok(LqrReport {
        bound: total(&solved),
        gate_count,
        tier_counts: solved.tier_counts,
        ip_iterations: solved.ip_iterations,
        solver_profile: solved.solver_profile,
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
    fn lqr_reports_its_solver_work() {
        // LQR runs every gate as a cold solve, whatever the tier policy,
        // and its work reaches the report and the engine's totals.
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(1, 0).rx(1, 0.4);
        let engine = Engine::new();
        let request = AnalysisRequest::builder(b.build())
            .noise(NoiseModel::uniform_bit_flip(1e-3))
            .method(Method::LqrFullSim)
            .tiering(crate::TierPolicy::Fast)
            .build()
            .unwrap();
        let report = engine.analyze(&request).unwrap();
        let cold = TierCounts {
            closed_form: 0,
            cold: 3,
        };
        assert_eq!(report.tier_counts(), cold);
        assert!(report.ip_iterations() > 0);
        assert!(report.solver_profile().total_ms > 0.0);
        let totals = engine.tier_stats();
        assert_eq!((totals.closed_form, totals.cold), (0, 3));
        assert_eq!(totals.ip_iterations, report.ip_iterations());
    }

    #[test]
    fn traced_baselines_record_one_solve_span_with_an_obligation_per_unit() {
        use gleipnir_telemetry::{self as telemetry, SpanName};
        let mut b = ProgramBuilder::new(2);
        b.h(0).h(1).cnot(0, 1).h(0).cnot(1, 0);
        let program = b.build();
        let engine = Engine::new();
        // Worst case folds the five gates onto two units (h, cnot); LQR
        // solves each gate.
        for (method, units) in [(Method::WorstCase, 2), (Method::LqrFullSim, 5)] {
            let request = AnalysisRequest::builder(program.clone())
                .noise(NoiseModel::uniform_amplitude_damping(0.01))
                .method(method.clone())
                .cache(false)
                .build()
                .unwrap();
            let trace_id = telemetry::next_trace_id();
            let ctx = telemetry::TraceCtx {
                trace_id,
                parent: telemetry::next_span_id(),
            };
            telemetry::with_ctx(ctx, || engine.analyze(&request)).unwrap();
            telemetry::global().finish_trace(trace_id);
            let spans = telemetry::global().trace(trace_id).unwrap().spans;
            let solves: Vec<_> = spans.iter().filter(|s| s.name == SpanName::Solve).collect();
            assert_eq!(solves.len(), 1, "{}", method.name());
            let obligations = spans
                .iter()
                .filter(|s| s.name == SpanName::Obligation && s.parent == solves[0].id)
                .count();
            assert_eq!(obligations, units, "{}", method.name());
        }
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
