//! Stage 3 of the analysis pipeline: the **assemble** pass.
//!
//! A strictly sequential stitch: solved ε's (one per obligation, in the
//! solve stage's index order) are written back into the plan skeleton's
//! Gate nodes in pre-order. Because the plan pass emits obligations in
//! exactly skeleton pre-order (see [`crate::plan`]), the assembled tree is
//! **bit-for-bit identical** to what the old monolithic sequential walk
//! produced — same structure, same stored `(ρ′, δ)` judgments, same ε's —
//! so [`crate::StateAwareReport::replay`] remains sound and derivation
//! pretty-prints are stable across pool sizes.

use crate::logic::{Derivation, StageTimings, StateAwareReport};
use crate::plan::Plan;
use crate::solve::SolveOutcome;
use gleipnir_telemetry::{self as telemetry, SpanName};
use std::time::Instant;

/// The pipeline's assemble stage: stitches solved ε's into the plan's
/// skeleton and packages the report (the plan's obligations were already
/// handed to the solve stage). Records the `assemble` span and the
/// `assemble_ms` histogram.
///
/// The report's `elapsed` is the sum of the three stage walls — plan +
/// solve (first claim → last unit) + assemble — so it means "the work of
/// *this* analysis" even for adaptive widths whose plan or solve
/// overlapped a sibling width's stages, and per-width `elapsed` values
/// never double-count shared wall time.
pub(crate) fn assemble_report(plan: Plan, solved: SolveOutcome) -> StateAwareReport {
    let span = telemetry::active().map(|c| telemetry::Span::start(c, SpanName::Assemble));
    let start = Instant::now();
    let derivation = assemble(plan.skeleton, &solved.epsilons);
    let assemble_elapsed = start.elapsed();
    telemetry::global()
        .assemble_ms
        .observe_duration(assemble_elapsed);
    if let Some(span) = span {
        span.end();
    }
    StateAwareReport {
        derivation,
        tn_delta: plan.final_delta,
        sdp_solves: solved.sdp_solves,
        cache_hits: solved.cache_hits,
        inflight_dedup: solved.inflight_dedup,
        tier_counts: solved.tier_counts,
        ip_iterations: solved.ip_iterations,
        solver_profile: solved.solver_profile,
        elapsed: plan.elapsed + solved.elapsed + assemble_elapsed,
        stage_timings: StageTimings {
            plan: plan.elapsed,
            solve: solved.elapsed,
            assemble: assemble_elapsed,
        },
        solve_workers: solved.solve_workers,
        mps_width: plan.mps_width,
    }
}

/// Fills the skeleton's `ε = NaN` placeholders with solved bounds.
///
/// # Panics
///
/// Panics if the skeleton's Gate-node count disagrees with `epsilons` —
/// an internal pipeline invariant violation, never a user error.
fn assemble(mut skeleton: Derivation, epsilons: &[f64]) -> Derivation {
    let mut next = 0usize;
    fill(&mut skeleton, epsilons, &mut next);
    assert_eq!(
        next,
        epsilons.len(),
        "assemble: skeleton has {next} Gate nodes but {} solved bounds",
        epsilons.len()
    );
    skeleton
}

fn fill(d: &mut Derivation, epsilons: &[f64], next: &mut usize) {
    match d {
        Derivation::Skip => {}
        Derivation::Gate { epsilon, .. } => {
            *epsilon = epsilons[*next];
            *next += 1;
        }
        Derivation::Seq { children } => {
            for c in children {
                fill(c, epsilons, next);
            }
        }
        Derivation::Meas { zero, one, .. } => {
            if let Some(z) = zero {
                fill(z, epsilons, next);
            }
            if let Some(o) = one {
                fill(o, epsilons, next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_circuit::Gate;
    use gleipnir_linalg::CMat;

    fn gate_node() -> Derivation {
        Derivation::Gate {
            gate: Gate::X,
            qubits: vec![0],
            rho_prime: CMat::identity(2),
            delta: 0.0,
            epsilon: f64::NAN,
        }
    }

    #[test]
    fn fills_in_preorder_across_meas_branches() {
        let skeleton = Derivation::Seq {
            children: vec![
                gate_node(),
                Derivation::Meas {
                    qubit: 0,
                    delta_prob: 0.0,
                    zero: Some(Box::new(Derivation::Seq {
                        children: vec![gate_node(), gate_node()],
                    })),
                    one: Some(Box::new(gate_node())),
                },
            ],
        };
        let assembled = assemble(skeleton, &[1.0, 2.0, 3.0, 4.0]);
        let mut seen = Vec::new();
        collect(&assembled, &mut seen);
        assert_eq!(seen, vec![1.0, 2.0, 3.0, 4.0]);
    }

    fn collect(d: &Derivation, out: &mut Vec<f64>) {
        match d {
            Derivation::Skip => {}
            Derivation::Gate { epsilon, .. } => out.push(*epsilon),
            Derivation::Seq { children } => children.iter().for_each(|c| collect(c, out)),
            Derivation::Meas { zero, one, .. } => {
                if let Some(z) = zero {
                    collect(z, out);
                }
                if let Some(o) = one {
                    collect(o, out);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "assemble")]
    fn count_mismatch_is_a_loud_bug() {
        assemble(gate_node(), &[1.0, 2.0]);
    }
}
