//! Stage 1 of the analysis pipeline: the **plan** pass.
//!
//! A cheap, strictly sequential walk of the program that evolves the MPS
//! exactly like the original monolithic walk did, but *defers every SDP*:
//! instead of solving each gate's `(ρ̂, δ)`-diamond certificate inline, it
//! materializes a [`SolveObligation`] — the gate matrix, its noisy Kraus
//! channel, the exact ρ′ snapshot and δ, and (when caching is on) the
//! quantized judgment and content-addressed cache key — plus a
//! [`Derivation`] *skeleton* whose Gate nodes carry `ε = NaN` placeholders.
//!
//! Obligations are emitted in execution order, which is exactly the
//! pre-order of Gate nodes in the skeleton; the assemble stage
//! ([`crate::assemble`]) relies on this correspondence to stitch solved
//! ε's back bit-for-bit into the tree the sequential walk would have
//! produced.
//!
//! The δ-bucket quantization implemented here is the soundness-critical
//! half of cache reuse (the Weaken rule); see [`quantize`] for the
//! invariants.

use crate::engine::{self, EngineHandle};
use crate::error::AnalysisError;
use crate::logic::Derivation;
use crate::request::{AnalysisRequest, InputState};
use crate::tiers::TierPolicy;
use gleipnir_circuit::{Program, Stmt};
use gleipnir_linalg::CMat;
use gleipnir_mps::{Mps, MpsError};
use gleipnir_noise::{Channel, NoiseModel};
use gleipnir_sdp::SolverOptions;
use gleipnir_telemetry::{self as telemetry, SpanName};
use std::time::{Duration, Instant};

/// Maximum number of execution paths one plan may walk. Every measurement
/// forks the walk, so k sequential measurements can plan 2^k paths; past
/// this many the plan is refused rather than holding a worker for hours.
const MAX_PLAN_PATHS: usize = 4096;

/// Maximum number of measurements on one execution path. The walk, the
/// derivation it builds and every pass over that derivation recurse once
/// per measurement on a path, so past this depth the plan is refused
/// rather than overflowing a thread's stack.
const MAX_PLAN_FORK_DEPTH: usize = 256;

/// One deferred `(ρ̂, δ)`-diamond SDP: everything the solve stage needs,
/// fully owned so obligations can cross threads.
pub(crate) struct SolveObligation {
    /// The ideal gate matrix.
    pub gate_matrix: CMat,
    /// The noisy channel `ω(gate)`.
    pub noisy: Channel,
    /// The exact local density ρ′ (also stored in the skeleton's Gate
    /// node; solved against directly when the obligation is uncached).
    pub rho_prime: CMat,
    /// The exact judgment δ.
    pub delta: f64,
    /// The quantized judgment + cache key, when this obligation
    /// participates in the engine's shared cache.
    pub cached: Option<CachedJudgment>,
}

/// The cache-eligible form of an obligation: the judgment rounded up to a
/// bucket edge (sound by the Weaken rule), plus its content address.
pub(crate) struct CachedJudgment {
    /// ρ′ quantized to 1e-8 granularity (the perturbation is folded into
    /// `delta_eff`).
    pub rho_q: CMat,
    /// δ rounded *up* to the bucket edge, including the ρ′ quantization
    /// slack — always ≥ the exact δ.
    pub delta_eff: f64,
    /// The engine-wide content address ([`engine::key_rho_delta`]).
    pub key: Vec<u64>,
}

/// The plan stage's output: the derivation skeleton plus the flat
/// obligation list (in execution order) and the walk's bookkeeping.
pub(crate) struct Plan {
    /// Derivation tree with `ε = NaN` placeholders in every Gate node.
    pub skeleton: Derivation,
    /// Deferred SDPs, emitted in skeleton pre-order.
    pub obligations: Vec<SolveObligation>,
    /// The maximum accumulated TN δ over all execution paths.
    pub final_delta: f64,
    /// The MPS bond-dimension budget the plan was computed at.
    pub mps_width: usize,
    /// Wall-clock time of the walk.
    pub elapsed: Duration,
}

/// Everything besides the program and the MPS width that feeds the
/// pipeline's stages, borrowed from one request and resolved once (the
/// engine's default solver options filled in). Under walks that compare
/// equal, bit-identical obligations certify the same ε, which is what
/// lets the differential analyzer ([`crate::diff`]) reuse the old
/// analysis's ε's.
#[derive(Debug)]
pub(crate) struct Walk<'a> {
    input: &'a InputState,
    pub(crate) noise: &'a NoiseModel,
    pub(crate) opts: SolverOptions,
    pub(crate) cache_enabled: bool,
    delta_quantum: f64,
    pub(crate) tiers: TierPolicy,
}

impl<'a> Walk<'a> {
    /// The walk configuration of `request` on the engine behind `h`.
    pub(crate) fn of(h: &EngineHandle, request: &'a AnalysisRequest) -> Self {
        Walk {
            input: request.input(),
            noise: request.noise(),
            opts: h.resolve_options(request),
            cache_enabled: request.cache_enabled(),
            delta_quantum: request.delta_quantum(),
            tiers: request.tier_policy(),
        }
    }

    /// The pipeline's first two stages: materializes the input state as an
    /// MPS of bond-dimension budget `width` for `program` (recorded as the
    /// `mps` span), then walks the program from it, emitting one obligation
    /// per Gate-rule application (recorded as the `plan` span and the
    /// `plan_ms` histogram).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::WidthMismatch`] if the input and program widths
    /// disagree, [`AnalysisError::InvalidConfig`] for an invalid input, or
    /// [`AnalysisError::Unsupported`] when both branches of a measurement
    /// are unreachable, the program has more than [`MAX_PLAN_PATHS`]
    /// execution paths, or one path has more than [`MAX_PLAN_FORK_DEPTH`]
    /// measurements.
    pub(crate) fn plan(&self, program: &Program, width: usize) -> Result<Plan, AnalysisError> {
        let span = telemetry::active().map(|c| telemetry::Span::start(c, SpanName::Mps));
        let mut mps = self.input.build_mps(width)?;
        if let Some(span) = span {
            span.end();
        }
        if mps.n_qubits() != program.n_qubits() {
            return Err(AnalysisError::WidthMismatch {
                input: mps.n_qubits(),
                program: program.n_qubits(),
            });
        }

        let span = telemetry::active().map(|c| telemetry::Span::start(c, SpanName::Plan));
        let start = Instant::now();
        let mut planner = Planner {
            walk: self,
            obligations: Vec::new(),
            final_delta: 0.0,
            paths: 0,
        };
        let skeleton = planner.walk(vec![std::slice::from_ref(program.body())], &mut mps, 0);
        let elapsed = start.elapsed();
        telemetry::global().plan_ms.observe_duration(elapsed);
        if let Some(span) = span {
            span.end();
        }
        Ok(Plan {
            skeleton: skeleton?,
            obligations: planner.obligations,
            final_delta: planner.final_delta,
            mps_width: mps.max_bond(),
            elapsed,
        })
    }
}

impl PartialEq for Walk<'_> {
    /// A bit-level comparison of every field. The borrowed input and noise
    /// types have no `PartialEq`, and `Debug` round-trips every non-NaN
    /// `f64` exactly (`-0.0` included), so the walks' `Debug` renderings
    /// are compared.
    fn eq(&self, other: &Self) -> bool {
        format!("{self:?}") == format!("{other:?}")
    }
}

struct Planner<'a> {
    walk: &'a Walk<'a>,
    obligations: Vec<SolveObligation>,
    final_delta: f64,
    /// Execution paths walked to the end so far (pruned zero-probability
    /// branches never get there).
    paths: usize,
}

impl Planner<'_> {
    /// Walks the program in execution order. `rest` is a stack of
    /// statement slices still to run (the next statement heads the top
    /// slice). Straight-line statements run in a loop, so the call stack
    /// does not grow with program length; a measurement recurses once per
    /// branch, each branch continuing with its own copy of `rest`, and
    /// ends this walk. `forks` counts the measurements above this walk on
    /// its path.
    ///
    /// The tree shape is fixed (the sequential oracle pins it): a path
    /// that runs to the end is a `Seq` of its nodes, and a path that ends
    /// in a measurement is a `Seq` of its nodes followed by the `Meas` —
    /// or the bare `Meas` when nothing precedes it.
    fn walk<'s>(
        &mut self,
        mut rest: Vec<&'s [Stmt]>,
        mps: &mut Mps,
        forks: usize,
    ) -> Result<Derivation, AnalysisError> {
        let mut children = Vec::new();
        while let Some(run) = rest.pop() {
            let Some((first, tail)) = run.split_first() else {
                continue;
            };
            rest.push(tail);
            match first {
                Stmt::Skip => children.push(Derivation::Skip),
                Stmt::Seq(ss) => rest.push(ss),
                Stmt::Gate(g) => {
                    let qubits: Vec<usize> = g.qubits.iter().map(|q| q.0).collect();
                    // ρ′ first (routing non-adjacent operands adds
                    // truncation that must be inside this gate's δ), then
                    // the gate.
                    let (rho_prime, delta) = mps.gate_snapshot(&qubits);
                    self.plan_gate(g, &rho_prime, delta);
                    mps.apply_gate(&g.gate, &qubits);
                    children.push(Derivation::Gate {
                        gate: g.gate.clone(),
                        qubits,
                        rho_prime,
                        delta,
                        epsilon: f64::NAN, // filled by the assemble stage
                    });
                }
                Stmt::IfMeasure { qubit, zero, one } => {
                    if forks == MAX_PLAN_FORK_DEPTH {
                        return Err(AnalysisError::Unsupported(format!(
                            "more than {MAX_PLAN_FORK_DEPTH} measurements on one path"
                        )));
                    }
                    let delta_prob = mps.delta().min(1.0);
                    let mut plan_branch =
                        |body: &'s Stmt,
                         outcome: bool|
                         -> Result<Option<Box<Derivation>>, AnalysisError> {
                            let mut fork = mps.clone();
                            match fork.collapse(qubit.0, outcome) {
                                Ok(_p) => {
                                    let mut work = rest.clone();
                                    work.push(std::slice::from_ref(body));
                                    Ok(Some(Box::new(self.walk(work, &mut fork, forks + 1)?)))
                                }
                                Err(MpsError::ZeroProbabilityOutcome { .. }) => Ok(None),
                            }
                        };
                    let zero_d = plan_branch(zero, false)?;
                    let one_d = plan_branch(one, true)?;
                    if zero_d.is_none() && one_d.is_none() {
                        return Err(AnalysisError::Unsupported(
                            "both measurement branches unreachable (state numerically degenerate)"
                                .into(),
                        ));
                    }
                    let meas = Derivation::Meas {
                        qubit: qubit.0,
                        delta_prob,
                        zero: zero_d,
                        one: one_d,
                    };
                    if children.is_empty() {
                        return Ok(meas);
                    }
                    children.push(meas);
                    return Ok(Derivation::Seq { children });
                }
            }
        }
        self.paths += 1;
        if self.paths > MAX_PLAN_PATHS {
            return Err(AnalysisError::Unsupported(format!(
                "more than {MAX_PLAN_PATHS} measurement paths"
            )));
        }
        self.final_delta = self.final_delta.max(mps.delta());
        Ok(Derivation::Seq { children })
    }

    /// Materializes one gate's solve obligation (the deferred counterpart
    /// of the old inline `gate_epsilon`).
    fn plan_gate(&mut self, g: &gleipnir_circuit::GateApp, rho_prime: &CMat, delta: f64) {
        let noisy = self.walk.noise.noisy_gate(&g.gate, &g.qubits);
        let gate_matrix = g.gate.matrix();
        let cached = if self.walk.cache_enabled {
            quantize(
                &gate_matrix,
                &noisy,
                rho_prime,
                delta,
                self.walk.delta_quantum,
                &self.walk.opts,
            )
        } else {
            None
        };
        self.obligations.push(SolveObligation {
            gate_matrix,
            noisy,
            rho_prime: rho_prime.clone(),
            delta,
            cached,
        });
    }
}

/// Sound cache quantization: rounds ρ′ to 1e-8 granularity and δ *up* to a
/// bucket edge. The ρ′ rounding (trace-norm perturbation < 2e-7 for the
/// ≤ 4×4 locals) is folded into δ *before* bucketing, so the certificate
/// is solved at `δ_eff ≥ δ + ‖ρ_q − ρ′‖₁` regardless of how close δ sits
/// to a bucket edge or how small the bucket width is — exactly the
/// headroom the Weaken rule needs.
///
/// Returns `None` when δ is so large relative to the bucket width that the
/// bucket index would overflow (wrapping to bucket 0 would certify the
/// judgment at `δ_eff = 0` — unsound); such obligations bypass the cache
/// and are solved at their exact δ.
fn quantize(
    gate_matrix: &CMat,
    noisy: &Channel,
    rho_prime: &CMat,
    delta: f64,
    delta_quantum: f64,
    opts: &SolverOptions,
) -> Option<CachedJudgment> {
    const RHO_QUANT_SLACK: f64 = 2e-7;
    let q = delta_quantum;
    let ratio = (delta + RHO_QUANT_SLACK) / q;
    if !ratio.is_finite() || ratio >= (1u64 << 52) as f64 {
        return None;
    }
    let bucket = ratio.floor() as u64 + 1;
    let delta_eff = bucket as f64 * q;
    let rho_q = CMat::from_fn(rho_prime.rows(), rho_prime.cols(), |i, j| {
        let z = rho_prime.at(i, j);
        gleipnir_linalg::c64((z.re * 1e8).round() / 1e8, (z.im * 1e8).round() / 1e8)
    });
    let key = engine::key_rho_delta(gate_matrix, noisy.kraus(), &rho_q, bucket, q, opts);
    Some(CachedJudgment {
        rho_q,
        delta_eff,
        key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_circuit::ProgramBuilder;
    use gleipnir_noise::NoiseModel;

    /// Plans `program` from |0…0⟩ at width `w` under a 1e-4 bit flip.
    fn plan_at(program: &Program, w: usize, cache_enabled: bool, delta_quantum: f64) -> Plan {
        let input = InputState::zeros(program.n_qubits());
        let walk = Walk {
            input: &input,
            noise: &NoiseModel::uniform_bit_flip(1e-4),
            opts: SolverOptions::default(),
            cache_enabled,
            delta_quantum,
            tiers: TierPolicy::Exact,
        };
        walk.plan(program, w).expect("plan succeeds")
    }

    fn plan(program: &Program, w: usize, cache: bool) -> Plan {
        plan_at(program, w, cache, 1e-6)
    }

    /// Pre-order Gate-node count must equal the obligation count, and the
    /// skeleton's (gate, δ) sequence must match the obligations' —
    /// the invariant the assemble stage stitches by.
    fn gate_deltas_preorder(d: &Derivation, out: &mut Vec<f64>) {
        match d {
            Derivation::Skip => {}
            Derivation::Gate { delta, .. } => out.push(*delta),
            Derivation::Seq { children } => {
                children.iter().for_each(|c| gate_deltas_preorder(c, out))
            }
            Derivation::Meas { zero, one, .. } => {
                if let Some(z) = zero {
                    gate_deltas_preorder(z, out);
                }
                if let Some(o) = one {
                    gate_deltas_preorder(o, out);
                }
            }
        }
    }

    #[test]
    fn obligations_match_skeleton_preorder() {
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).if_measure(
            0,
            |z| {
                z.x(2);
            },
            |o| {
                o.z(2).h(2);
            },
        );
        let plan = plan(&b.build(), 4, true);
        let mut deltas = Vec::new();
        gate_deltas_preorder(&plan.skeleton, &mut deltas);
        assert_eq!(deltas.len(), plan.obligations.len());
        for (skel_delta, ob) in deltas.iter().zip(&plan.obligations) {
            assert_eq!(*skel_delta, ob.delta);
        }
        assert_eq!(plan.skeleton.gate_rule_count(), plan.obligations.len());
    }

    /// The skeleton's shape: `G` per gate, `S` per skip, `[..]` per
    /// `Seq`, `M(zero|one)` per measurement (`-` for an unreachable
    /// branch).
    fn shape(d: &Derivation) -> String {
        match d {
            Derivation::Skip => "S".into(),
            Derivation::Gate { .. } => "G".into(),
            Derivation::Seq { children } => {
                let inner: Vec<String> = children.iter().map(shape).collect();
                format!("[{}]", inner.join(","))
            }
            Derivation::Meas { zero, one, .. } => {
                let branch = |b: &Option<Box<Derivation>>| b.as_deref().map_or("-".into(), shape);
                format!("M({}|{})", branch(zero), branch(one))
            }
        }
    }

    #[test]
    fn skeleton_shapes_match_the_statement_walk() {
        // Straight-line code is one flat Seq, nested Seqs flattened.
        let mut b = ProgramBuilder::new(2);
        b.h(0).x(0).cnot(0, 1);
        assert_eq!(shape(&plan(&b.build(), 4, true).skeleton), "[G,G,G]");
        // A leading measurement stays unwrapped; each branch carries the
        // continuation.
        let mut b = ProgramBuilder::new(2);
        b.h(0);
        let mut fork = ProgramBuilder::new(2);
        fork.if_measure(
            0,
            |z| {
                z.x(1);
            },
            |o| {
                o.z(1).h(1);
            },
        )
        .h(1);
        let fork = fork.build();
        assert_eq!(shape(&plan(&fork, 4, true).skeleton), "M([G,G]|-)");
        // Nodes before a measurement precede it in one Seq.
        b.if_measure(
            0,
            |z| {
                z.x(1);
            },
            |o| {
                o.z(1).h(1);
            },
        )
        .h(1);
        assert_eq!(
            shape(&plan(&b.build(), 4, true).skeleton),
            "[G,M([G,G]|[G,G,G])]"
        );
    }

    #[test]
    fn skeleton_epsilons_are_placeholders() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let plan = plan(&b.build(), 4, true);
        // ε placeholders are NaN until assembled; epsilon() on a skeleton
        // is therefore NaN — nobody may read a bound off an unassembled
        // skeleton by accident.
        assert!(plan.skeleton.epsilon().is_nan());
    }

    #[test]
    fn cache_disabled_plans_emit_no_keys() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let p = b.build();
        assert!(plan(&p, 4, false)
            .obligations
            .iter()
            .all(|o| o.cached.is_none()));
        assert!(plan(&p, 4, true)
            .obligations
            .iter()
            .all(|o| o.cached.is_some()));
    }

    #[test]
    fn bucket_overflow_falls_back_to_exact() {
        // Entangling circuit at w = 1 accumulates δ ≫ 1e-300·2^52.
        let mut b = ProgramBuilder::new(3);
        b.h(0).h(1).h(2).rzz(0, 1, 0.9).rzz(1, 2, 0.9).cnot(0, 1);
        let plan = plan_at(&b.build(), 1, true, 1e-300);
        assert!(
            plan.obligations.iter().any(|o| o.cached.is_none()),
            "truncated judgments must bypass the cache at an overflowing bucket width"
        );
    }

    #[test]
    fn delta_eff_dominates_exact_delta() {
        let mut b = ProgramBuilder::new(4);
        for q in 0..4 {
            b.h(q);
        }
        for q in 0..3 {
            b.rzz(q, q + 1, 0.8);
        }
        let plan = plan(&b.build(), 2, true);
        for ob in &plan.obligations {
            if let Some(c) = &ob.cached {
                assert!(
                    c.delta_eff > ob.delta,
                    "Weaken headroom violated: δ_eff {} ≤ δ {}",
                    c.delta_eff,
                    ob.delta
                );
            }
        }
    }
}
