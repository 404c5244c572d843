//! Differential analysis: edit-cost latency for edited circuits.
//!
//! [`Engine::analyze_diff`] answers "what did this edit do to the certified
//! error bound?" without paying for a full re-solve. Both programs are
//! planned in full, by the same walk every other analysis uses. The old
//! program is solved in full; its leading run of obligations whose solver
//! inputs are bit-identical to the new program's — the gate matrix, the
//! noisy Kraus operators, ρ′ and δ — gives the new program's first ε's
//! verbatim, and only the new obligations after that run are fanned over
//! the worker pool, where unchanged judgments still hit the engine's shared
//! certificate cache by content address.
//!
//! ## Soundness: reuse is a performance path, never a new bound
//!
//! Under the default exact tier policy a diff answer is **bit-identical to
//! a cold full analysis of the new program at any pool size** (SOUNDNESS.md
//! obligation 7, pinned by `tests/diff_determinism.rs`):
//!
//! * the Gate rule is local: a gate's ε is a function of its solver inputs
//!   and the walk configuration alone, so two obligations with
//!   bit-identical inputs under equal walks certify the same ε wherever in
//!   the program they occur;
//! * keyed obligations are *canonical* — the quantized judgment is
//!   recoverable from the content address alone, so a cache hit returns the
//!   same bits a cold solve would produce;
//! * uncached obligations are solved at their exact judgment by the
//!   deterministic solver.
//!
//! ## What invalidates reuse
//!
//! Reuse happens only when the two requests agree on everything that feeds
//! the walk — their [`Walk`]s (input state, noise model, solver options,
//! cache participation, δ bucket width, tier policy) compare equal and
//! their MPS widths match. Any disagreement degrades to two independent
//! analyses (`prefix_gates_reused == 0`) — still one [`DiffReport`], never
//! a stale bound.

use crate::assemble::assemble_report;
use crate::engine::EngineHandle;
use crate::error::AnalysisError;
use crate::logic::{Derivation, StateAwareReport};
use crate::plan::{SolveObligation, Walk};
use crate::request::{AnalysisRequest, Method};
use crate::solve::{spawn_solve, SolveOutcome};
use crate::tiers::BoundTier;
use crate::Engine;
use gleipnir_linalg::CMat;
use std::time::{Duration, Instant};

/// Why a gate's certified ε differs between the old and new analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeReason {
    /// The gate itself was edited (inserted, removed, or replaced in the
    /// divergent middle of the circuit).
    GateEdited,
    /// The two requests use different noise models — every gate's channel
    /// changed even where the circuit did not.
    NoiseChanged,
    /// A non-noise configuration difference (input state, MPS width, solver
    /// options, cache/quantum/tier settings) forced independent analyses.
    ConfigChanged,
    /// The gate is unchanged but sits downstream of an edit: its judgment's
    /// `(ρ′, δ)` drifted, so its certificate was re-derived.
    DownstreamDrift,
}

impl ChangeReason {
    /// Stable snake_case name (used by the JSON surfaces).
    pub fn name(&self) -> &'static str {
        match self {
            ChangeReason::GateEdited => "gate_edited",
            ChangeReason::NoiseChanged => "noise_changed",
            ChangeReason::ConfigChanged => "config_changed",
            ChangeReason::DownstreamDrift => "downstream_drift",
        }
    }
}

/// One gate whose certified ε differs between the old and new analyses.
#[derive(Clone, Debug)]
pub struct GateChange {
    /// Gate-rule index (skeleton pre-order) in the old derivation; `None`
    /// for a gate that only exists in the new program.
    pub old_index: Option<usize>,
    /// Gate-rule index in the new derivation; `None` for a removed gate.
    pub new_index: Option<usize>,
    /// The gate with its operand qubits, e.g. `CNOT(q0,q1)`. For a
    /// replaced gate this is the *new* gate (the old one when removed).
    pub gate: String,
    /// The old analysis's certified ε (`None` for an inserted gate).
    pub old_epsilon: Option<f64>,
    /// The new analysis's certified ε (`None` for a removed gate).
    pub new_epsilon: Option<f64>,
    /// Which bound-engine tier produced the new ε (`None` for a removed
    /// gate).
    pub tier: Option<BoundTier>,
    /// Why the ε changed.
    pub reason: ChangeReason,
}

/// The differential analysis output: both full reports, the reuse
/// accounting, and the per-gate change list.
#[derive(Clone, Debug)]
pub struct DiffReport {
    old: StateAwareReport,
    new: StateAwareReport,
    prefix_gates_reused: usize,
    changes: Vec<GateChange>,
    elapsed: Duration,
}

impl DiffReport {
    /// The old program's full analysis (its solve stage is almost entirely
    /// cache hits when the engine analyzed the old program before).
    pub fn old_report(&self) -> &StateAwareReport {
        &self.old
    }

    /// The new program's analysis. Its solve accounting covers **only the
    /// obligations after the reused run**: `gate_rule_count =
    /// prefix_gates_reused + sdp_solves + cache_hits +
    /// tier_counts.closed_form`.
    pub fn new_report(&self) -> &StateAwareReport {
        &self.new
    }

    /// The new program's certified whole-program error bound — bit-
    /// identical to what a cold full analysis would certify (exact policy).
    pub fn error_bound(&self) -> f64 {
        self.new.error_bound()
    }

    /// The leading run of gate judgments whose solver inputs equal the old
    /// program's bit for bit, answered verbatim from the old analysis (no
    /// lookup, no solve — their ε bits are the old analysis's).
    pub fn prefix_gates_reused(&self) -> usize {
        self.prefix_gates_reused
    }

    /// Every gate whose certified ε changed, with old/new ε, the tier that
    /// produced the new bound, and why it changed.
    pub fn changes(&self) -> &[GateChange] {
        &self.changes
    }

    /// Wall-clock time of the whole differential analysis.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

/// Whether two obligations pose the same SDP: gate matrix, noisy Kraus
/// operators, ρ′ and δ equal bit for bit (`f64 ==` would equate `0.0` with
/// `-0.0`).
fn same_solver_inputs(a: &SolveObligation, b: &SolveObligation) -> bool {
    fn same(a: &CMat, b: &CMat) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }
    let (ka, kb) = (a.noisy.kraus(), b.noisy.kraus());
    same(&a.gate_matrix, &b.gate_matrix)
        && ka.len() == kb.len()
        && ka.iter().zip(kb).all(|(x, y)| same(x, y))
        && same(&a.rho_prime, &b.rho_prime)
        && a.delta.to_bits() == b.delta.to_bits()
}

/// Collects `(label, ε)` for every Gate rule in skeleton pre-order — the
/// same order as the obligation list, so index `i` lines up with the solve
/// outcome's `tiers[i]`.
fn collect_gates(d: &Derivation, out: &mut Vec<(String, f64)>) {
    match d {
        Derivation::Skip => {}
        Derivation::Gate {
            gate,
            qubits,
            epsilon,
            ..
        } => {
            let qs: Vec<String> = qubits.iter().map(|q| format!("q{q}")).collect();
            out.push((format!("{gate}({})", qs.join(",")), *epsilon));
        }
        Derivation::Seq { children } => children.iter().for_each(|c| collect_gates(c, out)),
        Derivation::Meas { zero, one, .. } => {
            if let Some(z) = zero {
                collect_gates(z, out);
            }
            if let Some(o) = one {
                collect_gates(o, out);
            }
        }
    }
}

/// Classifies the per-gate ε changes between the two assembled reports.
/// Alignment: the first `prefix_gates` pre-order gates are the reused
/// run; the longest label-equal run from the end is the common tail
/// (unchanged gates downstream of the edit); everything between is the
/// edited middle, paired by offset.
fn classify_changes(
    old_gates: &[(String, f64)],
    new_gates: &[(String, f64)],
    new_tiers: &[BoundTier],
    prefix_gates: usize,
    noise_shared: bool,
    config_shared: bool,
) -> Vec<GateChange> {
    let edited_reason = if !noise_shared {
        ChangeReason::NoiseChanged
    } else if !config_shared {
        ChangeReason::ConfigChanged
    } else {
        ChangeReason::GateEdited
    };
    let drift_reason = if config_shared {
        ChangeReason::DownstreamDrift
    } else {
        edited_reason
    };

    let mut tail = 0usize;
    let max_tail = (old_gates.len() - prefix_gates).min(new_gates.len() - prefix_gates);
    while tail < max_tail
        && old_gates[old_gates.len() - 1 - tail].0 == new_gates[new_gates.len() - 1 - tail].0
    {
        tail += 1;
    }

    let old_mid = prefix_gates..old_gates.len() - tail;
    let new_mid = prefix_gates..new_gates.len() - tail;
    let mut changes = Vec::new();

    // The edited middle, paired by offset; extras are one-sided.
    let mid_len = old_mid.len().max(new_mid.len());
    for k in 0..mid_len {
        let old = old_mid.start + k;
        let new = new_mid.start + k;
        let o = old_mid.contains(&old).then(|| &old_gates[old]);
        let n = new_mid.contains(&new).then(|| &new_gates[new]);
        let changed = match (o, n) {
            (Some(o), Some(n)) => o.0 != n.0 || o.1.to_bits() != n.1.to_bits(),
            _ => true,
        };
        if !changed {
            continue;
        }
        changes.push(GateChange {
            old_index: o.map(|_| old),
            new_index: n.map(|_| new),
            gate: n.or(o).expect("one side exists").0.clone(),
            old_epsilon: o.map(|g| g.1),
            new_epsilon: n.map(|g| g.1),
            tier: n.map(|_| new_tiers[new]),
            reason: edited_reason,
        });
    }

    // The common tail: unchanged gates whose judgment may have drifted.
    for k in 0..tail {
        let old = old_gates.len() - tail + k;
        let new = new_gates.len() - tail + k;
        if old_gates[old].1.to_bits() == new_gates[new].1.to_bits() {
            continue;
        }
        changes.push(GateChange {
            old_index: Some(old),
            new_index: Some(new),
            gate: new_gates[new].0.clone(),
            old_epsilon: Some(old_gates[old].1),
            new_epsilon: Some(new_gates[new].1),
            tier: Some(new_tiers[new]),
            reason: drift_reason,
        });
    }
    changes
}

/// The free-function form of [`Engine::analyze_diff`] (what the server's
/// workers call through an [`EngineHandle`]).
pub(crate) fn analyze_diff_request(
    h: &EngineHandle,
    old_request: &AnalysisRequest,
    new_request: &AnalysisRequest,
) -> Result<DiffReport, AnalysisError> {
    let start = Instant::now();
    let (
        &Method::StateAware {
            mps_width: old_width,
        },
        &Method::StateAware {
            mps_width: new_width,
        },
    ) = (old_request.method(), new_request.method())
    else {
        return Err(AnalysisError::Unsupported(
            "analyze_diff requires Method::StateAware on both requests".into(),
        ));
    };
    let old_walk = Walk::of(h, old_request);
    let new_walk = Walk::of(h, new_request);
    let noise_shared = format!("{:?}", old_walk.noise) == format!("{:?}", new_walk.noise);
    let config_shared = old_width == new_width && old_walk == new_walk;

    // Two ordinary walks. With equal walks the leading run of obligation
    // pairs with bit-identical solver inputs shares its ε's.
    let mut old_plan = old_walk.plan(old_request.program(), old_width)?;
    let mut new_plan = new_walk.plan(new_request.program(), new_width)?;
    let prefix_gates = if config_shared {
        old_plan
            .obligations
            .iter()
            .zip(&new_plan.obligations)
            .take_while(|(o, n)| same_solver_inputs(o, n))
            .count()
    } else {
        0
    };

    // Solve the old program in full (all cache hits when the engine
    // analyzed it before). Joining *before* the new solve keeps the new
    // program's accounting a deterministic function of the engine state,
    // pool size aside.
    let old_solved =
        spawn_solve(h, std::mem::take(&mut old_plan.obligations), &old_walk).join(h)?;

    // Solve only the new obligations after the reused run.
    let suffix = std::mem::take(&mut new_plan.obligations).split_off(prefix_gates);
    let suffix_solved = spawn_solve(h, suffix, &new_walk).join(h)?;

    // The new program's ε vector: the reused run's bits verbatim from the
    // old solve, then the rest. The accounting carries only the rest's
    // work — that is the point of the diff.
    let mut epsilons = old_solved.epsilons[..prefix_gates].to_vec();
    epsilons.extend_from_slice(&suffix_solved.epsilons);
    let mut tiers = old_solved.tiers[..prefix_gates].to_vec();
    tiers.extend_from_slice(&suffix_solved.tiers);
    let new_solved = SolveOutcome {
        epsilons,
        tiers,
        ..suffix_solved
    };

    let new_tiers_by_gate = new_solved.tiers.clone();
    let old_report = assemble_report(old_plan, old_solved);
    let new_report = assemble_report(new_plan, new_solved);

    let mut old_gates = Vec::new();
    let mut new_gates = Vec::new();
    collect_gates(old_report.derivation(), &mut old_gates);
    collect_gates(new_report.derivation(), &mut new_gates);
    let changes = classify_changes(
        &old_gates,
        &new_gates,
        &new_tiers_by_gate,
        prefix_gates,
        noise_shared,
        config_shared,
    );

    Ok(DiffReport {
        old: old_report,
        new: new_report,
        prefix_gates_reused: prefix_gates,
        changes,
        elapsed: start.elapsed(),
    })
}

impl Engine {
    /// Differential analysis: analyzes `new_request` by reusing the ε's of
    /// the leading run of obligations it shares bit for bit with
    /// `old_request` and solving only the obligations after that run.
    ///
    /// Both reports come back: the old one (near-free when the engine
    /// analyzed the old program before — its obligations hit the cache)
    /// and the new one, whose solve accounting covers only the obligations
    /// after the reused run.
    /// Under the default exact tier policy the new report's ε bits are
    /// identical to [`Engine::analyze`] of the new request on a cold
    /// engine, at any pool size.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Unsupported`] unless both requests use
    /// [`Method::StateAware`]; otherwise the same errors as
    /// [`Engine::analyze`].
    ///
    /// # Examples
    ///
    /// ```
    /// use gleipnir_circuit::ProgramBuilder;
    /// use gleipnir_core::{AnalysisRequest, Engine, Method};
    /// use gleipnir_noise::NoiseModel;
    ///
    /// let engine = Engine::new();
    /// let request = |theta: f64| {
    ///     let mut b = ProgramBuilder::new(2);
    ///     b.h(0).cnot(0, 1).rx(1, theta);
    ///     AnalysisRequest::builder(b.build())
    ///         .noise(NoiseModel::uniform_bit_flip(1e-4))
    ///         .method(Method::StateAware { mps_width: 4 })
    ///         .build()
    /// };
    /// let old = request(0.3)?;
    /// let new = request(0.7)?;
    /// engine.analyze(&old)?; // warm the certificate cache
    /// let diff = engine.analyze_diff(&old, &new)?;
    /// assert_eq!(diff.prefix_gates_reused(), 2); // H and CNOT reused
    /// assert!(!diff.changes().is_empty()); // the RX edit is named
    /// # Ok::<(), gleipnir_core::AnalysisError>(())
    /// ```
    pub fn analyze_diff(
        &self,
        old_request: &AnalysisRequest,
        new_request: &AnalysisRequest,
    ) -> Result<DiffReport, AnalysisError> {
        analyze_diff_request(&self.handle(), old_request, new_request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Method;
    use crate::testkit::traced;
    use crate::Report;
    use gleipnir_circuit::ProgramBuilder;
    use gleipnir_noise::NoiseModel;
    use gleipnir_sim::BasisState;
    use gleipnir_telemetry::SpanName;

    fn request(program: gleipnir_circuit::Program) -> AnalysisRequest {
        let n = program.n_qubits();
        AnalysisRequest::builder(program)
            .input(&BasisState::zeros(n))
            .noise(NoiseModel::uniform_bit_flip(1e-4))
            .method(Method::StateAware { mps_width: 4 })
            .build()
            .expect("valid request")
    }

    fn state_aware(engine: &Engine, request: &AnalysisRequest) -> StateAwareReport {
        match engine.analyze(request).expect("analysis succeeds") {
            Report::StateAware(r) => r,
            other => panic!("expected state-aware report, got {}", other.method_name()),
        }
    }

    #[test]
    fn diff_reuses_prefix_and_matches_full_analysis() {
        let mut a = ProgramBuilder::new(3);
        a.h(0).cnot(0, 1).rx(2, 0.3).cnot(1, 2);
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).rx(2, 0.9).cnot(1, 2);
        let old = request(a.build());
        let new = request(b.build());

        let engine = Engine::new();
        state_aware(&engine, &old);
        let diff = engine.analyze_diff(&old, &new).expect("diff succeeds");
        assert_eq!(diff.prefix_gates_reused(), 2);

        // Bit-identity against a cold full analysis of the new program.
        let cold = state_aware(&Engine::new(), &new);
        assert_eq!(
            diff.new_report().error_bound().to_bits(),
            cold.error_bound().to_bits()
        );
        // The suffix-only accounting closes: every gate is reused, solved,
        // hit, or closed-form.
        let r = diff.new_report();
        assert_eq!(
            r.derivation().gate_rule_count(),
            diff.prefix_gates_reused()
                + r.sdp_solves()
                + r.cache_hits()
                + r.tier_counts().closed_form
        );
        // The edit itself is named.
        assert!(diff
            .changes()
            .iter()
            .any(|c| c.reason == ChangeReason::GateEdited && c.gate.contains("rx")));
    }

    #[test]
    fn traced_diff_attributes_its_stages_and_keeps_its_bits() {
        let mut a = ProgramBuilder::new(3);
        a.h(0).cnot(0, 1).rx(2, 0.3).cnot(1, 2);
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).rx(2, 0.9).cnot(1, 2);
        let (old, new) = (request(a.build()), request(b.build()));
        let bits = |d: &DiffReport| -> Vec<u64> {
            let eps = d
                .changes()
                .iter()
                .flat_map(|c| [c.old_epsilon, c.new_epsilon]);
            [Some(d.error_bound()), Some(d.old_report().error_bound())]
                .into_iter()
                .chain(eps)
                .flatten()
                .map(f64::to_bits)
                .collect()
        };
        let untraced = Engine::new().analyze_diff(&old, &new).unwrap();
        let (diff, spans) = traced(|| Engine::new().analyze_diff(&old, &new).unwrap());
        assert_eq!(bits(&diff), bits(&untraced), "tracing moved a bit");

        // Each program is walked, solved and assembled once.
        let runs = |name| spans.iter().filter(|s| s.name == name).count();
        let stages = [
            SpanName::Mps,
            SpanName::Plan,
            SpanName::Solve,
            SpanName::Assemble,
        ];
        assert_eq!(stages.map(runs), [2, 2, 2, 2]);
        let solves: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == SpanName::Solve)
            .map(|s| s.id)
            .collect();
        let obligations = spans.iter().filter(|s| s.name == SpanName::Obligation);
        assert_eq!(
            obligations.clone().count(),
            4 + 2,
            "old program, then the new obligations after the reused run"
        );
        assert!(obligations.clone().all(|o| solves.contains(&o.parent)));
    }

    #[test]
    fn noise_change_reports_no_reuse_and_noise_reason() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let p = b.build();
        let old = request(p.clone());
        let new = AnalysisRequest::builder(p)
            .input(&BasisState::zeros(2))
            .noise(NoiseModel::uniform_bit_flip(5e-4))
            .method(Method::StateAware { mps_width: 4 })
            .build()
            .unwrap();
        let engine = Engine::new();
        let diff = engine.analyze_diff(&old, &new).expect("diff succeeds");
        assert_eq!(diff.prefix_gates_reused(), 0);
        assert!(!diff.changes().is_empty());
        assert!(diff
            .changes()
            .iter()
            .all(|c| c.reason == ChangeReason::NoiseChanged));
    }

    #[test]
    fn identical_programs_change_nothing() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1).x(1);
        let old = request(b.build());
        let engine = Engine::new();
        state_aware(&engine, &old);
        let diff = engine.analyze_diff(&old, &old).expect("diff succeeds");
        assert_eq!(diff.prefix_gates_reused(), 3);
        assert!(diff.changes().is_empty());
        assert_eq!(diff.new_report().sdp_solves(), 0);
    }

    #[test]
    fn non_state_aware_methods_are_rejected() {
        let mut b = ProgramBuilder::new(1);
        b.x(0);
        let p = b.build();
        let old = AnalysisRequest::builder(p.clone())
            .noise(NoiseModel::uniform_bit_flip(1e-4))
            .method(Method::WorstCase)
            .build()
            .unwrap();
        let new = request(p);
        let err = Engine::new().analyze_diff(&old, &new).unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
    }
}
