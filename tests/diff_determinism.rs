//! Determinism guarantees of the differential-analysis path
//! (`Engine::analyze_diff`, docs/SOUNDNESS.md obligation 7).
//!
//! Prefix reuse is a latency optimization, never a new bound: for every
//! scripted edit of every determinism-suite circuit, the diff's answer for
//! the new program must be **bit-identical** to a cold full analysis of
//! that program on a fresh engine — at pool size 1 and at the default pool
//! size — and the per-gate accounting must close exactly:
//!
//! ```text
//! gate_rules(new) = prefix_gates_reused + sdp_solves + cache_hits + closed_form
//! ```

use gleipnir::circuit::{Gate, GateApp, Program, Qubit, Stmt};
use gleipnir::prelude::*;
use gleipnir::workloads::{determinism_suite, ising_chain};

const NOISE_P: f64 = 1e-3;

fn engine_with(threads: usize) -> Engine {
    Engine::with_options(EngineOptions {
        solver: Default::default(),
        threads,
    })
    .expect("explicit thread cap never fails")
}

fn request(program: &Program, width: usize, noise: &NoiseModel, cache: bool) -> AnalysisRequest {
    AnalysisRequest::builder(program.clone())
        .noise(noise.clone())
        .method(Method::StateAware { mps_width: width })
        .cache(cache)
        .build()
        .expect("valid request")
}

/// The program's top-level statement list (the granularity edits work at).
fn top_stmts(program: &Program) -> Vec<Stmt> {
    match program.body() {
        Stmt::Seq(ss) => ss.clone(),
        s => vec![s.clone()],
    }
}

fn rebuild(n_qubits: usize, stmts: Vec<Stmt>) -> Program {
    Program::new(n_qubits, Stmt::Seq(stmts))
}

fn x_on_q0() -> Stmt {
    Stmt::Gate(GateApp::new(Gate::X, vec![Qubit(0)]))
}

/// Swaps the first pair of adjacent, distinct statements at or past the
/// midpoint; `None` when the circuit has no such pair.
fn swap_mid(program: &Program) -> Option<Program> {
    let mut stmts = top_stmts(program);
    let start = stmts.len() / 2;
    let i = (start..stmts.len().saturating_sub(1)).find(|&i| stmts[i] != stmts[i + 1])?;
    stmts.swap(i, i + 1);
    Some(rebuild(program.n_qubits(), stmts))
}

/// Inserts a `skip` before the middle statement: the program's text
/// diverges there, but no obligation moves.
fn insert_skip_mid(program: &Program) -> Option<Program> {
    let mut stmts = top_stmts(program);
    stmts.insert(stmts.len() / 2, Stmt::Skip);
    Some(rebuild(program.n_qubits(), stmts))
}

/// Gates in the leading equal, measurement-free top-level statements of
/// two programs: the reuse a statement-level prefix alignment gives, which
/// the diff must never undercut.
fn statement_prefix_gates(old: &Program, new: &Program) -> usize {
    fn gates(s: &Stmt) -> Option<usize> {
        match s {
            Stmt::Skip => Some(0),
            Stmt::Gate(_) => Some(1),
            Stmt::Seq(ss) => ss.iter().map(gates).sum(),
            Stmt::IfMeasure { .. } => None,
        }
    }
    top_stmts(old)
        .iter()
        .zip(&top_stmts(new))
        .take_while(|(o, n)| o == n)
        .map_while(|(o, _)| gates(o))
        .sum()
}

/// Appends one extra gate after the last statement.
fn append_suffix(program: &Program) -> Option<Program> {
    let mut stmts = top_stmts(program);
    stmts.push(x_on_q0());
    Some(rebuild(program.n_qubits(), stmts))
}

/// Inserts a gate before statement 0 — the prefix is empty by construction.
fn edit_gate0(program: &Program) -> Option<Program> {
    let mut stmts = top_stmts(program);
    stmts.insert(0, x_on_q0());
    Some(rebuild(program.n_qubits(), stmts))
}

/// Pins `analyze_diff(old → new)` against a cold full analysis of `new` on
/// a fresh engine with the same pool size, and returns the diff report.
fn assert_diff_matches_cold(
    threads: usize,
    old: &AnalysisRequest,
    new: &AnalysisRequest,
    label: &str,
) -> DiffReport {
    let engine = engine_with(threads);
    // Warm path: the engine has already analyzed the old program (the
    // edit-cost scenario the subsystem exists for).
    engine.analyze(old).expect("old analysis succeeds");
    let diff = engine.analyze_diff(old, new).expect("diff succeeds");

    let cold = engine_with(threads)
        .analyze(new)
        .expect("cold analysis succeeds")
        .into_state_aware()
        .expect("state-aware report");
    let got = diff.new_report();
    assert_eq!(
        got.error_bound().to_bits(),
        cold.error_bound().to_bits(),
        "{label}: diff ε must be bit-identical to a cold analysis \
         ({:e} vs {:e})",
        got.error_bound(),
        cold.error_bound()
    );
    assert_eq!(
        got.tn_delta().to_bits(),
        cold.tn_delta().to_bits(),
        "{label}: TN δ diverged"
    );
    assert_eq!(
        got.derivation().pretty(),
        cold.derivation().pretty(),
        "{label}: derivation tree diverged"
    );
    // Suffix-only accounting closes over the new program's Gate rules.
    assert_eq!(
        got.derivation().gate_rule_count(),
        diff.prefix_gates_reused()
            + got.sdp_solves()
            + got.cache_hits()
            + got.tier_counts().closed_form,
        "{label}: every gate is reused, solved, hit, or closed-form"
    );
    diff
}

/// Every determinism-suite circuit, under every scripted edit, at pool
/// sizes 1 and default: the diff answer is bit-identical to a cold full
/// analysis of the edited program, and reuses at least the gates of the
/// shared statement prefix. `measure2` runs every edit through a
/// measurement, whose branches each carry the continuation.
#[test]
fn scripted_edits_match_cold_analysis_at_every_pool_size() {
    let noise = NoiseModel::uniform_bit_flip(NOISE_P);
    for (name, program, width) in determinism_suite() {
        // (edit, edited program, cache participation of both requests)
        let edits: [(&str, Option<Program>, bool); 5] = [
            ("swap_mid", swap_mid(&program), true),
            ("swap_mid_uncached", swap_mid(&program), false),
            ("append_suffix", append_suffix(&program), true),
            ("edit_gate0", edit_gate0(&program), true),
            ("insert_skip_mid", insert_skip_mid(&program), true),
        ];
        for (edit_name, edited, cache) in edits {
            let Some(edited) = edited else { continue };
            let old = request(&program, width, &noise, cache);
            let new = request(&edited, width, &noise, cache);
            let statement_prefix = statement_prefix_gates(&program, &edited);
            for threads in [1, 0] {
                let label = format!("{name}/{edit_name}/threads={threads}");
                let diff = assert_diff_matches_cold(threads, &old, &new, &label);
                assert!(
                    diff.prefix_gates_reused() >= statement_prefix,
                    "{label}: reused {} < the statement prefix's {statement_prefix} gates",
                    diff.prefix_gates_reused()
                );
                if !cache {
                    assert!(
                        diff.prefix_gates_reused() > 0,
                        "{label}: uncached obligations are reused by their bits"
                    );
                }
                if edit_name == "insert_skip_mid" {
                    assert_eq!(
                        diff.prefix_gates_reused(),
                        diff.new_report().derivation().gate_rule_count(),
                        "{label}: a skip poses no obligation, so every gate is reused"
                    );
                }
                if edit_name == "edit_gate0" {
                    assert_eq!(
                        diff.prefix_gates_reused(),
                        0,
                        "{label}: an edit at statement 0 leaves nothing to reuse"
                    );
                }
            }
        }
    }
}

/// A noise-model change invalidates the prefix entirely (every judgment
/// moves) and is reported as such.
#[test]
fn noise_change_reuses_nothing_and_still_matches_cold() {
    let (name, program, width) = determinism_suite()
        .into_iter()
        .find(|(name, _, _)| name == "ghz4")
        .expect("suite has ghz4");
    let old = request(
        &program,
        width,
        &NoiseModel::uniform_bit_flip(NOISE_P),
        true,
    );
    let new = request(
        &program,
        width,
        &NoiseModel::uniform_bit_flip(2.0 * NOISE_P),
        true,
    );
    for threads in [1, 0] {
        let label = format!("{name}/noise_change/threads={threads}");
        let diff = assert_diff_matches_cold(threads, &old, &new, &label);
        assert_eq!(
            diff.prefix_gates_reused(),
            0,
            "{label}: a noise change must not reuse any prefix gate"
        );
        assert!(
            diff.changes()
                .iter()
                .all(|c| c.reason == ChangeReason::NoiseChanged),
            "{label}: every change is attributed to the noise model"
        );
    }
}

/// The acceptance benchmark: a 1-gate mid-circuit edit of Ising-288
/// (12 sites × 12 Trotter layers = 288 gates) re-solves only the
/// divergent-suffix obligations. Everything before the edit is served from
/// the reused prefix, and the answer still matches a cold full analysis
/// bit for bit — at pool size 1 and at the default pool size.
#[test]
fn ising288_one_gate_edit_resolves_only_the_suffix() {
    let program = ising_chain(12, 12, 1.0, 1.0, 0.1);
    let edited = swap_mid(&program).expect("Ising-288 has a distinct adjacent pair");
    let noise = NoiseModel::uniform_bit_flip(NOISE_P);
    let old = request(&program, 8, &noise, true);
    let new = request(&edited, 8, &noise, true);
    let stmts = top_stmts(&program).len();
    for threads in [1, 0] {
        let label = format!("ising288/swap_mid/threads={threads}");
        let diff = assert_diff_matches_cold(threads, &old, &new, &label);
        assert!(
            diff.prefix_gates_reused() >= stmts / 2,
            "{label}: a mid-circuit edit must reuse at least the first half \
             (reused {} of {stmts})",
            diff.prefix_gates_reused()
        );
        let suffix_gates =
            diff.new_report().derivation().gate_rule_count() - diff.prefix_gates_reused();
        assert!(
            diff.new_report().sdp_solves() <= suffix_gates,
            "{label}: solves ({}) must not exceed the divergent suffix ({suffix_gates})",
            diff.new_report().sdp_solves()
        );
    }
}

/// Every walk input two requests of one program can disagree on — input
/// state, MPS width, solver options, cache participation, δ bucket width,
/// tier policy, noise — invalidates the shared prefix: nothing is reused,
/// some gate's ε changes and every change is attributed to the
/// configuration (to the noise model for the noise row), and the new
/// answer matches a cold analysis. The old request carries the
/// difference, so the new one is the default exact-policy request whose
/// cold answer is pinned at every row.
#[test]
fn any_walk_config_change_reuses_nothing_and_matches_cold() {
    let (name, program, width) = determinism_suite()
        .into_iter()
        .find(|(name, _, _)| name == "ghz4")
        .expect("suite has ghz4");
    let noise = NoiseModel::uniform_bit_flip(NOISE_P);
    let base = || {
        AnalysisRequest::builder(program.clone())
            .noise(noise.clone())
            .method(Method::StateAware { mps_width: width })
    };
    let loose_solver = gleipnir::sdp::SolverOptions {
        tolerance: 1e-7,
        ..Default::default()
    };
    let rows = [
        (
            "input_state",
            base().input(InputState::plus(program.n_qubits())),
        ),
        // Width 1 truncates the GHZ entanglement: judgments move.
        (
            "mps_width",
            base().method(Method::StateAware { mps_width: 1 }),
        ),
        ("solver_options", base().solver_options(loose_solver)),
        ("cache", base().cache(false)),
        ("delta_quantum", base().delta_quantum(1e-5)),
        ("tier_policy", base().tiering(TierPolicy::Fast)),
        (
            "noise",
            base().noise(NoiseModel::uniform_bit_flip(2.0 * NOISE_P)),
        ),
    ];
    let new = base().build().expect("valid request");
    for (row, old) in rows {
        let old = old.build().expect("valid request");
        let reason = match row {
            "noise" => ChangeReason::NoiseChanged,
            _ => ChangeReason::ConfigChanged,
        };
        for threads in [1, 0] {
            let label = format!("{name}/{row}/threads={threads}");
            let diff = assert_diff_matches_cold(threads, &old, &new, &label);
            assert_eq!(
                diff.prefix_gates_reused(),
                0,
                "{label}: a walk-config change must not reuse any prefix gate"
            );
            assert!(
                !diff.changes().is_empty() && diff.changes().iter().all(|c| c.reason == reason),
                "{label}: every change is {reason:?}: {:?}",
                diff.changes()
            );
        }
    }
}
