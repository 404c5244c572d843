//! Baseline pins: the worst-case and LQR-full-sim reports, bit for bit
//! against reference sums built from the public one-shot diamond norms.
//!
//! * worst case: `total` is `unconstrained_diamond` summed over every gate
//!   in program order (branch bodies included);
//! * LQR: `bound` is `rho_delta_diamond(.., ρ_exact, 0)` summed over the
//!   straight-line gates, with ρ_exact the dense simulator's reduced
//!   density on the gate's operands (in operand order).
//!
//! Each case runs on a one-thread engine and on the default pool, under
//! both tier policies and both cache modes. The worst-case accounting
//! (`sdp_solves`, `cache_hits`, `tier_counts`) is pinned too: repeats of a
//! gate inside one request are folded onto one solve whether or not the
//! engine's cache takes part, and a `cache(false)` request leaves the
//! engine's cache untouched.

use gleipnir::circuit::{Gate, Program, ProgramBuilder};
use gleipnir::core::{
    rho_delta_diamond, unconstrained_diamond, AnalysisRequest, Engine, EngineOptions, Method,
    Report, TierCounts, TierPolicy,
};
use gleipnir::linalg::CMat;
use gleipnir::noise::NoiseModel;
use gleipnir::sim::{BasisState, DensityMatrix};

/// Fresh engines: one thread and, when it differs, the default pool.
fn engines() -> Vec<(usize, Engine)> {
    let default_threads = Engine::new().threads();
    let mut pools = vec![1];
    if default_threads != 1 {
        pools.push(default_threads);
    }
    pools
        .into_iter()
        .map(|threads| {
            let engine = Engine::with_options(EngineOptions {
                solver: Default::default(),
                threads,
            })
            .expect("engine");
            (threads, engine)
        })
        .collect()
}

fn request(
    program: &Program,
    input: Option<&BasisState>,
    noise: &NoiseModel,
    method: Method,
    tiers: TierPolicy,
    cache: bool,
) -> AnalysisRequest {
    let mut b = AnalysisRequest::builder(program.clone())
        .noise(noise.clone())
        .method(method)
        .tiering(tiers)
        .cache(cache);
    if let Some(input) = input {
        b = b.input(input);
    }
    b.build().expect("valid request")
}

/// 30 copies of one gate: one distinct judgment.
fn repeated_x() -> Program {
    let mut b = ProgramBuilder::new(1);
    for _ in 0..30 {
        b.x(0);
    }
    b.build()
}

/// Eight gates over three distinct ones (`h`, `cnot`, `x`), two of them in
/// the branches of a measurement.
fn branching() -> Program {
    let mut b = ProgramBuilder::new(3);
    b.h(0).h(1).cnot(0, 1);
    b.if_measure(
        0,
        |z| {
            z.x(2).h(2);
        },
        |o| {
            o.x(2).cnot(1, 2);
        },
    );
    b.h(0);
    b.build()
}

/// A straight-line program with reversed two-qubit operands and repeats.
fn reversed_operands() -> Program {
    let mut b = ProgramBuilder::new(3);
    b.h(0)
        .cnot(2, 0)
        .rzz(1, 0, 0.5)
        .rx(1, 0.8)
        .h(0)
        .cnot(0, 1)
        .cnot(2, 0);
    b.build()
}

fn worst_reference(program: &Program, noise: &NoiseModel, engine: &Engine) -> f64 {
    let mut total = 0.0;
    program.body().for_each_gate(&mut |g| {
        let noisy = noise.noisy_gate(&g.gate, &g.qubits);
        total += unconstrained_diamond(&g.gate.matrix(), &noisy, engine.options())
            .expect("unconstrained diamond")
            .bound;
    });
    total
}

fn lqr_reference(
    program: &Program,
    input: &BasisState,
    noise: &NoiseModel,
    engine: &Engine,
) -> f64 {
    let mut rho = DensityMatrix::from_basis(input);
    let mut bound = 0.0;
    for g in program.straight_line_gates().expect("straight-line") {
        let rho_prime = match g.qubits.as_slice() {
            [q] => rho.local_density(&[q.0]),
            [a, b] if a.0 < b.0 => rho.local_density(&[a.0, b.0]),
            [a, b] => {
                let swap: CMat = Gate::Swap.matrix();
                swap.mul_mat(&rho.local_density(&[b.0, a.0])).mul_mat(&swap)
            }
            _ => unreachable!("gates have arity 1 or 2"),
        };
        let noisy = noise.noisy_gate(&g.gate, &g.qubits);
        bound += rho_delta_diamond(&g.gate.matrix(), &noisy, &rho_prime, 0.0, engine.options())
            .expect("(ρ, 0)-diamond")
            .bound;
        rho.apply_gate(&g.gate, &g.qubits);
    }
    bound
}

/// `(sdp_solves, cache_hits, tier_counts)` of a report.
fn counts(report: &Report) -> (usize, usize, TierCounts) {
    (
        report.sdp_solves(),
        report.cache_hits(),
        report.tier_counts(),
    )
}

fn cold(n: usize) -> TierCounts {
    TierCounts {
        closed_form: 0,
        cold: n,
    }
}

#[test]
fn worst_case_total_is_the_unconstrained_sum() {
    // Amplitude damping has no closed form, so both policies solve.
    let noise = NoiseModel::uniform_amplitude_damping(0.05);
    let cases = [
        (repeated_x(), (1, 29, cold(1))),
        (branching(), (3, 5, cold(3))),
    ];
    for (program, expected) in &cases {
        for tiers in [TierPolicy::Exact, TierPolicy::Fast] {
            for cache in [true, false] {
                for (threads, engine) in engines() {
                    let reference = worst_reference(program, &noise, &engine);
                    let req = request(program, None, &noise, Method::WorstCase, tiers, cache);
                    let report = engine.analyze(&req).expect("worst case");
                    let ctx = format!("{tiers:?} cache={cache} threads={threads}");
                    let worst = report.as_worst_case().expect("worst-case report");
                    assert_eq!(worst.gate_count, program.gate_count(), "{ctx}");
                    assert_eq!(
                        report.error_bound().to_bits(),
                        reference.to_bits(),
                        "{ctx}: {} vs {reference}",
                        report.error_bound()
                    );
                    assert_eq!(counts(&report), *expected, "{ctx}");
                    assert!(report.ip_iterations() > 0, "{ctx}");
                    let stats = engine.cache_stats();
                    if cache {
                        assert_eq!(stats.entries, expected.0, "{ctx}");
                        // A second run on the warm engine solves nothing.
                        let warm = engine.analyze(&req).expect("warm worst case");
                        assert_eq!(warm.error_bound().to_bits(), reference.to_bits(), "{ctx}");
                        assert_eq!(
                            counts(&warm),
                            (0, program.gate_count(), TierCounts::default()),
                            "{ctx}"
                        );
                    } else {
                        assert_eq!(
                            (
                                stats.hits,
                                stats.misses,
                                stats.entries,
                                stats.inflight_dedup
                            ),
                            (0, 0, 0, 0),
                            "{ctx}: cache(false) must leave the engine cache untouched"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn worst_case_fast_policy_answers_pauli_noise_in_closed_form() {
    let noise = NoiseModel::uniform_bit_flip(0.2);
    for program in [repeated_x(), branching()] {
        let gates = program.gate_count();
        let mut totals = Vec::new();
        for cache in [true, false] {
            for (threads, engine) in engines() {
                let req = request(
                    &program,
                    None,
                    &noise,
                    Method::WorstCase,
                    TierPolicy::Fast,
                    cache,
                );
                let report = engine.analyze(&req).expect("worst case");
                let ctx = format!("cache={cache} threads={threads}");
                assert_eq!(
                    counts(&report),
                    (
                        0,
                        0,
                        TierCounts {
                            closed_form: gates,
                            cold: 0
                        }
                    ),
                    "{ctx}"
                );
                assert_eq!(report.ip_iterations(), 0, "{ctx}");
                assert_eq!(engine.cache_stats().entries, 0, "{ctx}");
                assert!(
                    (report.error_bound() - gates as f64 * 0.2).abs() < 1e-6,
                    "{ctx}: {}",
                    report.error_bound()
                );
                totals.push(report.error_bound().to_bits());
            }
        }
        assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
    }
}

#[test]
fn lqr_bound_is_the_exact_state_sum() {
    let program = reversed_operands();
    let inputs = [
        BasisState::zeros(3),
        BasisState::from_bits(&[true, false, true]),
    ];
    for noise in [
        NoiseModel::uniform_bit_flip(1e-3),
        NoiseModel::uniform_amplitude_damping(0.05),
    ] {
        for input in &inputs {
            for tiers in [TierPolicy::Exact, TierPolicy::Fast] {
                for cache in [true, false] {
                    for (threads, engine) in engines() {
                        let reference = lqr_reference(&program, input, &noise, &engine);
                        let req = request(
                            &program,
                            Some(input),
                            &noise,
                            Method::LqrFullSim,
                            tiers,
                            cache,
                        );
                        let report = engine.analyze(&req).expect("LQR");
                        let ctx = format!("{tiers:?} cache={cache} threads={threads}");
                        assert_eq!(
                            report.error_bound().to_bits(),
                            reference.to_bits(),
                            "{ctx}: {} vs {reference}",
                            report.error_bound()
                        );
                        let lqr = report.as_lqr().expect("LQR report");
                        assert_eq!(lqr.gate_count, program.gate_count(), "{ctx}");
                        assert_eq!(report.sdp_solves(), program.gate_count(), "{ctx}");
                        assert_eq!(report.cache_hits(), 0, "{ctx}");
                        assert_eq!(engine.cache_stats().entries, 0, "{ctx}");
                    }
                }
            }
        }
    }
}
