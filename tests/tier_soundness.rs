//! Soundness of the tiered bound engine (public-API level).
//!
//! Tier 0 (closed form) may only ever *loosen* a bound, never undercut it:
//! it substitutes an analytic upper bound for the SDP optimum, so for every
//! gate judgment the closed-form ε must dominate the SDP-certified ε (the
//! cold solve's answer) up to the certified slack. Pinned per-gate over the
//! whole determinism workload suite, and per-channel against both the SDP's
//! certified bound and its primal estimate (a true lower bound on the
//! optimum).

use gleipnir::prelude::*;
use gleipnir::workloads::{determinism_suite, ising_chain};

const NOISE_P: f64 = 1e-3;

fn analyze(
    engine: &Engine,
    program: &Program,
    noise: &NoiseModel,
    width: usize,
    quantum: f64,
    tiers: TierPolicy,
) -> StateAwareReport {
    let request = AnalysisRequest::builder(program.clone())
        .noise(noise.clone())
        .method(Method::StateAware { mps_width: width })
        .delta_quantum(quantum)
        .tiering(tiers)
        .build()
        .expect("valid request");
    engine
        .analyze(&request)
        .expect("analysis succeeds")
        .into_state_aware()
        .expect("state-aware report")
}

/// Collects the Gate-node ε's of a derivation in pre-order.
fn gate_epsilons(d: &Derivation, out: &mut Vec<f64>) {
    match d {
        Derivation::Skip => {}
        Derivation::Gate { epsilon, .. } => out.push(*epsilon),
        Derivation::Seq { children } => children.iter().for_each(|c| gate_epsilons(c, out)),
        Derivation::Meas { zero, one, .. } => {
            if let Some(z) = zero {
                gate_epsilons(z, out);
            }
            if let Some(o) = one {
                gate_epsilons(o, out);
            }
        }
    }
}

/// Every Tier 0 answer dominates the SDP-certified optimum, gate by gate,
/// across the whole determinism workload suite (the acceptance criterion).
#[test]
fn closed_form_dominates_sdp_optimum_on_determinism_suite() {
    let noise = NoiseModel::uniform_bit_flip(NOISE_P);
    for (name, program, width) in determinism_suite() {
        // Fresh engines: the exact run is the pre-tiering oracle, the fast
        // run answers every (Pauli) judgment with the Tier 0 closed form.
        let exact = analyze(
            &Engine::new(),
            &program,
            &noise,
            width,
            1e-6,
            TierPolicy::Exact,
        );
        let fast = analyze(
            &Engine::new(),
            &program,
            &noise,
            width,
            1e-6,
            TierPolicy::Fast,
        );

        let gates = fast.derivation().gate_rule_count();
        assert_eq!(
            fast.tier_counts().closed_form,
            gates,
            "{name}: bit-flip noise is Pauli — every judgment must be Tier 0"
        );
        assert_eq!(fast.sdp_solves(), 0, "{name}: no SDP should have run");
        assert_eq!(fast.ip_iterations(), 0, "{name}");

        let mut exact_eps = Vec::new();
        let mut fast_eps = Vec::new();
        gate_epsilons(exact.derivation(), &mut exact_eps);
        gate_epsilons(fast.derivation(), &mut fast_eps);
        assert_eq!(exact_eps.len(), fast_eps.len(), "{name}: tree shape");
        for (i, (e, f)) in exact_eps.iter().zip(&fast_eps).enumerate() {
            // The SDP's certified bound sits within solver tolerance of the
            // true optimum; the closed form must dominate it up to that
            // slack — an undercut beyond it would be unsound.
            assert!(
                f + 1e-7 >= *e,
                "{name} gate {i}: closed form {f:e} undercuts SDP optimum {e:e}"
            );
        }
        // Whole-program: the fast bound dominates the exact one (same
        // slack), and is itself bounded by the trivial per-gate sum.
        assert!(fast.error_bound() + 1e-6 >= exact.error_bound(), "{name}");
        assert!(
            fast.error_bound() <= gates as f64 * NOISE_P + 1e-6,
            "{name}: closed form should be ≈ gate_count · p, got {:e}",
            fast.error_bound()
        );
    }
}

/// Channel-level pin: for Pauli-type channels the closed form matches the
/// SDP to solver tolerance and dominates the SDP's primal estimate (a true
/// lower bound on the optimum).
#[test]
fn closed_form_matches_sdp_per_channel() {
    use gleipnir::core::unconstrained_diamond;
    use gleipnir::noise::classify_residual;
    use gleipnir::sdp::SolverOptions;

    let one_qubit: Vec<(Channel, CMat)> = vec![
        (Channel::bit_flip(1e-3), Gate::H.matrix()),
        (Channel::phase_flip(0.05), Gate::Ry(0.7).matrix()),
        (Channel::depolarizing(0.02), Gate::S.matrix()),
    ];
    let two_qubit: Vec<(Channel, CMat)> = vec![
        (Channel::bit_flip_first_of_two(1e-3), Gate::Cnot.matrix()),
        (Channel::depolarizing2(0.01), Gate::Cnot.matrix()),
    ];
    for (ch, gate) in one_qubit.into_iter().chain(two_qubit) {
        let noisy = ch.after_unitary(&gate);
        let closed = classify_residual(&gate, noisy.kraus())
            .closed_form_diamond_bound()
            .unwrap_or_else(|| panic!("{ch} should classify as Pauli-type"));
        let sdp = unconstrained_diamond(&gate, &noisy, &SolverOptions::default()).unwrap();
        assert!(
            closed >= sdp.estimate - 1e-7,
            "{ch}: closed form {closed:e} below the SDP primal estimate {:e}",
            sdp.estimate
        );
        assert!(
            (closed - sdp.bound).abs() < 1e-5,
            "{ch}: closed form {closed:e} vs SDP bound {:e} — Pauli channels should be tight",
            sdp.bound
        );
    }
}

/// Determinism under tiering: for a fixed prior engine state, a
/// fast-policy analysis is bit-identical across pool sizes, whether its
/// judgments land on the closed form (bit flip) or on cold solves next to
/// cached certificates from another δ quantization (amplitude damping).
#[test]
fn fast_policy_analysis_is_pool_size_invariant() {
    let program = ising_chain(5, 3, 1.0, 1.0, 0.1);
    let run = |threads: usize| {
        let engine = Engine::with_options(gleipnir::core::EngineOptions {
            solver: Default::default(),
            threads,
        })
        .expect("explicit thread cap never fails");
        [
            NoiseModel::uniform_bit_flip(NOISE_P),
            NoiseModel::uniform_amplitude_damping(NOISE_P),
        ]
        .map(|noise| {
            let _ = analyze(&engine, &program, &noise, 2, 1e-6, TierPolicy::Exact);
            let fast = analyze(&engine, &program, &noise, 2, 1.1e-6, TierPolicy::Fast);
            (
                fast.error_bound().to_bits(),
                fast.tier_counts(),
                fast.derivation().pretty(),
            )
        })
    };
    for (sequential, wide) in run(1).into_iter().zip(run(4)) {
        assert_eq!(sequential.0, wide.0, "ε must not depend on pool size");
        assert_eq!(sequential.1, wide.1, "tier decisions must not either");
        assert_eq!(sequential.2, wide.2);
    }
}

/// Tier 0 leaves no trace an exact-policy request could observe: after a
/// fast-policy run on a shared engine, an exact-policy run of the same
/// request still produces the bit-exact cold-engine ε (closed forms are
/// kept out of the cache *and* the in-flight protocol).
#[test]
fn fast_policy_leaves_no_closed_form_trace_for_exact_requests() {
    let program = ising_chain(5, 3, 1.0, 1.0, 0.1);
    let noise = NoiseModel::uniform_bit_flip(NOISE_P);

    let oracle = analyze(&Engine::new(), &program, &noise, 2, 1e-6, TierPolicy::Exact);

    let engine = Engine::new();
    let fast = analyze(&engine, &program, &noise, 2, 1e-6, TierPolicy::Fast);
    assert_eq!(
        fast.tier_counts().closed_form,
        fast.derivation().gate_rule_count()
    );
    assert_eq!(
        engine.cache_stats().entries,
        0,
        "closed forms must not populate the cache"
    );
    let exact = analyze(&engine, &program, &noise, 2, 1e-6, TierPolicy::Exact);
    assert_eq!(
        exact.error_bound().to_bits(),
        oracle.error_bound().to_bits(),
        "the exact run after a fast run must match a cold engine bit for bit"
    );
    assert_eq!(exact.sdp_solves(), oracle.sdp_solves());
    assert_eq!(exact.cache_hits(), oracle.cache_hits());
}

/// The accounting invariant every policy preserves:
/// `gates = sdp_solves + cache_hits + closed_form`.
#[test]
fn tier_accounting_partitions_the_gates() {
    let program = ising_chain(6, 4, 1.0, 1.0, 0.1);
    for (noise, tiers) in [
        (NoiseModel::uniform_bit_flip(NOISE_P), TierPolicy::Fast),
        (NoiseModel::uniform_bit_flip(NOISE_P), TierPolicy::Exact),
        (
            NoiseModel::uniform_amplitude_damping(NOISE_P),
            TierPolicy::Fast,
        ),
    ] {
        let report = analyze(&Engine::new(), &program, &noise, 2, 1e-6, tiers);
        let gates = report.derivation().gate_rule_count();
        assert_eq!(
            report.sdp_solves() + report.cache_hits() + report.tier_counts().closed_form,
            gates,
            "every gate judgment is exactly one of: solve, hit, closed form"
        );
        // The tier split itself partitions the solves.
        let t = report.tier_counts();
        assert_eq!(t.cold, report.sdp_solves());
    }
}
