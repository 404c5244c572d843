//! Ising-288 pins: the certified ε bits and interior-point iteration
//! counts of the 288-gate Ising chain under bit-flip and amplitude-damping
//! noise, exactly as `gleipnir analyze FILE --width 8 --noise SPEC` (and
//! the repository benchmark's `cold_suite`) computes them.
//!
//! Every solver kernel may only move wall time, never bits. The iteration
//! count is a bit-for-bit proxy for the whole interior-point trajectory: a
//! single reassociated FLOP in any lane of any solve shifts it. The pins
//! are checked on a one-thread engine and on the default pool, so they
//! also hold whichever solves share a lock-step batch.
//!
//! The fast tier policy is pinned too: bit-flip noise is a Pauli mixture,
//! so the Tier 0 closed form answers every judgment and the solver is
//! never entered.
//!
//! A traced one-thread run of the amplitude-damping pin must come back
//! complete: every span of the analysis lands in the one recording
//! thread's span ring, so the ring must hold them all.

use gleipnir::circuit::{parse, pretty};
use gleipnir::core::{AnalysisRequest, Engine, EngineOptions};
use gleipnir::sdp::SolverProfile;
use gleipnir::server::spec;
use gleipnir::telemetry::{self, detail, SpanName};
use gleipnir::workloads::ising_chain;

/// `(noise spec, ε, interior-point iterations)`.
const PINS: [(&str, f64, usize); 2] = [
    ("bitflip:1e-4", 2.29873639732464e-2, 2934),
    ("ampdamp:1e-4", 2.558616029593075e-2, 2521),
];

/// The fast-policy bit-flip ε: every gate's closed form, composed.
const FAST_BITFLIP_EPS: f64 = 2.8800000000038472e-2;

/// `tier` is the `gleipnir analyze --tier` spelling (`None` = exact).
fn request(noise: &str, tier: Option<&str>) -> AnalysisRequest {
    let program = parse(&pretty(&ising_chain(12, 12, 1.0, 1.0, 0.1))).expect("Ising-288 parses");
    AnalysisRequest::builder(program)
        .noise(spec::parse_noise_spec(noise).expect("noise spec"))
        .method(spec::parse_method_spec(None, 8).expect("method spec"))
        .tiering(spec::parse_tier_spec(tier).expect("tier spec"))
        .build()
        .expect("valid request")
}

/// A one-thread engine and, when it differs, the default pool.
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

#[test]
fn ising288_epsilon_bits_and_iterations_are_pinned() {
    for (threads, engine) in engines() {
        for (noise, eps, iterations) in PINS {
            let report = engine
                .analyze(&request(noise, None))
                .expect("analysis succeeds");
            assert_eq!(
                report.error_bound().to_bits(),
                eps.to_bits(),
                "{noise} on {threads} thread(s): ε {:e}, pinned {eps:e}",
                report.error_bound()
            );
            assert_eq!(
                report.ip_iterations(),
                iterations,
                "{noise} on {threads} thread(s): interior-point iterations"
            );
            let profile = report.solver_profile();
            assert!(profile.total_ms > 0.0, "{noise}: live solver profile");
            assert!(
                0.5 * profile.total_ms <= profile.phase_ms()
                    && profile.phase_ms() <= profile.total_ms,
                "{noise}: phases {} ms vs total {} ms",
                profile.phase_ms(),
                profile.total_ms
            );
        }
    }
}

#[test]
fn ising288_fast_policy_is_all_closed_form() {
    let (_, exact_eps, exact_iterations) = PINS[0];
    assert!(
        FAST_BITFLIP_EPS >= exact_eps,
        "Tier 0 never undercuts exact"
    );
    for (threads, engine) in engines() {
        let request = request("bitflip:1e-4", Some("fast"));
        let report = engine.analyze(&request).expect("analysis succeeds");
        assert_eq!(
            report.error_bound().to_bits(),
            FAST_BITFLIP_EPS.to_bits(),
            "fast on {threads} thread(s): ε {:e}, pinned {FAST_BITFLIP_EPS:e}",
            report.error_bound()
        );
        assert_eq!(report.ip_iterations(), 0, "fast on {threads} thread(s)");
        assert!(report.ip_iterations() < exact_iterations);
        assert_eq!(report.sdp_solves(), 0, "fast on {threads} thread(s)");
        assert_eq!(request.program().gate_count(), 288);
        assert_eq!(
            report.tier_counts().closed_form,
            request.program().gate_count(),
            "fast on {threads} thread(s): every judgment is Tier 0"
        );
        assert_eq!(
            report.solver_profile(),
            SolverProfile::default(),
            "fast on {threads} thread(s): the solver never ran"
        );
    }
}

#[test]
fn ising288_one_thread_trace_is_complete() {
    let (noise, eps, iterations) = PINS[1];
    let engine = Engine::with_options(EngineOptions {
        solver: Default::default(),
        threads: 1,
    })
    .expect("engine");
    let trace_id = telemetry::next_trace_id();
    let ctx = telemetry::TraceCtx {
        trace_id,
        parent: telemetry::next_span_id(),
    };
    let report = telemetry::with_ctx(ctx, || engine.analyze(&request(noise, None)))
        .expect("analysis succeeds");
    telemetry::global().finish_trace(trace_id);
    let spans = telemetry::global()
        .trace(trace_id)
        .expect("trace stored")
        .spans;
    assert_eq!(
        report.error_bound().to_bits(),
        eps.to_bits(),
        "tracing moved ε"
    );
    assert_eq!(report.ip_iterations(), iterations);

    let named = |name: SpanName| spans.iter().filter(move |s| s.name == name);
    assert!(named(SpanName::Mps).count() >= 1, "no mps span");
    assert!(named(SpanName::Plan).count() >= 1, "no plan span");
    let solves: Vec<_> = named(SpanName::Obligation)
        .filter(|s| {
            matches!(
                s.detail,
                detail::OBLIGATION_LEAD_COLD | detail::OBLIGATION_EXACT
            )
        })
        .collect();
    assert_eq!(
        solves.len(),
        report.sdp_solves(),
        "one obligation span per SDP solve ({} spans in the trace)",
        spans.len()
    );
    for obligation in solves {
        let mut phases: Vec<SpanName> = spans
            .iter()
            .filter(|s| s.parent == obligation.id)
            .map(|s| s.name)
            .collect();
        phases.sort_by_key(|&name| name as u16);
        assert_eq!(
            phases,
            (0..7).map(SpanName::phase).collect::<Vec<_>>(),
            "obligation {} phase spans",
            obligation.id
        );
    }
}
