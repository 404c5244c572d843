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

use gleipnir::circuit::{parse, pretty};
use gleipnir::core::{AnalysisRequest, Engine, EngineOptions};
use gleipnir::server::spec;
use gleipnir::workloads::ising_chain;

/// `(noise spec, ε, interior-point iterations)`.
const PINS: [(&str, f64, usize); 2] = [
    ("bitflip:1e-4", 2.29873639732464e-2, 2934),
    ("ampdamp:1e-4", 2.558616029593075e-2, 2521),
];

fn request(noise: &str) -> AnalysisRequest {
    let program = parse(&pretty(&ising_chain(12, 12, 1.0, 1.0, 0.1))).expect("Ising-288 parses");
    AnalysisRequest::builder(program)
        .noise(spec::parse_noise_spec(noise).expect("noise spec"))
        .method(spec::parse_method_spec(None, 8).expect("method spec"))
        .tiering(spec::parse_tier_spec(None).expect("tier spec"))
        .build()
        .expect("valid request")
}

#[test]
fn ising288_epsilon_bits_and_iterations_are_pinned() {
    let default_threads = Engine::new().threads();
    let mut pools = vec![1];
    if default_threads != 1 {
        pools.push(default_threads);
    }
    for threads in pools {
        let engine = Engine::with_options(EngineOptions {
            solver: Default::default(),
            threads,
        })
        .expect("engine");
        for (noise, eps, iterations) in PINS {
            let report = engine.analyze(&request(noise)).expect("analysis succeeds");
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
