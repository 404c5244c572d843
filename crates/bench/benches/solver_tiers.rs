//! Tiered bound-engine benchmark on the 288-gate Ising workload
//! (`ising_chain(12, 12)` — the example PR 3 measured at ≥ 99.9% solve
//! wall). Emits a machine-readable **`BENCH_solver.json`** (override the
//! path with `BENCH_SOLVER_JSON_PATH`): per-pass tier counts,
//! interior-point iterations, and wall time. The counts it reports (Tier 0
//! alive, fewer IP iterations fast than exact) are pinned inside
//! `cargo test` by `tests/solver_pins.rs`.
//!
//! Passes (see `docs/PERFORMANCE.md` for how to read the artifact):
//!
//! * `bitflip_exact` — exact policy, Pauli noise: every judgment is a cold
//!   SDP solve (the pre-tiering engine; the iteration baseline).
//! * `bitflip_fast` — fast policy, same requests: bit-flip noise is a
//!   Pauli mixture, so Tier 0 answers **every** judgment analytically —
//!   zero IP iterations.
//! * `ampdamp_seed` — amplitude damping (no Pauli structure → no Tier 0)
//!   solved cold at δ quantum 1e-6.

use criterion::{criterion_group, criterion_main, Criterion};
use gleipnir_circuit::Gate;
use gleipnir_core::{unconstrained_diamond, AnalysisRequest, Engine, Method, Report, TierPolicy};
use gleipnir_noise::{classify_residual, Channel, NoiseModel};
use gleipnir_sdp::{SolverOptions, SolverProfile};
use gleipnir_workloads::ising_chain;
use std::time::Instant;

const WIDTH: usize = 8;

fn program() -> gleipnir_circuit::Program {
    ising_chain(12, 12, 1.0, 1.0, 0.1)
}

fn request(noise: NoiseModel, quantum: f64, tiers: TierPolicy) -> AnalysisRequest {
    AnalysisRequest::builder(program())
        .noise(noise)
        .method(Method::StateAware { mps_width: WIDTH })
        .delta_quantum(quantum)
        .tiering(tiers)
        .build()
        .expect("valid request")
}

/// One machine-readable pass record.
struct Pass {
    name: &'static str,
    noise: &'static str,
    policy: &'static str,
    sdp_solves: usize,
    cache_hits: usize,
    closed_form: usize,
    cold: usize,
    ip_iterations: usize,
    wall_ms: f64,
    error_bound: f64,
    profile: SolverProfile,
}

fn pass(
    name: &'static str,
    noise: &'static str,
    policy: &'static str,
    engine: &Engine,
    req: &AnalysisRequest,
) -> Pass {
    let t0 = Instant::now();
    let report: Report = engine.analyze(req).expect("pass succeeds");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let tiers = report.tier_counts();
    Pass {
        name,
        noise,
        policy,
        sdp_solves: report.sdp_solves(),
        cache_hits: report.cache_hits(),
        closed_form: tiers.closed_form,
        cold: tiers.cold,
        ip_iterations: report.ip_iterations(),
        wall_ms,
        error_bound: report.error_bound(),
        profile: report.solver_profile(),
    }
}

fn emit_json() {
    let p = program();
    let bitflip = || NoiseModel::uniform_bit_flip(1e-4);
    let ampdamp = || NoiseModel::uniform_amplitude_damping(1e-4);

    // Tier 0 demonstration: tiering OFF vs ON on the Pauli workload.
    let off = pass(
        "bitflip_exact",
        "bitflip:1e-4",
        "exact",
        &Engine::new(),
        &request(bitflip(), 1e-6, TierPolicy::Exact),
    );
    let on = pass(
        "bitflip_fast",
        "bitflip:1e-4",
        "fast",
        &Engine::new(),
        &request(bitflip(), 1e-6, TierPolicy::Fast),
    );

    let seed = pass(
        "ampdamp_seed",
        "ampdamp:1e-4",
        "exact",
        &Engine::new(),
        &request(ampdamp(), 1e-6, TierPolicy::Exact),
    );

    let passes = [&off, &on, &seed];
    let pass_json: Vec<String> = passes
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"noise\":\"{}\",\"policy\":\"{}\",",
                    "\"sdp_solves\":{},\"cache_hits\":{},",
                    "\"tiers\":{{\"closed_form\":{},\"cold\":{}}},",
                    "\"ip_iterations\":{},\"wall_ms\":{:.3},\"error_bound\":{:e},",
                    "\"profile\":{{\"setup_ms\":{:.3},\"residual_ms\":{:.3},",
                    "\"schur_ms\":{:.3},\"factor_ms\":{:.3},\"direction_ms\":{:.3},",
                    "\"step_ms\":{:.3},\"cert_ms\":{:.3},\"total_ms\":{:.3},",
                    "\"loop_allocs\":{}}}}}"
                ),
                s.name,
                s.noise,
                s.policy,
                s.sdp_solves,
                s.cache_hits,
                s.closed_form,
                s.cold,
                s.ip_iterations,
                s.wall_ms,
                s.error_bound,
                s.profile.setup_ms,
                s.profile.residual_ms,
                s.profile.schur_ms,
                s.profile.factor_ms,
                s.profile.direction_ms,
                s.profile.step_ms,
                s.profile.cert_ms,
                s.profile.total_ms,
                s.profile.loop_allocs
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"bench\":\"solver_tiers\",",
            "\"workload\":{{\"name\":\"ising_chain_12x12\",\"qubits\":{},\"gates\":{},\"width\":{}}},",
            "\"ising288_ip_iterations\":{{\"tiering_off\":{},\"tiering_on\":{}}},",
            "\"passes\":[{}]}}\n"
        ),
        p.n_qubits(),
        p.gate_count(),
        WIDTH,
        off.ip_iterations,
        on.ip_iterations,
        pass_json.join(",")
    );
    // Default to the repo root so `cargo bench` from anywhere in the
    // workspace drops the artifact where CI collects it.
    let path = std::env::var("BENCH_SOLVER_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print!("{json}");
}

/// Human-readable micro-comparison: what one gate judgment costs per tier
/// (Tier 0 classification + closed form vs a cold SDP solve).
fn bench_per_gate(c: &mut Criterion) {
    let gate = Gate::Cnot.matrix();
    let noisy = Channel::bit_flip_first_of_two(1e-4).after_unitary(&gate);
    let mut group = c.benchmark_group("per_gate_bound");
    group.sample_size(10);
    group.bench_function("tier0_closed_form", |b| {
        b.iter(|| {
            classify_residual(&gate, noisy.kraus())
                .closed_form_diamond_bound()
                .expect("Pauli closed form")
        })
    });
    group.bench_function("cold_sdp", |b| {
        b.iter(|| unconstrained_diamond(&gate, &noisy, &SolverOptions::default()).unwrap())
    });
    group.finish();
}

fn bench_json(_c: &mut Criterion) {
    // The JSON pass runs each analysis exactly once (each is itself a
    // whole 288-gate workload), both under `cargo bench` and `--test`
    // smoke runs.
    emit_json();
}

criterion_group!(benches, bench_per_gate, bench_json);
criterion_main!(benches);
