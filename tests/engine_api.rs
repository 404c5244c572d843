//! Acceptance tests for the unified `Engine` API: one long-lived engine
//! serving every analysis method, cross-width SDP-certificate reuse, and
//! fault-isolated batch analysis across worker threads.

use gleipnir::core::AdaptiveConfig;
use gleipnir::linalg::c64;
use gleipnir::prelude::*;

fn bit_flip(p: f64) -> NoiseModel {
    NoiseModel::uniform_bit_flip(p)
}

/// A circuit that genuinely entangles, so narrow MPS widths truncate and
/// the adaptive search has to climb.
fn entangling_program(n: usize) -> Program {
    let mut b = ProgramBuilder::new(n);
    for q in 0..n {
        b.h(q);
    }
    for layer in 0..2 {
        for q in 0..n - 1 {
            b.rzz(q, q + 1, 0.9 + 0.1 * layer as f64);
        }
        for q in 0..n {
            b.rx(q, 0.7);
        }
    }
    b.build()
}

fn request(program: &Program, noise: &NoiseModel, method: Method) -> AnalysisRequest {
    AnalysisRequest::builder(program.clone())
        .noise(noise.clone())
        .method(method)
        .build()
        .expect("valid request")
}

/// The tentpole scenario: ONE engine instance serves a state-aware run, an
/// adaptive run, a worst-case run, and a batch of four requests — and the
/// adaptive run demonstrates nonzero cross-width cache reuse.
#[test]
fn one_engine_serves_every_method() {
    let engine = Engine::new();
    let program = entangling_program(5);
    let noise = bit_flip(1e-3);

    // 1. State-aware at a fixed width.
    let state = engine
        .analyze(&request(
            &program,
            &noise,
            Method::StateAware { mps_width: 8 },
        ))
        .expect("state-aware run");
    assert!(state.error_bound() > 0.0);

    // 2. Adaptive over widths (shares the certificates the w = 8 run and
    //    its own earlier widths already paid for).
    let adaptive = engine
        .analyze(&request(
            &program,
            &noise,
            Method::Adaptive(AdaptiveConfig {
                start_width: 1,
                max_width: 8,
                min_relative_improvement: 0.0,
            }),
        ))
        .expect("adaptive run");
    let trajectory = adaptive.trajectory().expect("adaptive trajectory");
    assert!(trajectory.len() >= 2, "expected several widths");
    assert!(
        trajectory[1..].iter().any(|s| s.cache_hits > 0),
        "later widths must reuse earlier widths' certificates: {trajectory:?}"
    );

    // 3. Worst case on the same engine; the state-aware bound must not
    //    exceed it.
    let worst = engine
        .analyze(&request(&program, &noise, Method::WorstCase))
        .expect("worst-case run");
    assert!(adaptive.error_bound() <= worst.error_bound() + 1e-9);
    assert!(state.error_bound() <= worst.error_bound() + 1e-9);

    // 4. A batch of four requests on the same engine, fanned out over at
    //    least two worker threads.
    let batch = vec![
        request(&program, &noise, Method::StateAware { mps_width: 4 }),
        request(&program, &noise, Method::StateAware { mps_width: 8 }),
        request(&program, &noise, Method::WorstCase),
        request(
            &program,
            &noise,
            Method::Adaptive(AdaptiveConfig {
                start_width: 2,
                max_width: 4,
                min_relative_improvement: 0.0,
            }),
        ),
    ];
    let outcome = engine.analyze_batch_detailed(&batch);
    assert_eq!(outcome.results.len(), 4);
    // `worker_threads` counts threads that actually processed ≥ 1 request
    // (not threads spawned), so on a loaded or single-core host the caller
    // may legitimately claim the whole batch itself.
    if std::env::var("GLEIPNIR_THREADS").is_err() {
        assert!(engine.threads() >= 2, "engine pool must default to ≥ 2");
    }
    assert!(
        outcome.worker_threads >= 1 && outcome.worker_threads <= batch.len().min(engine.threads()),
        "worker_threads {} out of range for a {}-request batch on {} threads",
        outcome.worker_threads,
        batch.len(),
        engine.threads()
    );
    for (i, result) in outcome.results.iter().enumerate() {
        let report = result
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert!(report.error_bound() > 0.0, "request {i}");
    }
    // The whole batch re-runs judgments the earlier runs certified: it must
    // be answered overwhelmingly from the shared cache.
    let batch_hits: usize = outcome
        .results
        .iter()
        .map(|r| r.as_ref().unwrap().cache_hits())
        .sum();
    assert!(batch_hits > 0, "batch must hit the shared cache");

    let stats = engine.cache_stats();
    assert!(stats.hits > 0 && stats.entries > 0, "{stats:?}");
}

/// Cross-width reuse in isolation: a fresh engine, one adaptive request —
/// the second width must hit certificates the first width stored.
#[test]
fn adaptive_reuses_certificates_across_widths() {
    let engine = Engine::new();
    let program = entangling_program(5);
    let adaptive = engine
        .analyze(&request(
            &program,
            &bit_flip(1e-3),
            Method::Adaptive(AdaptiveConfig {
                start_width: 1,
                max_width: 4,
                min_relative_improvement: 0.0,
            }),
        ))
        .expect("adaptive run");
    let trajectory = adaptive.trajectory().expect("trajectory");
    assert!(trajectory.len() >= 2, "w = 1 must truncate: {trajectory:?}");
    // The first gate's judgment (δ = 0, pristine |0…0⟩ locals) is identical
    // at every width, so the second width starts with guaranteed hits.
    assert!(
        trajectory[1].cache_hits > 0,
        "second width saw no cache hits: {trajectory:?}"
    );
}

/// Requests with different δ buckets must never share certificates: a
/// bound solved at a tiny effective δ would unsoundly certify a judgment
/// whose bucket denotes a much larger δ.
#[test]
fn different_delta_quanta_do_not_share_certificates() {
    let engine = Engine::new();
    let noise = bit_flip(1e-4);
    // An H gate is where state-awareness bites: on |+⟩ the bit flip is
    // invisible (ε ≈ 2e-7), but a δ-weakened judgment admits inputs away
    // from |0⟩ and the certified bound grows by orders of magnitude.
    let mut b = ProgramBuilder::new(1);
    b.h(0);
    let program = b.build();

    let run = |q: f64| {
        engine
            .analyze(
                &AnalysisRequest::builder(program.clone())
                    .noise(noise.clone())
                    .method(Method::StateAware { mps_width: 2 })
                    .delta_quantum(q)
                    .build()
                    .unwrap(),
            )
            .unwrap()
    };
    let tight = run(1e-6);
    // Same gate, same ρ′, same bucket index (1), but a vastly looser
    // effective δ: this must be a cache miss and a much looser bound.
    let loose = run(0.3);
    assert_eq!(loose.cache_hits(), 0, "crossed δ-quantum cache boundary");
    assert!(
        loose.error_bound() > 10.0 * tight.error_bound(),
        "loose-δ bound {} must not reuse the tight-δ certificate {}",
        loose.error_bound(),
        tight.error_bound()
    );
}

/// A δ bucket width tiny enough to overflow the bucket index must not
/// wrap to bucket 0 (which would certify at δ_eff = 0, unsoundly): the
/// engine bypasses the cache and solves at the exact δ.
#[test]
fn subnormal_delta_quantum_stays_sound() {
    let engine = Engine::new();
    let program = entangling_program(4); // w = 1 accumulates a large δ
    let run = |q: Option<f64>| {
        let mut b = AnalysisRequest::builder(program.clone())
            .noise(bit_flip(1e-3))
            .method(Method::StateAware { mps_width: 1 });
        if let Some(q) = q {
            b = b.delta_quantum(q);
        } else {
            b = b.cache(false);
        }
        engine.analyze(&b.build().unwrap()).unwrap()
    };
    let overflowing = run(Some(1e-300));
    let exact = run(None);
    // δ / 1e-300 overflows the bucket index for every truncated gate, so
    // those judgments must fall back to exact uncached solves and agree
    // with the cache-disabled run.
    assert!(
        (overflowing.error_bound() - exact.error_bound()).abs() < 1e-9,
        "tiny-quantum bound {} diverged from exact bound {}",
        overflowing.error_bound(),
        exact.error_bound()
    );
}

/// A failing request must report its own error and leave its batch
/// siblings untouched.
#[test]
fn batch_isolates_failing_requests() {
    let engine = Engine::new();
    let noise = bit_flip(1e-4);

    let mut b = ProgramBuilder::new(2);
    b.h(0).cnot(0, 1);
    let ghz = b.build();

    // LQR rejects branching programs at run time: the poisoned sibling.
    let mut b = ProgramBuilder::new(2);
    b.h(0).if_measure(
        0,
        |z| {
            z.x(1);
        },
        |o| {
            o.z(1);
        },
    );
    let branching = b.build();

    let batch = vec![
        request(&ghz, &noise, Method::StateAware { mps_width: 4 }),
        request(&branching, &noise, Method::LqrFullSim),
        request(&ghz, &noise, Method::WorstCase),
        request(&ghz, &noise, Method::LqrFullSim),
    ];
    let outcome = engine.analyze_batch_detailed(&batch);
    assert_eq!(outcome.results.len(), 4);
    assert!(
        matches!(outcome.results[1], Err(AnalysisError::Unsupported(_))),
        "branching LQR must fail with Unsupported"
    );
    assert!(outcome.results[0].is_ok(), "sibling 0 sunk");
    assert!(outcome.results[2].is_ok(), "sibling 2 sunk");
    assert!(outcome.results[3].is_ok(), "sibling 3 sunk");
}

/// Request validation converges on `AnalysisError` instead of panicking.
#[test]
fn invalid_requests_fail_at_build_time() {
    let program = ProgramBuilder::new(2).build();

    let err = AnalysisRequest::builder(program.clone())
        .method(Method::StateAware { mps_width: 0 })
        .build()
        .unwrap_err();
    assert!(matches!(err, AnalysisError::InvalidConfig(_)), "{err}");

    let err = AnalysisRequest::builder(program.clone())
        .method(Method::Adaptive(AdaptiveConfig {
            start_width: 16,
            max_width: 2,
            min_relative_improvement: 0.0,
        }))
        .build()
        .unwrap_err();
    assert!(matches!(err, AnalysisError::InvalidConfig(_)), "{err}");

    let err = AnalysisRequest::builder(program.clone())
        .input(&BasisState::zeros(3))
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            AnalysisError::WidthMismatch {
                input: 3,
                program: 2
            }
        ),
        "{err}"
    );

    let err = AnalysisRequest::builder(program.clone())
        .delta_quantum(0.0)
        .build()
        .unwrap_err();
    assert!(matches!(err, AnalysisError::InvalidConfig(_)), "{err}");

    // Product inputs must be normalizable.
    let err = AnalysisRequest::builder(program)
        .input(InputState::product(vec![
            [c64(0.0, 0.0), c64(0.0, 0.0)],
            [c64(1.0, 0.0), c64(0.0, 0.0)],
        ]))
        .build()
        .unwrap_err();
    assert!(matches!(err, AnalysisError::InvalidConfig(_)), "{err}");
}

/// The generalized `InputState`: product and explicit-MPS inputs agree
/// with the equivalent basis-state-plus-prefix analysis.
#[test]
fn product_and_mps_inputs_are_supported() {
    let engine = Engine::new();
    let noise = bit_flip(1e-4);

    // A Z gate on |+⟩: its bit-flip noise is invisible (X|+⟩ = |+⟩), so
    // the bound is far below the |0⟩-input bound (where X is maximally
    // visible).
    let mut b = ProgramBuilder::new(1);
    b.z(0);
    let program = b.build();

    let from_plus = engine
        .analyze(
            &AnalysisRequest::builder(program.clone())
                .input(InputState::plus(1))
                .noise(noise.clone())
                .method(Method::StateAware { mps_width: 2 })
                .build()
                .unwrap(),
        )
        .unwrap();
    let from_zero = engine
        .analyze(
            &AnalysisRequest::builder(program.clone())
                .noise(noise.clone())
                .method(Method::StateAware { mps_width: 2 })
                .build()
                .unwrap(),
        )
        .unwrap();
    assert!(
        from_plus.error_bound() < 0.1 * from_zero.error_bound(),
        "plus-input {} should be far below zero-input {}",
        from_plus.error_bound(),
        from_zero.error_bound()
    );

    // An explicit MPS input equal to |+⟩ gives the same bound.
    let mut plus_mps = Mps::zero_state(1, MpsConfig::with_width(2));
    plus_mps.apply_gate(&Gate::H, &[0]);
    let from_mps = engine
        .analyze(
            &AnalysisRequest::builder(program)
                .input(InputState::mps(plus_mps))
                .noise(noise)
                .method(Method::StateAware { mps_width: 2 })
                .build()
                .unwrap(),
        )
        .unwrap();
    assert!(
        (from_mps.error_bound() - from_plus.error_bound()).abs() < 1e-9,
        "mps-input {} vs product-input {}",
        from_mps.error_bound(),
        from_plus.error_bound()
    );
}

/// The unified `Report` enum exposes method-specific extras behind common
/// accessors.
#[test]
fn report_accessors_dispatch_by_method() {
    let engine = Engine::new();
    let mut b = ProgramBuilder::new(2);
    b.h(0).cnot(0, 1);
    let program = b.build();
    let noise = bit_flip(1e-4);

    let state = engine
        .analyze(&request(
            &program,
            &noise,
            Method::StateAware { mps_width: 4 },
        ))
        .unwrap();
    assert_eq!(state.method_name(), "state_aware");
    assert!(state.derivation().is_some());
    assert!(state.tn_delta().is_some());
    assert!(state.trajectory().is_none());

    let worst = engine
        .analyze(&request(&program, &noise, Method::WorstCase))
        .unwrap();
    assert_eq!(worst.method_name(), "worst_case");
    assert!(worst.derivation().is_none());
    assert!(worst.as_worst_case().is_some());

    let lqr = engine
        .analyze(&request(&program, &noise, Method::LqrFullSim))
        .unwrap();
    assert_eq!(lqr.method_name(), "lqr_full_sim");
    assert!(lqr.as_lqr().is_some());
    // LQR ≈ state-aware on an exactly-represented circuit.
    assert!((lqr.error_bound() - state.error_bound()).abs() < 1e-5);
}

/// The plan walk's call stack must not grow with program length: a long
/// straight-line program analyzes on a thread with the default spawned
/// stack (2 MiB), not just on an 8 MiB main thread.
#[test]
fn long_straight_line_program_fits_a_default_thread_stack() {
    let mut b = ProgramBuilder::new(1);
    for _ in 0..25_000 {
        b.h(0).x(0);
    }
    let request = request(
        &b.build(),
        &bit_flip(1e-4),
        Method::StateAware { mps_width: 8 },
    );
    let report = std::thread::spawn(move || Engine::new().analyze(&request))
        .join()
        .expect("analysis thread survives")
        .expect("analysis succeeds");
    assert_eq!(report.sdp_solves() + report.cache_hits(), 50_000);
    assert!(report.error_bound() > 0.0);
}

/// `qubits 1;` followed by `k` repeats of `prefix` and a two-way
/// measurement.
fn measured_program(prefix: &str, k: usize) -> Program {
    let fork = format!("{prefix} if q0 == 0 {{ skip; }} else {{ skip; }}\n");
    gleipnir::circuit::parse(&format!("qubits 1;\n{}", fork.repeat(k))).expect("valid GLQ")
}

fn analyze_w2(program: &Program) -> Result<Report, AnalysisError> {
    Engine::new().analyze(&request(
        program,
        &bit_flip(1e-4),
        Method::StateAware { mps_width: 2 },
    ))
}

/// k forks after `h` plan 2^k paths: past the path budget the plan is a
/// typed error returned at once, not hours of walking; below it the
/// bound keeps its bits.
#[test]
fn measurement_paths_over_budget_are_a_typed_error() {
    let start = std::time::Instant::now();
    let err = analyze_w2(&measured_program("h q0;", 40)).expect_err("2^40 paths");
    assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(1),
        "refused after {:?}",
        start.elapsed()
    );

    let report = analyze_w2(&measured_program("h q0;", 8)).expect("256 paths");
    assert_eq!(report.sdp_solves() + report.cache_hits(), 255);
    assert_eq!(report.error_bound().to_bits(), 0x3ebb02363c580000);
}

/// Deterministic measurements prune a branch, so one path can carry many
/// of them: up to the depth budget they analyze on a default 2 MiB
/// thread stack; one more is a typed error, not a stack overflow.
#[test]
fn measurement_depth_over_budget_is_a_typed_error() {
    let at_budget = measured_program("x q0; x q0;", 256);
    let report = std::thread::spawn(move || analyze_w2(&at_budget))
        .join()
        .expect("analysis thread survives")
        .expect("256 measurements on one path");
    assert_eq!(report.sdp_solves() + report.cache_hits(), 512);

    let err = analyze_w2(&measured_program("x q0; x q0;", 10_000)).expect_err("too deep");
    assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
}
