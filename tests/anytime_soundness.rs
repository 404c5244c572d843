//! Soundness of the anytime analysis subsystem (docs/SOUNDNESS.md,
//! obligation 8), pinned under the deterministic scheduler harness.
//!
//! The contract has three legs:
//!
//! * every **intermediate** answer is a certified upper bound on the
//!   final ε — across the whole determinism suite and across every
//!   scripted interleaving;
//! * the **refined** ε is bit-identical to a cold `exact`-policy
//!   analysis of the same request (the anytime path is a latency
//!   optimization, never a new bound) — checked against a fresh engine
//!   and, transitively, the committed sequential oracle;
//! * the Tier-0 first answer **never touches the cache**: no entries, no
//!   hit/miss counters, no in-flight dedup leads.
//!
//! Interleavings are forced with the scripted pool driver
//! (`Engine::set_scripted_refinements` / `run_next_refinement`) and the
//! one-shot hold gate (`Engine::hold_next_refinement`) — no sleeps
//! anywhere. CI runs this suite under both `GLEIPNIR_THREADS=1` and the
//! default pool.

use gleipnir::core::{
    AnalysisRequest, Engine, EngineOptions, Method, PriorityClass, RefineStatus, TenantQuotas,
};
use gleipnir::noise::NoiseModel;
use gleipnir::workloads::{determinism_suite, ising_chain};
use std::sync::Arc;
use std::time::Duration;

const NOISE_P: f64 = 1e-3;

fn suite_request(program: &gleipnir::circuit::Program, width: usize) -> AnalysisRequest {
    AnalysisRequest::builder(program.clone())
        .noise(NoiseModel::uniform_bit_flip(NOISE_P))
        .method(Method::StateAware { mps_width: width })
        .build()
        .expect("valid suite request")
}

/// Blocks until the refinement lands (the background pool is live here,
/// so this is a plain long-poll loop, exactly what an HTTP client does).
fn wait_done(engine: &Engine, token: gleipnir::core::RefineToken) -> f64 {
    loop {
        match engine.wait_refinement(token, Duration::from_secs(5)) {
            Some(RefineStatus::Done(report)) => return report.error_bound(),
            Some(RefineStatus::Pending) => continue,
            Some(RefineStatus::Failed(msg)) => panic!("refinement failed: {msg}"),
            None => panic!("refinement token vanished"),
        }
    }
}

/// Leg 1 + leg 2 across the whole determinism suite: the first answer
/// dominates the refined ε, and the refined ε is bit-identical to a cold
/// exact analysis on a fresh engine (which the sequential-oracle suite
/// pins in turn).
#[test]
fn first_answer_dominates_and_refinement_matches_cold_exact() {
    for (name, program, width) in determinism_suite() {
        let engine = Engine::new();
        let request = suite_request(&program, width);
        let answer = engine
            .analyze_anytime(&request)
            .expect("anytime analysis starts");
        let refined = wait_done(&engine, answer.token);
        assert!(
            answer.first_bound >= refined,
            "{name}: intermediate bound {:.6e} must dominate the final ε {refined:.6e}",
            answer.first_bound
        );
        let cold = Engine::new()
            .analyze(&request)
            .expect("cold exact analysis")
            .error_bound();
        assert_eq!(
            refined.to_bits(),
            cold.to_bits(),
            "{name}: refined ε must be bit-identical to a cold exact analysis \
             ({refined:.6e} vs {cold:.6e})"
        );
    }
}

/// Leg 3: the Tier-0 first answer must not perturb the cache — no
/// entries, no hit/miss counters, no in-flight leads. Scripted mode holds
/// the refinement so only the first answer has run when we look.
#[test]
fn first_answer_never_touches_the_cache() {
    let (_, program, width) = determinism_suite()
        .into_iter()
        .find(|(name, _, _)| name == "ising6x4_w2")
        .expect("suite has the ising entry");
    let engine = Engine::new();
    engine.set_scripted_refinements(true);
    let request = suite_request(&program, width);
    let answer = engine.analyze_anytime(&request).expect("anytime starts");
    assert!(answer.first_bound.is_finite() && answer.first_bound > 0.0);
    let stats = engine.cache_stats();
    assert_eq!(
        stats.entries, 0,
        "Tier-0 answers must never enter the cache"
    );
    assert_eq!(stats.hits, 0, "cache peeks must not count as hits");
    assert_eq!(stats.misses, 0, "cache peeks must not count as misses");
    assert_eq!(
        stats.inflight_dedup, 0,
        "no in-flight leads before the solve"
    );
    // The refinement then populates the cache like any exact analysis.
    assert!(engine.run_next_refinement());
    let refined = wait_done(&engine, answer.token);
    assert!(answer.first_bound >= refined);
    assert!(engine.cache_stats().entries > 0);
}

/// Interleaving: the refinement completes *before* the client's first
/// poll. The poll must see `Done` immediately, and the stats must show a
/// completed refinement.
#[test]
fn refinement_completing_before_first_poll() {
    let (_, program, width) = &determinism_suite()[0];
    let engine = Engine::new();
    engine.set_scripted_refinements(true);
    let answer = engine
        .analyze_anytime(&suite_request(program, *width))
        .expect("anytime starts");
    assert_eq!(engine.pending_refinements(), 1);
    assert!(engine.run_next_refinement(), "scripted job must be queued");
    let Some(RefineStatus::Done(report)) = engine.refinement(answer.token) else {
        panic!("refinement ran to completion; first poll must see Done");
    };
    assert!(answer.first_bound >= report.error_bound());
    let stats = engine.refine_stats();
    assert_eq!((stats.started, stats.completed, stats.pending), (1, 1, 0));
}

/// Interleaving: the token is polled *before* the refinement runs. Both a
/// plain poll and an expired wait must report `Pending` (never block on
/// work the scheduler has not granted), and the answer arrives only after
/// the scripted driver runs the job.
#[test]
fn token_polled_before_refinement_runs() {
    let (_, program, width) = &determinism_suite()[0];
    let engine = Engine::new();
    engine.set_scripted_refinements(true);
    let answer = engine
        .analyze_anytime(&suite_request(program, *width))
        .expect("anytime starts");
    assert!(matches!(
        engine.refinement(answer.token),
        Some(RefineStatus::Pending)
    ));
    // An expired long poll is still Pending — the scripted pool cannot
    // make progress underneath us, so this is deterministic.
    assert!(matches!(
        engine.wait_refinement(answer.token, Duration::from_millis(1)),
        Some(RefineStatus::Pending)
    ));
    assert!(engine.run_next_refinement());
    let Some(RefineStatus::Done(report)) = engine.refinement(answer.token) else {
        panic!("job ran; poll must now see Done");
    };
    assert!(answer.first_bound >= report.error_bound());
}

/// Interleaving: the token is polled *mid-solve*. The hold gate parks the
/// refinement after the solve finishes but before its result is
/// published; a poll taken inside that window must still say `Pending`,
/// and releasing the gate publishes exactly the bound the solve computed.
#[test]
fn token_polled_mid_solve_sees_pending_until_publish() {
    let (_, program, width) = &determinism_suite()[0];
    let engine = Arc::new(Engine::new());
    engine.set_scripted_refinements(true);
    let gate = engine.hold_next_refinement();
    let answer = engine
        .analyze_anytime(&suite_request(program, *width))
        .expect("anytime starts");
    let runner = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || assert!(engine.run_next_refinement()))
    };
    // The gate rendezvous: the refinement has finished solving and is
    // parked at the publish point.
    gate.wait_for_arrival();
    assert!(
        matches!(engine.refinement(answer.token), Some(RefineStatus::Pending)),
        "a poll mid-solve must see Pending, not a torn result"
    );
    gate.release();
    runner.join().expect("runner thread");
    let Some(RefineStatus::Done(report)) = engine.refinement(answer.token) else {
        panic!("released refinement must publish Done");
    };
    assert!(answer.first_bound >= report.error_bound());
}

/// Two tenants saturating one priority class: quotas are per (tenant,
/// class), so tenant B's slot survives tenant A's saturation, and A's
/// other classes stay admissible. Dropping a permit frees the slot.
#[test]
fn two_tenants_saturating_one_class_stay_isolated() {
    let quotas = TenantQuotas::new(2);
    let a1 = quotas.try_admit("alice", PriorityClass::Batch);
    let a2 = quotas.try_admit("alice", PriorityClass::Batch);
    assert!(a1.is_some() && a2.is_some());
    assert!(
        quotas.try_admit("alice", PriorityClass::Batch).is_none(),
        "alice saturated her batch quota"
    );
    assert!(
        quotas
            .try_admit("alice", PriorityClass::Interactive)
            .is_some(),
        "saturation is per class, not per tenant"
    );
    assert!(
        quotas.try_admit("bob", PriorityClass::Batch).is_some(),
        "saturation is per tenant, not global"
    );
    drop(a1);
    assert!(
        quotas.try_admit("alice", PriorityClass::Batch).is_some(),
        "a released permit frees its slot"
    );
}

/// The acceptance workload: bit-flip Ising-288 (12 sites × 12 Trotter
/// layers). The anytime first answer must come back in ≤ 100 ms — while
/// the refined ε stays bit-identical to a cold exact analysis that takes
/// seconds.
#[test]
fn ising288_first_answer_is_fast_and_refinement_is_exact() {
    let program = ising_chain(12, 12, 1.0, 1.0, 0.1);
    let request = suite_request(&program, 8);
    let engine = Engine::new();
    let answer = engine.analyze_anytime(&request).expect("anytime starts");
    assert!(
        answer.first_elapsed <= Duration::from_millis(100),
        "first answer must land within 100 ms, took {:?}",
        answer.first_elapsed
    );
    assert!(
        answer.sources.closed_form > 0,
        "a cold Ising-288 first answer comes from closed forms: {:?}",
        answer.sources
    );
    let refined = wait_done(&engine, answer.token);
    assert!(answer.first_bound >= refined);
    let cold = Engine::new()
        .analyze(&request)
        .expect("cold exact analysis")
        .error_bound();
    assert_eq!(refined.to_bits(), cold.to_bits());
}

/// A warm cache makes the first answer *tighter* but never unsound: after
/// a full exact analysis, a second anytime request answers every judgment
/// from cold certificates — the first bound then *equals* the final ε.
#[test]
fn warm_cache_first_answer_equals_final_epsilon() {
    let (_, program, width) = &determinism_suite()[0];
    let engine = Engine::new();
    let request = suite_request(program, *width);
    let exact = engine.analyze(&request).expect("warming analysis");
    let answer = engine.analyze_anytime(&request).expect("anytime starts");
    assert_eq!(
        answer.first_bound.to_bits(),
        exact.error_bound().to_bits(),
        "every judgment served from a cold certificate ⇒ first bound is the ε"
    );
    assert_eq!(answer.sources.closed_form, 0, "{:?}", answer.sources);
    assert_eq!(answer.sources.trivial, 0, "{:?}", answer.sources);
    assert!(answer.sources.cache > 0, "{:?}", answer.sources);
    let refined = wait_done(&engine, answer.token);
    assert_eq!(refined.to_bits(), exact.error_bound().to_bits());
}

/// A refinement runs at full pool width: on a two-thread engine it runs on
/// the pool's refinement runner, and its solve stage's assist finds the
/// regular worker free, so both threads solve. (A refinement that held
/// the only regular worker would leave its assist queued behind itself.)
#[test]
fn refinement_solves_at_full_pool_width() {
    let (_, program, width) = determinism_suite()
        .into_iter()
        .find(|(name, _, _)| name == "ising6x4_w2")
        .expect("suite has the ising entry");
    let engine = Engine::with_options(EngineOptions {
        solver: Default::default(),
        threads: 2,
    })
    .expect("engine");
    let request = suite_request(&program, width);
    let answer = engine.analyze_anytime(&request).expect("anytime starts");
    let report = loop {
        match engine.wait_refinement(answer.token, Duration::from_secs(5)) {
            Some(RefineStatus::Done(report)) => break report,
            Some(RefineStatus::Pending) => continue,
            other => panic!("refinement did not complete: {other:?}"),
        }
    };
    assert!(
        report.sdp_solves() >= 8,
        "{} cold solves",
        report.sdp_solves()
    );
    assert_eq!(report.solve_workers(), Some(2));
}
