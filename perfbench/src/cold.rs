//! `cold_suite`: cold certification in process. Each program gets a fresh
//! `Engine` (default pool) and one `analyze` call, built exactly the way
//! `gleipnir analyze FILE --width W --noise SPEC` builds it. The SDP solve
//! stage is nearly all of the wall time here.

use crate::gen::{self, Job};
use crate::host::HostClock;
use crate::layers::{print_table, EndToEnd, Layers};
use crate::spans::{spans_lost, Node, Profile};
use crate::{kernel, stats, timed_setups, Args, Outcome};
use gleipnir_core::{AnalysisRequest, Engine, EngineOptions, Report};
use gleipnir_server::spec;
use gleipnir_telemetry as telemetry;
use std::time::{Duration, Instant};

/// Ising-288 pins: (ε, interior-point iterations) per noise model.
const BITFLIP_PIN: (f64, usize) = (2.29873639732464e-2, 2934);
const AMPDAMP_PIN: (f64, usize) = (2.558616029593075e-2, 2521);

const SETUPS: usize = 5;
const MIN_PASSES: usize = 3;

/// A program as the CLI would load it: parsed from GLQ text, with the
/// noise and method specs parsed by the same functions the CLI uses.
pub fn request(job: &Job) -> Result<AnalysisRequest, String> {
    let program = gleipnir_circuit::parse(&job.source).map_err(|e| format!("{}: {e}", job.name))?;
    AnalysisRequest::builder(program)
        .noise(spec::parse_noise_spec(job.noise)?)
        .method(spec::parse_method_spec(None, job.width)?)
        .tiering(spec::parse_tier_spec(None)?)
        .build()
        .map_err(|e| e.to_string())
}

/// Set-up: generate the suite from the seed, build every request, and warm
/// the process (one engine certifies a 3-qubit GHZ program) so lazy
/// initialization is not timed.
fn setup(seed: u64) -> Result<Vec<(Job, AnalysisRequest)>, String> {
    let jobs = gen::cold_suite(seed);
    let mut out = Vec::with_capacity(jobs.len());
    for job in jobs {
        let req = request(&job)?;
        out.push((job, req));
    }
    let warm = Job {
        name: "ghz3".into(),
        source: "qubits 3;\nh q0;\ncnot q0, q1;\ncnot q1, q2;\n".into(),
        width: 8,
        noise: gen::BITFLIP,
    };
    Engine::new()
        .analyze(&request(&warm)?)
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(out)
}

struct Pass {
    /// Per program, at the reference host speed (see `host`).
    latencies_ms: Vec<f64>,
    reports: Vec<Result<Report, String>>,
    traces: Vec<Vec<Node>>,
}

/// One pass over the suite: a fresh engine per program, each timed from
/// its `analyze` call to its report.
fn pass(suite: &[(Job, AnalysisRequest)], clock: &HostClock, threads: usize, traced: bool) -> Pass {
    let mut p = Pass {
        latencies_ms: Vec::new(),
        reports: Vec::new(),
        traces: Vec::new(),
    };
    let mut line = Vec::new();
    for (job, req) in suite {
        let t0 = clock.now();
        let t = Instant::now();
        let report = Engine::with_options(EngineOptions {
            solver: Default::default(),
            threads,
        })
        .map_err(|e| e.to_string())
        .and_then(|engine| {
            if traced {
                let (r, tree) = analyze_traced(&engine, req);
                p.traces.push(tree);
                r
            } else {
                engine.analyze(req).map_err(|e| e.to_string())
            }
        });
        let raw = t.elapsed().as_secs_f64() * 1e3;
        let speed = clock.speed(t0, clock.now());
        line.push(format!("{} {raw:.0} ms × {speed:.3}", job.name));
        p.latencies_ms.push(raw * speed);
        p.reports.push(report);
    }
    println!("pass: {}", line.join(", "));
    p
}

/// `analyze` under a trace context, as `gleipnir analyze --trace` runs it.
fn analyze_traced(engine: &Engine, req: &AnalysisRequest) -> (Result<Report, String>, Vec<Node>) {
    let trace_id = telemetry::next_trace_id();
    let root = telemetry::next_span_id();
    let start_ns = telemetry::now_ns();
    let report = telemetry::with_ctx(
        telemetry::TraceCtx {
            trace_id,
            parent: root,
        },
        || engine.analyze(req),
    );
    telemetry::record_span(
        telemetry::TraceCtx {
            trace_id,
            parent: 0,
        },
        telemetry::SpanName::Request,
        root,
        start_ns,
        telemetry::now_ns(),
        telemetry::detail::ENDPOINT_ANALYZE,
        0,
        0,
    );
    telemetry::global().finish_trace(trace_id);
    let tree = telemetry::global()
        .trace(trace_id)
        .map(|t| t.tree().iter().map(Node::from_telemetry).collect())
        .unwrap_or_default();
    (report.map_err(|e| e.to_string()), tree)
}

/// Checks every report of a pass: the Ising-288 ε bits and iteration pins,
/// and the seeded QAOA's ε against the first pass's.
fn check(
    out: &mut Outcome,
    suite: &[(Job, AnalysisRequest)],
    p: &Pass,
    qaoa_ref: &mut Option<u64>,
) {
    for ((job, _), report) in suite.iter().zip(&p.reports) {
        let problem = match report {
            Err(e) => Some(format!("{}: {e}", job.name)),
            Ok(r) => {
                let (eps, iters) = (r.error_bound(), r.ip_iterations());
                let pin = match job.noise {
                    _ if !job.name.starts_with("ising288") => None,
                    gen::BITFLIP => Some(BITFLIP_PIN),
                    _ => Some(AMPDAMP_PIN),
                };
                match pin {
                    Some((want, want_iters))
                        if eps.to_bits() != want.to_bits() || iters != want_iters =>
                    {
                        Some(format!(
                            "{}: ε {eps:e} in {iters} iterations, pinned {want:e} in {want_iters}",
                            job.name
                        ))
                    }
                    Some(_) => None,
                    None if !(eps > 0.0 && eps <= 1.0) => {
                        Some(format!("{}: ε {eps:e} is not a certified bound", job.name))
                    }
                    None => match qaoa_ref.replace(eps.to_bits()) {
                        Some(bits) if bits != eps.to_bits() => Some(format!(
                            "{}: ε {eps:e} differs from the first pass's {:e}",
                            job.name,
                            f64::from_bits(bits)
                        )),
                        _ => None,
                    },
                }
            }
        };
        out.op(problem);
    }
}

/// Each program's median latency over the passes; the suite wall is their
/// sum (the programs run back to back).
fn end_to_end(setup_s: f64, passes: &[&Pass]) -> EndToEnd {
    let reps: Vec<Vec<f64>> = passes.iter().map(|p| p.latencies_ms.clone()).collect();
    let per_program = stats::median_per_item(&reps);
    let wall_s = per_program.iter().sum::<f64>() / 1e3;
    let p50 = stats::median(&per_program);
    EndToEnd {
        setup_s,
        wall_s,
        answers_per_s: per_program.len() as f64 / wall_s,
        p50_ms: p50,
        tail_ms: stats::tail(&per_program).value,
        // A blocking `analyze` returns one bound: the exact one.
        first_bound_p50_ms: p50,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut qaoa_ref = None;
    if !args.trace {
        let (suite, setup_s) = timed_setups(&args.clock, SETUPS, || setup(args.seed))?;
        let t0 = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || t0.elapsed() < args.budget() {
            let p = pass(&suite, &args.clock, 0, false);
            check(&mut out, &suite, &p, &mut qaoa_ref);
            passes.push(p);
        }
        let refs: Vec<&Pass> = passes.iter().collect();
        out.metrics = end_to_end(setup_s, &refs).metrics();
        return Ok(out);
    }

    let suite = setup(args.seed)?;
    let untraced = pass(&suite, &args.clock, 0, false);
    check(&mut out, &suite, &untraced, &mut qaoa_ref);
    let traced = pass(&suite, &args.clock, 0, true);
    check(&mut out, &suite, &traced, &mut qaoa_ref);
    // Pool-size invariance rides along: the 1-thread pass must give the
    // same bits.
    let single = pass(&suite, &args.clock, 1, false);
    check(&mut out, &suite, &single, &mut qaoa_ref);

    let threads = Engine::new().threads();
    let mut layers = Layers {
        pool_threads: threads as f64,
        speedup: end_to_end(0.0, &[&single]).wall_s / end_to_end(0.0, &[&untraced]).wall_s,
        cholesky_gflops: kernel::cholesky_gflops(Duration::from_millis(500)),
        peak_gflops: kernel::peak_gflops(Duration::from_millis(300)),
        ..Layers::default()
    };
    let mut profile = Profile::default();
    for (((job, _), report), trees) in suite.iter().zip(&traced.reports).zip(&traced.traces) {
        let Ok(r) = report else { continue };
        let sp = r.solver_profile();
        for (slot, (_, ms)) in layers.sdp_phase_cpu_ms.iter_mut().zip(sp.phases()) {
            *slot += ms;
        }
        layers.sdp_cpu_ms += sp.total_ms;
        layers.loop_allocs += sp.loop_allocs as f64;
        layers.ip_iterations += r.ip_iterations() as f64;
        layers.sdp_solves += r.sdp_solves() as f64;
        layers.cache_hits += r.cache_hits() as f64;
        layers.inflight_dedup += r.inflight_dedup() as f64;
        if let Some(t) = r.stage_timings() {
            layers.plan_ms += t.plan.as_secs_f64() * 1e3;
            layers.solve_ms += t.solve.as_secs_f64() * 1e3;
            layers.assemble_ms += t.assemble.as_secs_f64() * 1e3;
        }
        for tree in trees {
            profile.add_tree(tree);
        }
        // A fresh engine has no certificates: every obligation unit is a
        // lead solve.
        let lost = spans_lost(trees, r.sdp_solves(), r.sdp_solves());
        layers.spans_dropped += lost as f64;
        out.gate(lost == 0, || {
            format!("trace of {} lost {lost} spans", job.name)
        });
    }
    layers.sdp_solve_wall_ms = layers.solve_ms;
    layers.pool_window_ms = layers.solve_ms;
    let ob = profile.get("obligation");
    layers.obligation_wait_ms = ob.wait_ms / ob.count.max(1) as f64;
    layers.busy_ms = ob.wall_ms;
    layers.mps_evolve_ms = profile.get("mps").self_ms;

    println!(
        "self time by span, cold_suite traced pass ({} programs):",
        suite.len()
    );
    print!("{}", profile.render(1.0, "per suite pass"));
    let e_untraced = end_to_end(0.0, &[&untraced]);
    let e_traced = end_to_end(0.0, &[&traced]);
    out.metrics = layers.metrics(&e_traced, &e_untraced);
    print_table(
        "cold_suite (per suite pass; sdp.* are CPU summed across pool workers)",
        &out.metrics,
    );
    Ok(out)
}
