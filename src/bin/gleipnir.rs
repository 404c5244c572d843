//! The `gleipnir` command-line tool: analyze, optimize, format, and route
//! GLQ quantum programs from the shell.
//!
//! ```text
//! gleipnir analyze  <file.glq> [--method state|adaptive|worst|lqr] [--width W]
//!                              [--noise SPEC] [--input BITS] [--threads N]
//!                              [--tiers exact|fast]
//!                              [--derivation] [--trace] [--anytime] [--json]
//! gleipnir batch    <a.glq> <b.glq> … [--method M] [--width W] [--noise SPEC]
//!                              [--threads N] [--tiers T] [--json]
//! gleipnir diff     <old.glq> <new.glq> [--width W] [--noise SPEC] [--input BITS]
//!                              [--threads N] [--tiers T] [--json]
//! gleipnir worst    <file.glq> [--noise SPEC] [--json]
//! gleipnir serve    [--addr HOST:PORT] [--cache-dir DIR] [--workers N]
//!                              [--queue N] [--threads N] [--tenant-quota N]
//!                              [--read-timeout-ms MS] [--keepalive-timeout-ms MS]
//!                              [--peers HOST:PORT,…] [--peer-interval-ms MS]
//! gleipnir compare  <file.glq> [--width W] [--noise SPEC]   # bound before/after optimization
//! gleipnir optimize <file.glq>                              # print the optimized program
//! gleipnir fmt      <file.glq>                              # parse + pretty-print
//! gleipnir route    <file.glq> --device boeblingen|lima --mapping 0,1,2
//!
//! NOISE SPEC: bitflip:P (default bitflip:1e-4) | depolarizing:P1,P2
//!             | ampdamp:G | none
//! ```
//!
//! All analysis commands run on one long-lived `Engine`, and `--json`
//! switches every report to machine-readable output. `gleipnir serve`
//! exposes the same engine as a real HTTP/1.1 + JSON service (see
//! `gleipnir::server`). `--threads N` (or the `GLEIPNIR_THREADS`
//! env var; 0/unset = all cores) caps the engine's worker pool, which is
//! shared by a single request's SDP solve stage *and* `batch`'s
//! per-file fan-out. Every batch file gets its own result entry (a broken
//! file never sinks its siblings), and the exit status is non-zero iff
//! any entry failed. `--cache-dir DIR` (any analysis command, and
//! `serve`) loads/persists the on-disk certificate store, so a later
//! process starts with every certificate earlier runs paid for.

use gleipnir::circuit::{optimize, parse, pretty, route_with_final, Mapping, Program};
use gleipnir::core::jsonfmt::{diff_report_json, json_f64, json_str, report_json};
use gleipnir::core::{
    AnalysisRequest, CertStore, Engine, EngineOptions, Method, RefineStatus, Report,
};
use gleipnir::noise::{DeviceModel, NoiseModel};
use gleipnir::server::{spec, ServerConfig};
use gleipnir::sim::BasisState;
use gleipnir::telemetry;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "analyze" => analyze(&args[1..]),
        "batch" => batch(&args[1..]),
        "diff" => diff(&args[1..]),
        "compare" => compare(&args[1..]),
        "worst" => worst(&args[1..]),
        "serve" => serve(&args[1..]),
        "optimize" => cmd_optimize(&args[1..]),
        "fmt" => fmt(&args[1..]),
        "route" => cmd_route(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: gleipnir <analyze|batch|diff|compare|worst|serve|optimize|fmt|route> <file.glq>… [options]\n\
     diff:    gleipnir diff OLD.glq NEW.glq [--json]   (edit-cost re-analysis; reuses the ε of\n\
     \x20        the leading unchanged gates and reports each gate whose ε changed)\n\
     options: --method state|adaptive|worst|lqr   --width W   --input 0101   --json\n\
     \x20        --noise bitflip:P|depolarizing:P1,P2|ampdamp:G|none   --derivation\n\
     \x20        --trace   (analyze only: print the span tree — plan/solve/assemble,\n\
     \x20        per-obligation pool timing, solver phases — after the report)\n\
     \x20        --tiers exact|fast   (bound-engine tiers; default exact)\n\
     \x20        --anytime   (analyze only: print a certified bound immediately, then\n\
     \x20        the exact refined bound when the background solve lands)\n\
     \x20        --threads N   (0/unset = GLEIPNIR_THREADS, then all cores)\n\
     \x20        --cache-dir DIR   (persistent SDP-certificate store; warm restarts)\n\
     \x20        --device boeblingen|lima   --mapping 0,1,2\n\
     serve:   gleipnir serve --addr 127.0.0.1:8080 --cache-dir .gleipnir-cache\n\
     \x20        [--workers N] [--queue N] [--threads N] [--tenant-quota N]\n\
     \x20        [--read-timeout-ms MS] [--keepalive-timeout-ms MS]\n\
     \x20        [--peers HOST:PORT,…] [--peer-interval-ms MS]  (fleet certificate gossip)"
        .to_string()
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn program_paths(args: &[String]) -> Vec<&String> {
    // Positional arguments: skip flags and the value slot after a
    // value-taking flag.
    const VALUE_FLAGS: [&str; 17] = [
        "--tenant-quota",
        "--method",
        "--width",
        "--noise",
        "--input",
        "--threads",
        "--tiers",
        "--device",
        "--mapping",
        "--cache-dir",
        "--addr",
        "--workers",
        "--queue",
        "--peers",
        "--peer-interval-ms",
        "--read-timeout-ms",
        "--keepalive-timeout-ms",
    ];
    let mut paths = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = VALUE_FLAGS.contains(&a.as_str());
            continue;
        }
        paths.push(a);
    }
    paths
}

fn load_program(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&src).map_err(|e| format!("{path}: {e}"))
}

fn load_single_program(args: &[String]) -> Result<(String, Program), String> {
    let paths = program_paths(args);
    let path = paths.first().ok_or("missing input file")?;
    Ok(((*path).clone(), load_program(path)?))
}

/// Noise spec parsing is shared with the server's wire format
/// (`gleipnir::server::spec`), so the CLI flag and the JSON field can
/// never drift apart.
fn parse_noise(args: &[String]) -> Result<NoiseModel, String> {
    let value = flag_value(args, "--noise").unwrap_or_else(|| spec::DEFAULT_NOISE_SPEC.to_string());
    spec::parse_noise_spec(&value)
}

fn parse_input(args: &[String], n: usize) -> Result<BasisState, String> {
    match flag_value(args, "--input") {
        None => Ok(BasisState::zeros(n)),
        Some(bits) => spec::parse_input_bits(&bits, n).map_err(|e| format!("--input: {e}")),
    }
}

fn parse_width(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--width") {
        None => Ok(spec::DEFAULT_WIDTH),
        Some(w) => w.parse().map_err(|_| format!("bad width `{w}`")),
    }
}

/// Builds the long-lived engine, honoring `--threads N` (0 or absent defers
/// to `GLEIPNIR_THREADS`, then to all cores).
fn make_engine(args: &[String]) -> Result<Engine, String> {
    let threads = match flag_value(args, "--threads") {
        None => 0,
        Some(t) => t.parse().map_err(|_| format!("bad thread count `{t}`"))?,
    };
    Engine::with_options(EngineOptions {
        solver: Default::default(),
        threads,
    })
    .map_err(|e| e.to_string())
}

fn parse_method(args: &[String], width: usize) -> Result<Method, String> {
    spec::parse_method_spec(flag_value(args, "--method").as_deref(), width)
}

/// Opens (and warm-loads) the certificate store when `--cache-dir` is
/// given. Returns the store so the command can persist new certificates
/// after its analyses.
fn open_store(args: &[String], engine: &Engine) -> Result<Option<CertStore>, String> {
    let Some(dir) = flag_value(args, "--cache-dir") else {
        return Ok(None);
    };
    let mut store = CertStore::open(&dir).map_err(|e| format!("--cache-dir {dir}: {e}"))?;
    let stats = store
        .load_into(engine)
        .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
    if stats.loaded > 0 || stats.rejected > 0 {
        eprintln!(
            "certificate store: {} loaded, {} rejected{}",
            stats.loaded,
            stats.rejected,
            if stats.truncated { " (torn tail)" } else { "" }
        );
    }
    Ok(Some(store))
}

/// Appends any new certificates to the store (no-op without `--cache-dir`).
fn persist_store(store: &mut Option<CertStore>, engine: &Engine) -> Result<(), String> {
    if let Some(store) = store {
        store
            .persist_new(engine)
            .map_err(|e| format!("certificate persist failed: {e}"))?;
    }
    Ok(())
}

fn build_request(program: Program, args: &[String]) -> Result<AnalysisRequest, String> {
    let noise = parse_noise(args)?;
    let input = parse_input(args, program.n_qubits())?;
    let width = parse_width(args)?;
    let method = parse_method(args, width)?;
    let tiers = spec::parse_tier_spec(flag_value(args, "--tiers").as_deref())?;
    AnalysisRequest::builder(program)
        .input(&input)
        .noise(noise)
        .method(method)
        .tiering(tiers)
        .build()
        .map_err(|e| e.to_string())
}

// ---- commands --------------------------------------------------------

fn analyze(args: &[String]) -> Result<(), String> {
    let (path, program) = load_single_program(args)?;
    let json = has_flag(args, "--json");
    let engine = make_engine(args)?;
    let mut store = open_store(args, &engine)?;
    let request = build_request(program.clone(), args)?;
    if has_flag(args, "--anytime") {
        return analyze_anytime(&engine, &mut store, &path, &program, &request, json);
    }
    // --trace: run the analysis under an ambient trace context, exactly
    // as the server does for one request, then print the span tree.
    // Telemetry is pure observation — the report is bit-identical with
    // or without it.
    let trace = if has_flag(args, "--trace") {
        let trace_id = telemetry::next_trace_id();
        let root = telemetry::next_span_id();
        Some((trace_id, root, telemetry::now_ns()))
    } else {
        None
    };
    let analyzed = match trace {
        Some((trace_id, root, _)) => telemetry::with_ctx(
            telemetry::TraceCtx {
                trace_id,
                parent: root,
            },
            || engine.analyze(&request),
        ),
        None => engine.analyze(&request),
    };
    let rendered_trace = trace.map(|(trace_id, root, start_ns)| {
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
        telemetry::global().trace(trace_id)
    });
    let report = analyzed.map_err(|e| e.to_string())?;
    persist_store(&mut store, &engine)?;
    if json {
        println!("{}", report_json(&path, &program, &report));
        // The tree goes to stderr so the stdout JSON document stays pure.
        if let Some(Some(t)) = rendered_trace {
            eprint!("{}", t.render_text());
        }
        return Ok(());
    }
    if let Some(Some(t)) = &rendered_trace {
        print!("{}", t.render_text());
    }
    println!(
        "{} qubits, {} gates, method {}",
        program.n_qubits(),
        program.gate_count(),
        report.method_name()
    );
    println!("error bound: {:.6e}", report.error_bound());
    println!(
        "SDP solves: {}   cache hits: {}   time: {:?}",
        report.sdp_solves(),
        report.cache_hits(),
        report.elapsed()
    );
    let tiers = report.tier_counts();
    if tiers.closed_form > 0 {
        println!(
            "bound tiers: {} closed form, {} cold ({} IP iterations)",
            tiers.closed_form,
            tiers.cold,
            report.ip_iterations()
        );
    }
    if let Some(d) = report.tn_delta() {
        println!("TN delta: {d:.3e}");
    }
    if let Some(steps) = report.trajectory() {
        for s in steps {
            println!(
                "  w = {:>4}: bound {:.6e}  (TN δ = {:.3e}, {} solves, {} cache hits)",
                s.width, s.bound, s.tn_delta, s.sdp_solves, s.cache_hits
            );
        }
    }
    if has_flag(args, "--derivation") {
        if let Some(d) = report.derivation() {
            println!("\n{}", d.pretty());
        }
    }
    Ok(())
}

/// `analyze --anytime`: print the instant certified bound, then wait on
/// the refinement token (exactly as an HTTP client would long-poll
/// `GET /refine/<token>`) until the exact bound lands, and print that.
fn analyze_anytime(
    engine: &Engine,
    store: &mut Option<CertStore>,
    path: &str,
    program: &Program,
    request: &AnalysisRequest,
    json: bool,
) -> Result<(), String> {
    let answer = engine.analyze_anytime(request).map_err(|e| e.to_string())?;
    let first_ms = answer.first_elapsed.as_secs_f64() * 1e3;
    if !json {
        println!(
            "anytime first bound: {:.6e}  (token {}, {first_ms:.3} ms; sources: {} cache, {} closed form, {} trivial)",
            answer.first_bound,
            answer.token,
            answer.sources.cache,
            answer.sources.closed_form,
            answer.sources.trivial,
        );
    }
    let report = loop {
        match engine.wait_refinement(answer.token, Duration::from_millis(500)) {
            Some(RefineStatus::Done(report)) => break report,
            Some(RefineStatus::Failed(msg)) => return Err(msg),
            Some(RefineStatus::Pending) => continue,
            None => return Err("refinement token vanished".into()),
        }
    };
    persist_store(store, engine)?;
    if json {
        println!(
            "{{\"anytime\":{{\"token\":{},\"first_error_bound\":{},\"first_elapsed_ms\":{first_ms:.3}}},\"report\":{}}}",
            json_str(&answer.token.to_string()),
            json_f64(answer.first_bound),
            report_json(path, program, &report),
        );
        return Ok(());
    }
    println!(
        "refined bound:       {:.6e}  ({} solves, {} cache hits, {:?})",
        report.error_bound(),
        report.sdp_solves(),
        report.cache_hits(),
        report.elapsed()
    );
    Ok(())
}

fn batch(args: &[String]) -> Result<(), String> {
    let paths = program_paths(args);
    if paths.is_empty() {
        return Err("batch needs at least one input file".into());
    }
    let json = has_flag(args, "--json");
    // Per-file isolation starts at load time: a missing or unparseable
    // file becomes that file's error entry, never sinking its siblings.
    let prepared: Vec<Result<(Program, AnalysisRequest), String>> = paths
        .iter()
        .map(|path| {
            let program = load_program(path)?;
            let request = build_request(program.clone(), args)?;
            Ok((program, request))
        })
        .collect();
    let requests: Vec<AnalysisRequest> = prepared
        .iter()
        .filter_map(|p| p.as_ref().ok().map(|(_, r)| r.clone()))
        .collect();
    let engine = make_engine(args)?;
    let mut store = open_store(args, &engine)?;
    let outcome = engine.analyze_batch_detailed(&requests);
    persist_store(&mut store, &engine)?;
    // Merge analysis results back into file order around the load errors.
    let mut analyzed = outcome.results.into_iter();
    let merged: Vec<Result<(Program, Report), String>> = prepared
        .into_iter()
        .map(|p| {
            let (program, _) = p?;
            let report = analyzed
                .next()
                .expect("one analysis result per prepared request")
                .map_err(|e| e.to_string())?;
            Ok((program, report))
        })
        .collect();
    if json {
        let results: Vec<String> = merged
            .iter()
            .zip(paths.iter())
            .map(|(result, path)| match result {
                Ok((program, report)) => format!(
                    "{{\"ok\":true,\"report\":{}}}",
                    report_json(path, program, report)
                ),
                Err(e) => format!(
                    "{{\"ok\":false,\"file\":{},\"error\":{}}}",
                    json_str(path),
                    json_str(e)
                ),
            })
            .collect();
        let stats = engine.cache_stats();
        println!(
            "{{\"results\":[{}],\"worker_threads\":{},\"pool_threads\":{},\"elapsed_ms\":{:.3},\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"inflight_dedup\":{}}}}}",
            results.join(","),
            outcome.worker_threads,
            engine.threads(),
            outcome.elapsed.as_secs_f64() * 1e3,
            stats.hits,
            stats.misses,
            stats.entries,
            stats.inflight_dedup
        );
        return batch_exit(&merged.iter().map(|r| r.is_ok()).collect::<Vec<_>>());
    }
    for (result, path) in merged.iter().zip(paths.iter()) {
        match result {
            Ok((_, report)) => println!(
                "{path}: {} bound {:.6e}  ({} solves, {} cache hits, {:?})",
                report.method_name(),
                report.error_bound(),
                report.sdp_solves(),
                report.cache_hits(),
                report.elapsed()
            ),
            Err(e) => println!("{path}: error: {e}"),
        }
    }
    let stats = engine.cache_stats();
    println!(
        "batch: {} files on {} worker threads (pool {}) in {:?}; shared cache {} hits / {} entries / {} in-flight dedups",
        merged.len(),
        outcome.worker_threads,
        engine.threads(),
        outcome.elapsed,
        stats.hits,
        stats.entries,
        stats.inflight_dedup
    );
    batch_exit(&merged.iter().map(|r| r.is_ok()).collect::<Vec<_>>())
}

/// Differential analysis: re-bounds `NEW.glq` after an edit to `OLD.glq`,
/// reusing the old ε of the leading gates whose solver inputs are
/// unchanged and every certificate the two programs share, and names each
/// gate whose ε changed. The answer is bit-identical
/// to a cold `gleipnir analyze NEW.glq` under the same (exact-tier)
/// configuration — prefix reuse is a latency optimization, never a new
/// bound (docs/SOUNDNESS.md, obligation 7).
fn diff(args: &[String]) -> Result<(), String> {
    let paths = program_paths(args);
    let [old_path, new_path] = paths.as_slice() else {
        return Err("diff needs exactly two input files: OLD.glq NEW.glq".into());
    };
    let json = has_flag(args, "--json");
    let old_program = load_program(old_path)?;
    let new_program = load_program(new_path)?;
    let engine = make_engine(args)?;
    let mut store = open_store(args, &engine)?;
    let old_request = build_request(old_program, args)?;
    let new_request = build_request(new_program, args)?;
    let report = engine
        .analyze_diff(&old_request, &new_request)
        .map_err(|e| e.to_string())?;
    persist_store(&mut store, &engine)?;
    if json {
        println!("{}", diff_report_json(old_path, new_path, &report));
        return Ok(());
    }
    let new = report.new_report();
    println!(
        "old bound: {:.6e}   new bound: {:.6e}",
        report.old_report().error_bound(),
        report.error_bound()
    );
    println!(
        "prefix gates reused: {}   suffix SDP solves: {}   cache hits: {}   time: {:?}",
        report.prefix_gates_reused(),
        new.sdp_solves(),
        new.cache_hits(),
        report.elapsed()
    );
    if report.changes().is_empty() {
        println!("no per-gate ε changes");
        return Ok(());
    }
    println!("changed gates:");
    for c in report.changes() {
        let fmt_eps = |e: Option<f64>| match e {
            Some(e) => format!("{e:.6e}"),
            None => "-".to_string(),
        };
        println!(
            "  {:<24} {:>14} -> {:<14} [{}]",
            c.gate,
            fmt_eps(c.old_epsilon),
            fmt_eps(c.new_epsilon),
            c.reason.name()
        );
    }
    Ok(())
}

/// Batch exit contract: every per-file result is always reported, and the
/// process exits non-zero if *any* entry failed — so scripts can gate on
/// status while still getting the full result set.
fn batch_exit(oks: &[bool]) -> Result<(), String> {
    let failed = oks.iter().filter(|ok| !**ok).count();
    if failed > 0 {
        return Err(format!("{failed} of {} batch entries failed", oks.len()));
    }
    Ok(())
}

fn worst(args: &[String]) -> Result<(), String> {
    let (path, program) = load_single_program(args)?;
    let noise = parse_noise(args)?;
    let engine = make_engine(args)?;
    let mut store = open_store(args, &engine)?;
    let request = AnalysisRequest::builder(program.clone())
        .noise(noise)
        .method(Method::WorstCase)
        .tiering(spec::parse_tier_spec(
            flag_value(args, "--tiers").as_deref(),
        )?)
        .build()
        .map_err(|e| e.to_string())?;
    let report = engine.analyze(&request).map_err(|e| e.to_string())?;
    persist_store(&mut store, &engine)?;
    if has_flag(args, "--json") {
        println!("{}", report_json(&path, &program, &report));
        return Ok(());
    }
    let w = report.as_worst_case().expect("worst-case report");
    println!(
        "worst-case bound: {:.6e} over {} gates ({} distinct SDPs); clamped: {:.6e}",
        w.total,
        w.gate_count,
        w.sdp_solves,
        w.clamped()
    );
    if w.tier_counts.closed_form > 0 {
        println!(
            "bound tiers: {} closed form, {} cold ({} IP iterations)",
            w.tier_counts.closed_form, w.tier_counts.cold, w.ip_iterations
        );
    }
    Ok(())
}

/// Runs the analysis daemon until SIGINT (ctrl-c) or SIGTERM, then drains
/// in-flight analyses and persists the certificate store.
fn serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr;
    }
    if let Some(dir) = flag_value(args, "--cache-dir") {
        config.cache_dir = Some(dir.into());
    }
    if let Some(w) = flag_value(args, "--workers") {
        config.workers = w.parse().map_err(|_| format!("bad worker count `{w}`"))?;
    }
    if let Some(q) = flag_value(args, "--queue") {
        config.queue_capacity = q.parse().map_err(|_| format!("bad queue capacity `{q}`"))?;
    }
    if let Some(t) = flag_value(args, "--threads") {
        config.threads = t.parse().map_err(|_| format!("bad thread count `{t}`"))?;
    }
    if let Some(q) = flag_value(args, "--tenant-quota") {
        config.tenant_quota = q.parse().map_err(|_| format!("bad tenant quota `{q}`"))?;
    }
    if let Some(peers) = flag_value(args, "--peers") {
        config.peers = peers
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(String::from)
            .collect();
    }
    if let Some(ms) = flag_value(args, "--peer-interval-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad peer interval `{ms}`"))?;
        config.peer_interval = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = flag_value(args, "--read-timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("bad read timeout `{ms}`"))?;
        config.read_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = flag_value(args, "--keepalive-timeout-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad keep-alive timeout `{ms}`"))?;
        config.keepalive_timeout = Duration::from_millis(ms.max(1));
    }
    let shutdown = gleipnir::server::signal::install_shutdown_signals();
    let handle = gleipnir::server::spawn(config).map_err(|e| e.to_string())?;
    println!("gleipnir-server listening on http://{}", handle.addr());
    println!("endpoints: POST /analyze  POST /batch  POST /diff  GET /refine/<token>[?wait_ms=N]  GET /healthz  GET /metrics[?format=prometheus]  GET /trace/<id>  GET /certs/since/<seq>  (ctrl-c / SIGTERM stops)");
    while !shutdown.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("gleipnir-server: shutting down (draining in-flight analyses)");
    handle.join();
    Ok(())
}

fn compare(args: &[String]) -> Result<(), String> {
    let (_, program) = load_single_program(args)?;
    let noise = parse_noise(args)?;
    let input = parse_input(args, program.n_qubits())?;
    let width = parse_width(args)?;
    let (optimized, stats) = optimize(&program);

    // One engine: the optimized program re-uses certificates the original
    // already paid for wherever judgments coincide.
    let engine = make_engine(args)?;
    let mut store = open_store(args, &engine)?;
    let analyze_one = |p: Program| -> Result<Report, String> {
        let request = AnalysisRequest::builder(p)
            .input(&input)
            .noise(noise.clone())
            .method(Method::StateAware { mps_width: width })
            .build()
            .map_err(|e| e.to_string())?;
        engine.analyze(&request).map_err(|e| e.to_string())
    };
    let before = analyze_one(program.clone())?;
    let after = analyze_one(optimized.clone())?;
    persist_store(&mut store, &engine)?;

    println!(
        "original:  {} gates, bound {:.6e}",
        program.gate_count(),
        before.error_bound()
    );
    println!(
        "optimized: {} gates, bound {:.6e}   ({} cancelled, {} merged, {} identities)",
        optimized.gate_count(),
        after.error_bound(),
        stats.cancellations,
        stats.merges,
        stats.identities_removed
    );
    if before.error_bound() > 0.0 {
        println!(
            "error-mitigation effect: {:.1}% lower bound",
            100.0 * (1.0 - after.error_bound() / before.error_bound())
        );
    }
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let (_, program) = load_single_program(args)?;
    let (optimized, stats) = optimize(&program);
    eprintln!(
        "{} → {} gates ({} cancelled, {} merged, {} identities removed)",
        stats.gates_before,
        stats.gates_after,
        stats.cancellations,
        stats.merges,
        stats.identities_removed
    );
    print!("{}", pretty(&optimized));
    Ok(())
}

fn fmt(args: &[String]) -> Result<(), String> {
    let (_, program) = load_single_program(args)?;
    print!("{}", pretty(&program));
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let (_, program) = load_single_program(args)?;
    let device = match flag_value(args, "--device").as_deref() {
        Some("boeblingen") | None => DeviceModel::boeblingen20(),
        Some("lima") => DeviceModel::lima5(),
        Some(other) => return Err(format!("unknown device `{other}`")),
    };
    let mapping = match flag_value(args, "--mapping") {
        None => Mapping::identity(program.n_qubits()),
        Some(spec) => {
            let placement: Result<Vec<usize>, _> =
                spec.split(',').map(|s| s.trim().parse()).collect();
            Mapping::new(placement.map_err(|_| format!("bad mapping `{spec}`"))?)
        }
    };
    let (routed, final_placement) =
        route_with_final(&program, device.coupling(), &mapping).map_err(|e| e.to_string())?;
    eprintln!(
        "routed onto {}: {} gates ({} two-qubit), final placement {final_placement}",
        device.name(),
        routed.gate_count(),
        routed.two_qubit_gate_count()
    );
    print!("{}", pretty(&routed));
    Ok(())
}
