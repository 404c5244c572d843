//! `edit_session`: an interactive client editing Ising-288 against a
//! `gleipnir serve --cache-dir` primed with the unedited program. The
//! client walks a seeded chain of one-rotation angle edits in the last
//! 40 % of the program, alternating `POST /diff` (previous → new) with an
//! anytime `POST /analyze` whose exact bound it long-polls from
//! `GET /refine/<token>`. Each edit reuses the cached prefix and solves a
//! new suffix, whose certificates are inserted into the cache and
//! appended to the store: the write path beside `warm_serve`'s reads.

use crate::cold::request;
use crate::gen::{self, Edit, Job};
use crate::host::HostClock;
use crate::http::{analyze_body, dir_bytes, field, number, Conn, Server, SERVER_THREADS};
use crate::layers::{print_table, EndToEnd, Layers};
use crate::spans::{spans_lost, Node, Profile};
use crate::{stats, Args, Outcome};
use gleipnir_core::jsonfmt::json_str;
use gleipnir_core::Engine;
use std::path::PathBuf;
use std::time::Instant;

const SESSIONS: usize = 3;
const EDITS: usize = 6;
/// The amplitude-damping Ising-288 pin (shared with `cold_suite`).
const PRIMED_EPS: f64 = 2.558616029593075e-2;
const LONG_POLL: &str = "wait_ms=30000";

fn job(source: &str) -> Job {
    Job {
        name: "ising288".into(),
        source: source.to_string(),
        width: 8,
        noise: gen::AMPDAMP,
    }
}

/// A server on a fresh store, primed with the unedited program.
struct Primed {
    server: Server,
    store: PathBuf,
    eps: Option<f64>,
    appended: f64,
}

impl Drop for Primed {
    fn drop(&mut self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

fn setup(args: &Args, k: usize) -> Result<Primed, String> {
    let store = args
        .work_dir
        .join(format!("edit-store-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    let server = Server::start(&args.server_bin, Some(&store))?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let r = conn
        .post("/analyze", &analyze_body(&job(&gen::ising288()), false))
        .map_err(|e| format!("priming: {e}"))?;
    if r.status != 200 {
        return Err(format!("priming: HTTP {} {}", r.status, r.body));
    }
    let appended = store_appended(&server);
    Ok(Primed {
        eps: number(&r.body, "error_bound"),
        server,
        store,
        appended,
    })
}

fn store_appended(server: &Server) -> f64 {
    server
        .metrics()
        .and_then(|v| v.get("store")?.get("appended")?.as_f64())
        .unwrap_or(0.0)
}

/// One edit as the client saw it.
#[derive(Default)]
struct Step {
    via_diff: bool,
    /// Request sent until the exact bound was in hand.
    latency_ms: f64,
    /// Anytime edits: request sent until the `202` first bound.
    first_ms: Option<f64>,
    /// Anytime edits: the server's own first-answer time, and the wait
    /// from the `202` to the refined report.
    first_server_ms: f64,
    refined_ms: f64,
    first_eps: Option<f64>,
    final_eps: Option<f64>,
    problem: Option<String>,
    prefix_reused: f64,
    sdp_solves: f64,
    cache_hits: f64,
    /// Traced sessions: every request's span trees, with client latency.
    traces: Vec<(f64, Vec<Node>)>,
    /// Host speed over the edit (see `host`).
    speed: f64,
}

fn diff_step(conn: &mut Conn, old: &str, new: &str, traced: bool) -> Step {
    let body = format!(
        "{{\"old_source\":{},\"new_source\":{},\"name\":\"edit\",\"width\":8,\"noise\":{}}}",
        json_str(old),
        json_str(new),
        json_str(gen::AMPDAMP)
    );
    let mut step = Step {
        via_diff: true,
        ..Step::default()
    };
    match conn.post("/diff", &body) {
        Ok(r) if r.status == 200 => {
            step.latency_ms = r.latency.as_secs_f64() * 1e3;
            step.final_eps = number(&r.body, "error_bound");
            step.prefix_reused = number(&r.body, "prefix_gates_reused").unwrap_or(0.0);
            step.sdp_solves = number(&r.body, "sdp_solves").unwrap_or(0.0);
            step.cache_hits = number(&r.body, "cache_hits").unwrap_or(0.0);
            if traced {
                let roots = conn.trace(r.trace_id.as_deref());
                step.traces.push((step.latency_ms, roots));
            }
        }
        Ok(r) => step.problem = Some(format!("/diff: HTTP {} {}", r.status, r.body)),
        Err(e) => step.problem = Some(format!("/diff: {e}")),
    }
    step
}

fn anytime_step(conn: &mut Conn, new: &str, traced: bool) -> Step {
    let mut step = Step::default();
    let t0 = Instant::now();
    let first = match conn.post("/analyze", &analyze_body(&job(new), true)) {
        Ok(r) if r.status == 202 => r,
        Ok(r) => {
            step.problem = Some(format!("anytime /analyze: HTTP {} {}", r.status, r.body));
            return step;
        }
        Err(e) => {
            step.problem = Some(format!("anytime /analyze: {e}"));
            return step;
        }
    };
    let first_at = Instant::now();
    step.first_ms = Some(first.latency.as_secs_f64() * 1e3);
    step.first_eps = number(&first.body, "error_bound");
    step.first_server_ms = number(&first.body, "elapsed_ms").unwrap_or(0.0);
    if traced {
        let roots = conn.trace(first.trace_id.as_deref());
        step.traces.push((first.latency.as_secs_f64() * 1e3, roots));
    }
    let token = field(&first.body, "token")
        .unwrap_or("")
        .trim_matches('"')
        .to_string();
    loop {
        match conn.get(&format!("/refine/{token}?{LONG_POLL}")) {
            Ok(r) if r.status == 204 => continue,
            Ok(r) if r.status == 200 => {
                step.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                step.refined_ms = first_at.elapsed().as_secs_f64() * 1e3;
                step.final_eps = number(&r.body, "error_bound");
                step.sdp_solves = number(&r.body, "sdp_solves").unwrap_or(0.0);
                step.cache_hits = number(&r.body, "cache_hits").unwrap_or(0.0);
                if traced {
                    let roots = conn.trace(r.trace_id.as_deref());
                    step.traces.push((r.latency.as_secs_f64() * 1e3, roots));
                }
                break;
            }
            Ok(r) => {
                step.problem = Some(format!("/refine: HTTP {} {}", r.status, r.body));
                break;
            }
            Err(e) => {
                step.problem = Some(format!("/refine: {e}"));
                break;
            }
        }
    }
    if let (Some(first), Some(exact)) = (step.first_eps, step.final_eps) {
        if first < exact {
            step.problem = Some(format!(
                "anytime first bound {first:e} below exact {exact:e}"
            ));
        }
    }
    step
}

struct Session {
    wall_s: f64,
    steps: Vec<Step>,
    appended: f64,
    store_bytes: f64,
}

/// Walks the chain on one primed server: even edits by `/diff`, odd ones
/// anytime, timed until the exact bound of the last edit is in hand.
fn session(p: &Primed, clock: &HostClock, chain: &[Edit], traced: bool) -> Result<Session, String> {
    let mut conn = Conn::connect(p.server.addr).map_err(|e| format!("connect: {e}"))?;
    let base = gen::ising288();
    let t0 = Instant::now();
    let mut steps = Vec::with_capacity(chain.len());
    for (k, edit) in chain.iter().enumerate() {
        let prev = if k == 0 { &base } else { &chain[k - 1].source };
        let c0 = clock.now();
        let mut step = if k % 2 == 0 {
            diff_step(&mut conn, prev, &edit.source, traced)
        } else {
            anytime_step(&mut conn, &edit.source, traced)
        };
        step.speed = clock.speed(c0, clock.now());
        steps.push(step);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Session {
        wall_s,
        steps,
        appended: store_appended(&p.server) - p.appended,
        store_bytes: dir_bytes(&p.store) as f64,
    })
}

/// Cold exact ε of every version in the chain: a fresh engine each,
/// outside any timed region.
fn references(chain: &[Edit]) -> Result<Vec<f64>, String> {
    chain
        .iter()
        .map(|e| {
            Engine::new()
                .analyze(&request(&job(&e.source))?)
                .map(|r| r.error_bound())
                .map_err(|err| format!("reference for gate {}: {err}", e.gate))
        })
        .collect()
}

fn check(out: &mut Outcome, s: &Session, refs: &[f64]) {
    for (k, (step, want)) in s.steps.iter().zip(refs).enumerate() {
        let problem = step.problem.clone().or_else(|| match step.final_eps {
            Some(got) if got.to_bits() == want.to_bits() => None,
            got => Some(format!(
                "edit {k} ({}): ε {got:?} differs from cold exact {want:e}",
                if step.via_diff { "diff" } else { "anytime" }
            )),
        });
        out.op(problem);
    }
}

/// Each edit's median latency over the sessions (they replay one chain),
/// at the reference host speed. The session wall is their sum: the client
/// sends each edit as soon as the previous exact bound is in hand.
fn end_to_end(setup_s: f64, sessions: &[Session]) -> EndToEnd {
    // A failed edit has no latency: it reads as infinitely slow.
    let ok = |st: &Step, v: Option<f64>| match st.problem {
        None => v.map_or(f64::INFINITY, |v| v * st.speed),
        Some(_) => f64::INFINITY,
    };
    let latencies: Vec<Vec<f64>> = sessions
        .iter()
        .map(|s| {
            s.steps
                .iter()
                .map(|st| ok(st, Some(st.latency_ms)))
                .collect()
        })
        .collect();
    let firsts: Vec<Vec<f64>> = sessions
        .iter()
        .map(|s| {
            s.steps
                .iter()
                .filter(|st| !st.via_diff)
                .map(|st| ok(st, st.first_ms))
                .collect()
        })
        .collect();
    let per_edit = stats::median_per_item(&latencies);
    let per_first = stats::median_per_item(&firsts);
    let wall_s = per_edit.iter().sum::<f64>() / 1e3;
    EndToEnd {
        setup_s,
        wall_s,
        answers_per_s: per_edit.len() as f64 / wall_s,
        p50_ms: stats::median(&per_edit),
        tail_ms: stats::tail(&per_edit).value,
        first_bound_p50_ms: stats::median(&per_first),
    }
}

/// Runs `n` sessions, each on its own freshly primed server; returns them
/// with the median set-up time.
fn sessions(
    args: &Args,
    out: &mut Outcome,
    chain: &[Edit],
    traced: &[bool],
) -> Result<(Vec<Session>, f64), String> {
    let mut setups = Vec::new();
    let mut done = Vec::new();
    for (k, &t) in traced.iter().enumerate() {
        let t0 = args.clock.now();
        let primed = setup(args, k)?;
        let t1 = args.clock.now();
        setups.push(args.clock.normalize(t1 - t0, t0, t1));
        out.gate(
            primed.eps.map(f64::to_bits) == Some(PRIMED_EPS.to_bits()),
            || format!("primed ε {:?}, pinned {PRIMED_EPS:e}", primed.eps),
        );
        let s = session(&primed, &args.clock, chain, t)?;
        let lat: Vec<String> = s
            .steps
            .iter()
            .zip(chain)
            .map(|(st, e)| {
                format!(
                    "g{} {:.0} ms/{} solves",
                    e.gate, st.latency_ms, st.sdp_solves
                )
            })
            .collect();
        println!(
            "session {k}: set-up {:.3} s, wall {:.3} s, edits [{}]",
            setups[k],
            s.wall_s,
            lat.join(", ")
        );
        done.push(s);
    }
    Ok((done, stats::median(&setups)))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let chain = gen::edit_chain(&gen::ising288(), args.seed, EDITS);
    if !args.trace {
        let (done, setup_s) = sessions(args, &mut out, &chain, &[false; SESSIONS])?;
        let refs = references(&chain)?;
        for s in &done {
            check(&mut out, s, &refs);
        }
        out.metrics = end_to_end(setup_s, &done).metrics();
        return Ok(out);
    }

    let (done, _) = sessions(args, &mut out, &chain, &[false, true])?;
    let refs = references(&chain)?;
    for s in &done {
        check(&mut out, s, &refs);
    }
    let traced = &done[1];
    let steps = &traced.steps;
    let n = steps.len().max(1) as f64;
    let mut layers = Layers {
        pool_threads: SERVER_THREADS as f64,
        ..Layers::default()
    };
    let mut profile = Profile::default();
    let mut requests = 0usize;
    for step in steps {
        layers.sdp_solves += step.sdp_solves / n;
        layers.cache_hits += step.cache_hits / n;
        for (latency, roots) in &step.traces {
            requests += 1;
            for r in roots {
                profile.add_tree(r);
            }
            let wall = roots.iter().map(Node::wall_ms).fold(0.0, f64::max);
            layers.transport_ms += latency - wall;
            // A diff solves in its handler, so its trace holds the phase
            // spans of every suffix solve; an anytime refinement runs in
            // the background, outside any request's trace.
            let solves = if step.via_diff {
                step.sdp_solves as usize
            } else {
                0
            };
            layers.spans_dropped += spans_lost(roots, solves, solves) as f64;
            if step.via_diff {
                layers.pool_window_ms += wall / n;
            }
        }
    }
    let requests_f = requests.max(1) as f64;
    layers.transport_ms /= requests_f;
    let diffs: Vec<&Step> = steps.iter().filter(|s| s.via_diff).collect();
    let anytimes: Vec<&Step> = steps.iter().filter(|s| !s.via_diff).collect();
    let gates = gen::ising288().lines().count() as f64 - 1.0;
    layers.prefix_reuse =
        diffs.iter().map(|s| s.prefix_reused / gates).sum::<f64>() / diffs.len().max(1) as f64;
    layers.suffix_solves =
        diffs.iter().map(|s| s.sdp_solves).sum::<f64>() / diffs.len().max(1) as f64;
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { stats::median(&v) };
    layers.first_bound_ms = med(anytimes.iter().map(|s| s.first_server_ms).collect());
    layers.refined_ms = med(anytimes.iter().map(|s| s.refined_ms).collect());
    layers.records_appended = traced.appended;
    layers.store_bytes = traced.store_bytes;
    for (slot, phase) in layers
        .sdp_phase_cpu_ms
        .iter_mut()
        .zip(crate::layers::PHASES)
    {
        *slot = profile.get(&format!("phase_{phase}")).self_ms / n;
    }
    layers.sdp_cpu_ms = layers.sdp_phase_cpu_ms.iter().sum();
    let ob = profile.get("obligation");
    layers.ip_iterations = ob.iterations as f64 / n;
    layers.obligation_wait_ms = ob.wait_ms / ob.count.max(1) as f64;
    layers.busy_ms = ob.wall_ms / n;
    layers.plan_ms = profile.get("plan").wall_ms / n;
    layers.solve_ms = profile.get("solve").wall_ms / n;
    layers.sdp_solve_wall_ms = layers.solve_ms;
    layers.assemble_ms = profile.get("assemble").wall_ms / n;
    layers.mps_evolve_ms = profile.get("mps").self_ms / n;
    layers.http_parse_ms = profile.get("http_parse").self_ms / requests_f;
    layers.queue_wait_ms = profile.get("queue_wait").self_ms / requests_f;
    layers.handler_ms = profile.get("handler").self_ms / requests_f;
    layers.rejected = steps
        .iter()
        .filter(|s| {
            s.problem
                .as_deref()
                .is_some_and(|p| p.contains("HTTP 429") || p.contains("HTTP 408"))
        })
        .count() as f64;
    out.gate(layers.spans_dropped == 0.0, || {
        format!("edit traces lost {} spans", layers.spans_dropped)
    });

    println!(
        "self time by span, edit_session traced session ({EDITS} edits, {requests} requests):"
    );
    print!("{}", profile.render(n, "per edit"));
    out.metrics = layers.metrics(&end_to_end(0.0, &done[1..]), &end_to_end(0.0, &done[..1]));
    print_table(
        "edit_session (per edit; server.* per request)",
        &out.metrics,
    );
    Ok(out)
}
