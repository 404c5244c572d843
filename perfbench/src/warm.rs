//! `warm_serve`: warm serving over loopback. A real `gleipnir serve` is
//! primed with the seeded program set; then two keep-alive connections run
//! a closed loop of `POST /analyze` requests drawn from that set, with a
//! Prometheus scrape every hundredth request. Every answer comes from the
//! certificate cache, so MPS planning and the transport are the work; the
//! SDP layers are bypassed.

use crate::gen::{self, Job};
use crate::host::HostClock;
use crate::http::{analyze_body, field, Conn, Server, SERVER_THREADS};
use crate::layers::{print_table, EndToEnd, Layers};
use crate::spans::{spans_lost, Node, Profile};
use crate::{stats, timed_setups, Args, Outcome};
use gleipnir_server::json::{self, Json};
use std::time::Instant;

const SETUPS: usize = 3;
const CONNS: usize = 2;
/// Requests per connection per round: about 1200 answers a round, so the
/// p99 of a single round already has ten samples beyond it.
const PER_CONN: usize = 600;
const SCRAPE_EVERY: usize = 100;
const SCRAPE: &str = "/metrics?format=prometheus";

struct Primed {
    server: Server,
    bodies: Vec<String>,
    /// The priming response's `error_bound` token per program.
    eps: Vec<String>,
}

fn setup(args: &Args, jobs: &[Job]) -> Result<Primed, String> {
    let server = Server::start(&args.server_bin, None)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let bodies: Vec<String> = jobs.iter().map(|j| analyze_body(j, false)).collect();
    let mut eps = Vec::with_capacity(jobs.len());
    for (job, body) in jobs.iter().zip(&bodies) {
        let r = conn
            .post("/analyze", body)
            .map_err(|e| format!("priming {}: {e}", job.name))?;
        println!(
            "priming {:<14} {:>9.1} ms  plan {} ms",
            job.name,
            r.latency.as_secs_f64() * 1e3,
            field(&r.body, "plan_ms").unwrap_or("?")
        );
        match field(&r.body, "error_bound") {
            Some(t) if r.status == 200 => eps.push(t.to_string()),
            _ => {
                return Err(format!(
                    "priming {}: HTTP {} {}",
                    job.name, r.status, r.body
                ))
            }
        }
    }
    Ok(Primed {
        server,
        bodies,
        eps,
    })
}

/// One answered request as a client thread saw it.
struct Answer {
    program: Option<usize>,
    latency_ms: f64,
    problem: Option<String>,
    status: u16,
    /// Traced rounds only: the report and the request's span tree.
    report: Option<Json>,
    roots: Vec<Node>,
}

/// One connection's share of a round.
fn client(p: &Primed, order: &[usize], traced: bool) -> Vec<Answer> {
    let mut conn = match Conn::connect(p.server.addr) {
        Ok(c) => c,
        Err(e) => {
            return vec![Answer {
                program: None,
                latency_ms: 0.0,
                problem: Some(format!("connect: {e}")),
                status: 0,
                report: None,
                roots: Vec::new(),
            }]
        }
    };
    let mut answers = Vec::with_capacity(order.len());
    for (i, &prog) in order.iter().enumerate() {
        let scrape = i % SCRAPE_EVERY == SCRAPE_EVERY - 1;
        let sent = if scrape {
            conn.get(SCRAPE)
        } else {
            conn.post("/analyze", &p.bodies[prog])
        };
        let r = match sent {
            Ok(r) => r,
            Err(e) => {
                answers.push(Answer {
                    program: None,
                    latency_ms: 0.0,
                    problem: Some(format!("request {i}: {e}")),
                    status: 0,
                    report: None,
                    roots: Vec::new(),
                });
                break;
            }
        };
        let problem = if r.status != 200 {
            Some(format!("HTTP {}", r.status))
        } else if scrape {
            (!r.body.contains("gleipnir_")).then(|| "scrape without series".to_string())
        } else if field(&r.body, "error_bound") != Some(p.eps[prog].as_str()) {
            Some(format!(
                "program {prog}: ε {:?} differs from priming {}",
                field(&r.body, "error_bound"),
                p.eps[prog]
            ))
        } else if field(&r.body, "sdp_solves") != Some("0") {
            Some(format!("program {prog}: warm request solved SDPs"))
        } else {
            None
        };
        let (mut report, mut roots) = (None, Vec::new());
        if traced && !scrape {
            report = json::parse(&r.body)
                .ok()
                .and_then(|v| v.get("report").cloned());
            roots = conn.trace(r.trace_id.as_deref());
        }
        answers.push(Answer {
            program: (!scrape).then_some(prog),
            latency_ms: r.latency.as_secs_f64() * 1e3,
            problem,
            status: r.status,
            report,
            roots,
        });
    }
    answers
}

struct Round {
    wall_s: f64,
    /// Host speed over the round (see `host`).
    speed: f64,
    answers: Vec<Answer>,
}

fn round(p: &Primed, clock: &HostClock, orders: &[Vec<usize>], traced: bool) -> Round {
    let (t0, c0) = (Instant::now(), clock.now());
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| s.spawn(move || client(p, order, traced)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    Round {
        wall_s: t0.elapsed().as_secs_f64(),
        speed: clock.speed(c0, clock.now()),
        answers,
    }
}

/// Analyze requests that were answered correctly.
fn answered(answers: &[Answer]) -> impl Iterator<Item = &Answer> {
    answers
        .iter()
        .filter(|a| a.program.is_some() && a.problem.is_none())
}

/// Per-round figures at the reference host speed (a round is a fixed
/// request count, so rounds are comparable), then their medians.
fn end_to_end(setup_s: f64, rounds: &[Round]) -> EndToEnd {
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    for r in rounds {
        let lat: Vec<f64> = answered(&r.answers)
            .map(|a| a.latency_ms * r.speed)
            .collect();
        if lat.is_empty() {
            continue;
        }
        walls.push(r.wall_s * r.speed);
        rates.push(lat.len() as f64 / (r.wall_s * r.speed));
        p50s.push(stats::median(&lat));
        tails.push(stats::tail(&lat).value);
    }
    if walls.is_empty() {
        return EndToEnd {
            setup_s,
            ..EndToEnd::default()
        };
    }
    let p50 = stats::median(&p50s);
    EndToEnd {
        setup_s,
        wall_s: stats::median(&walls),
        answers_per_s: stats::median(&rates),
        p50_ms: p50,
        tail_ms: stats::median(&tails),
        // A blocking request returns one bound: the exact one.
        first_bound_p50_ms: p50,
    }
}

fn tally(out: &mut Outcome, rounds: &[Round]) {
    for a in rounds.iter().flat_map(|r| &r.answers) {
        out.op(a.problem.clone());
    }
}

fn measure(p: &Primed, orders: &[Vec<usize>], args: &Args, traced: bool) -> Vec<Round> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || t0.elapsed() < args.budget() {
        rounds.push(round(p, &args.clock, orders, traced));
    }
    rounds
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = gen::warm_set(args.seed);
    let orders: Vec<Vec<usize>> = (0..CONNS)
        .map(|c| {
            gen::request_order(
                args.seed.wrapping_add(c as u64 * 7919),
                jobs.len(),
                PER_CONN,
            )
        })
        .collect();
    let mut primings = Vec::new();
    let setups = if args.trace { 1 } else { SETUPS };
    let (primed, setup_s) = timed_setups(&args.clock, setups, || {
        let p = setup(args, &jobs)?;
        primings.push(p.eps.clone());
        Ok(p)
    })?;
    out.gate(primings.windows(2).all(|w| w[0] == w[1]), || {
        format!("priming ε differs between fresh servers: {primings:?}")
    });
    if !args.trace {
        let rounds = measure(&primed, &orders, args, false);
        tally(&mut out, &rounds);
        for (i, job) in jobs.iter().enumerate() {
            let lat: Vec<f64> = rounds
                .iter()
                .flat_map(|r| &r.answers)
                .filter(|a| a.program == Some(i))
                .map(|a| a.latency_ms)
                .collect();
            if !lat.is_empty() {
                let t = stats::tail(&lat);
                println!(
                    "{:<14} p50 {:.3} ms  p{} {:.3} ms  ({} samples)",
                    job.name,
                    stats::median(&lat),
                    t.percentile,
                    t.value,
                    t.samples
                );
            }
        }
        out.metrics = end_to_end(setup_s, &rounds).metrics();
        return Ok(out);
    }

    let untraced = measure(&primed, &orders, args, false);
    let traced = measure(&primed, &orders, args, true);
    tally(&mut out, &untraced);
    tally(&mut out, &traced);

    let answers: Vec<&Answer> = traced.iter().flat_map(|r| &r.answers).collect();
    let analyzed: Vec<&Answer> = traced.iter().flat_map(|r| answered(&r.answers)).collect();
    let n = analyzed.len().max(1) as f64;
    let mut layers = Layers {
        pool_threads: SERVER_THREADS as f64,
        ..Layers::default()
    };
    let mut profile = Profile::default();
    // Obligation spans per program: every request for a program folds the
    // same units, so the most any trace shows is what each must show.
    let mut most = vec![0usize; jobs.len()];
    for a in &analyzed {
        let mut one = Profile::default();
        for r in &a.roots {
            one.add_tree(r);
        }
        let prog = a.program.expect("analyze answer");
        most[prog] = most[prog].max(one.get("obligation").count);
    }
    for a in &analyzed {
        for r in &a.roots {
            profile.add_tree(r);
        }
        let request_wall = a.roots.iter().map(Node::wall_ms).fold(0.0, f64::max);
        layers.transport_ms += (a.latency_ms - request_wall) / n;
        let num = |k: &str| {
            a.report
                .as_ref()
                .and_then(|r| r.get(k))
                .and_then(Json::as_f64)
        };
        let stage = |k: &str| {
            a.report
                .as_ref()
                .and_then(|r| r.get("stages")?.get(k)?.as_f64())
                .unwrap_or(0.0)
        };
        layers.plan_ms += stage("plan_ms") / n;
        layers.solve_ms += stage("solve_ms") / n;
        layers.assemble_ms += stage("assemble_ms") / n;
        layers.sdp_solves += num("sdp_solves").unwrap_or(0.0) / n;
        layers.cache_hits += num("cache_hits").unwrap_or(0.0) / n;
        layers.inflight_dedup += num("inflight_dedup").unwrap_or(0.0) / n;
        let lost = spans_lost(&a.roots, most[a.program.expect("analyze answer")].max(1), 0);
        layers.spans_dropped += lost as f64;
    }
    out.gate(layers.spans_dropped == 0.0, || {
        format!("warm traces lost {} spans", layers.spans_dropped)
    });
    layers.http_parse_ms = profile.get("http_parse").self_ms / n;
    layers.queue_wait_ms = profile.get("queue_wait").self_ms / n;
    layers.handler_ms = profile.get("handler").self_ms / n;
    layers.mps_evolve_ms = profile.get("mps").self_ms / n;
    let ob = profile.get("obligation");
    layers.obligation_wait_ms = ob.wait_ms / ob.count.max(1) as f64;
    layers.busy_ms = ob.wall_ms / n;
    layers.pool_window_ms = layers.solve_ms;
    let scrapes: Vec<f64> = answers
        .iter()
        .filter(|a| a.program.is_none() && a.problem.is_none())
        .map(|a| a.latency_ms)
        .collect();
    layers.metrics_scrape_ms = scrapes.iter().sum::<f64>() / scrapes.len().max(1) as f64;
    layers.rejected = answers
        .iter()
        .filter(|a| matches!(a.status, 408 | 429))
        .count() as f64
        + primed.server.refused();

    println!(
        "self time by span, warm_serve traced rounds ({} requests):",
        analyzed.len()
    );
    print!("{}", profile.render(n, "per request"));
    out.metrics = layers.metrics(&end_to_end(0.0, &traced), &end_to_end(0.0, &untraced));
    print_table("warm_serve (per request)", &out.metrics);
    Ok(out)
}
