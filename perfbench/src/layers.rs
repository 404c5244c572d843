//! The metric catalog: the end-to-end figures every workload reports with
//! tracing off, and the per-layer figures of a traced run. Both render in a
//! fixed order with fixed units, so every workload prints every metric;
//! a layer a workload never reaches reads 0.

use crate::{metric, Metric};

/// End-to-end figures, as a client sees them, each timed interval scaled
/// to the reference host speed (see `host`).
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time of several set-ups in the run.
    pub setup_s: f64,
    /// Wall time of one unit of work (a suite pass, a round of requests, an
    /// edit chain): first request sent to the last exact certified bound in
    /// hand.
    pub wall_s: f64,
    /// Exact certified answers per second over the measured window.
    pub answers_per_s: f64,
    /// Median latency of an exact answer.
    pub p50_ms: f64,
    /// Highest percentile with at least ten samples beyond it (else max).
    pub tail_ms: f64,
    /// Median latency of the first certified bound a request returns.
    pub first_bound_p50_ms: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("wall_s", self.wall_s, "s"),
            metric("answers_per_s", self.answers_per_s, "1/s"),
            metric("p50_ms", self.p50_ms, "ms"),
            metric("tail_ms", self.tail_ms, "ms"),
            metric("first_bound_p50_ms", self.first_bound_p50_ms, "ms"),
        ]
    }

    /// Traced minus untraced, for every metric the trace can perturb.
    fn overhead(traced: &EndToEnd, untraced: &EndToEnd) -> Vec<Metric> {
        vec![
            metric(
                "trace.overhead.wall_s",
                traced.wall_s - untraced.wall_s,
                "s",
            ),
            metric(
                "trace.overhead.answers_per_s",
                traced.answers_per_s - untraced.answers_per_s,
                "1/s",
            ),
            metric(
                "trace.overhead.p50_ms",
                traced.p50_ms - untraced.p50_ms,
                "ms",
            ),
            metric(
                "trace.overhead.tail_ms",
                traced.tail_ms - untraced.tail_ms,
                "ms",
            ),
            metric(
                "trace.overhead.first_bound_p50_ms",
                traced.first_bound_p50_ms - untraced.first_bound_p50_ms,
                "ms",
            ),
        ]
    }
}

/// The solver phases in `SolverProfile` order.
pub const PHASES: [&str; 7] = [
    "setup",
    "residual",
    "schur",
    "factor",
    "direction",
    "step",
    "cert",
];

/// Per-layer figures of one traced run. Time sums are per unit of work
/// (one suite pass, one request, one edit — see each workload).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Solver phase times: CPU time summed across pool workers, not wall.
    pub sdp_phase_cpu_ms: [f64; 7],
    pub sdp_cpu_ms: f64,
    /// Wall time of the solve stage the CPU sums above ran in.
    pub sdp_solve_wall_ms: f64,
    pub ip_iterations: f64,
    pub loop_allocs: f64,
    pub cholesky_gflops: f64,
    pub peak_gflops: f64,
    /// Mean pool queue wait per obligation.
    pub obligation_wait_ms: f64,
    pub busy_ms: f64,
    /// Wall time the pool's busy time is measured against (the solve
    /// stages, or the requests that solved).
    pub pool_window_ms: f64,
    pub pool_threads: f64,
    pub speedup: f64,
    pub plan_ms: f64,
    pub solve_ms: f64,
    pub assemble_ms: f64,
    pub sdp_solves: f64,
    pub cache_hits: f64,
    pub inflight_dedup: f64,
    pub mps_evolve_ms: f64,
    pub http_parse_ms: f64,
    pub queue_wait_ms: f64,
    pub handler_ms: f64,
    pub transport_ms: f64,
    pub rejected: f64,
    pub metrics_scrape_ms: f64,
    pub prefix_reuse: f64,
    pub suffix_solves: f64,
    pub first_bound_ms: f64,
    pub refined_ms: f64,
    pub records_appended: f64,
    pub store_bytes: f64,
    pub spans_dropped: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    pub fn metrics(&self, traced: &EndToEnd, untraced: &EndToEnd) -> Vec<Metric> {
        let mut m: Vec<Metric> = PHASES
            .iter()
            .zip(self.sdp_phase_cpu_ms)
            .map(|(p, v)| metric(&format!("sdp.{p}_cpu_ms"), v, "ms"))
            .collect();
        m.extend([
            metric("sdp.cpu_ms", self.sdp_cpu_ms, "ms"),
            metric("sdp.solve_wall_ms", self.sdp_solve_wall_ms, "ms"),
            metric("sdp.ip_iterations", self.ip_iterations, "count"),
            metric(
                "sdp.iterations_per_solve",
                ratio(self.ip_iterations, self.sdp_solves),
                "count",
            ),
            metric(
                "sdp.ms_per_iteration",
                ratio(self.sdp_cpu_ms, self.ip_iterations),
                "ms",
            ),
            metric("sdp.loop_allocs", self.loop_allocs, "count"),
            metric("linalg.cholesky_gflops", self.cholesky_gflops, "GFLOP/s"),
            metric("linalg.peak_gflops", self.peak_gflops, "GFLOP/s"),
            metric("pool.obligation_wait_ms", self.obligation_wait_ms, "ms"),
            metric("pool.busy_ms", self.busy_ms, "ms"),
            metric(
                "pool.efficiency",
                ratio(self.busy_ms, self.pool_window_ms * self.pool_threads),
                "ratio",
            ),
            metric("pool.speedup", self.speedup, "ratio"),
            metric("core.plan_ms", self.plan_ms, "ms"),
            metric("core.solve_ms", self.solve_ms, "ms"),
            metric("core.assemble_ms", self.assemble_ms, "ms"),
            metric("core.sdp_solves", self.sdp_solves, "count"),
            metric("core.cache_hits", self.cache_hits, "count"),
            metric("core.inflight_dedup", self.inflight_dedup, "count"),
            metric(
                "core.cache_hit_ratio",
                ratio(self.cache_hits, self.cache_hits + self.sdp_solves),
                "ratio",
            ),
            metric("mps.evolve_ms", self.mps_evolve_ms, "ms"),
            metric("server.http_parse_ms", self.http_parse_ms, "ms"),
            metric("server.queue_wait_ms", self.queue_wait_ms, "ms"),
            metric("server.handler_ms", self.handler_ms, "ms"),
            metric("server.transport_ms", self.transport_ms, "ms"),
            metric("server.rejected", self.rejected, "count"),
            metric("server.metrics_scrape_ms", self.metrics_scrape_ms, "ms"),
            metric("diff.prefix_reuse", self.prefix_reuse, "ratio"),
            metric("diff.suffix_solves", self.suffix_solves, "count"),
            metric("refine.first_bound_ms", self.first_bound_ms, "ms"),
            metric("refine.refined_ms", self.refined_ms, "ms"),
            metric("persist.records_appended", self.records_appended, "count"),
            metric("persist.store_bytes", self.store_bytes, "bytes"),
        ]);
        m.extend(EndToEnd::overhead(traced, untraced));
        m.push(metric("trace.spans_dropped", self.spans_dropped, "count"));
        m
    }
}

/// Prints the per-layer table (names, values, units) for a human reader.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("per-layer table: {title}");
    for m in metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}
