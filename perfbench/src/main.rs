//! `perfbench`: the repository benchmark driver.
//!
//! ```text
//! perfbench --workload cold_suite|warm_serve|edit_session --seed N --seconds S
//!           --trace 0|1 --server-bin PATH --work-dir DIR [--commit ID]
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds this
//! driver and the `gleipnir` binary and fills in the last three flags.
//! Every workload prints a machine fingerprint, then (with `--trace 1`) the
//! per-layer table, and ends with one JSON line: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics without tracing, the
//! per-layer metrics with it. End-to-end times are scaled to a reference
//! host speed sampled during the run (`host`); per-layer figures are raw.
//! The exit status is non-zero when any correctness gate failed.

mod cold;
mod edit;
mod gen;
mod host;
mod http;
mod kernel;
mod layers;
mod spans;
mod stats;
mod warm;

use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
    pub commit: String,
    /// Samples the host's speed for the whole run.
    pub clock: host::HostClock,
}

impl Args {
    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<String> {
        raw.iter()
            .position(|a| a == name)
            .and_then(|i| raw.get(i + 1))
            .cloned()
    };
    let need = |name: &str| value(name).ok_or(format!("missing {name}"));
    let number = |name: &str| -> Result<f64, String> {
        need(name)?
            .parse::<f64>()
            .map_err(|_| format!("{name} must be a number"))
    };
    Ok(Args {
        workload: need("--workload")?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds: number("--seconds")?.max(0.1),
        trace: match value("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        server_bin: need("--server-bin")?.into(),
        work_dir: need("--work-dir")?.into(),
        commit: value("--commit").unwrap_or_else(|| "unknown".into()),
        clock: host::HostClock::start(),
    })
}

/// One named metric as the result line reports it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that failed, one line each.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one operation; `problem` is why it failed, if it did.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(p);
            }
        }
    }

    /// A correctness gate outside any single operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Times `runs` set-ups, keeps the last one's product, and reports the
/// median set-up time in seconds at the reference host speed.
pub fn timed_setups<T>(
    clock: &host::HostClock,
    runs: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        // Drop the previous product first (a server must stop before the
        // next one starts).
        drop(last.take());
        let t0 = clock.now();
        let product = setup()?;
        let t1 = clock.now();
        times.push(clock.normalize(t1 - t0, t0, t1));
        last = Some(product);
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

fn fingerprint(args: &Args, engine_threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\"engine_threads\":{engine_threads},\"server_workers\":{},\"server_threads\":{}}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&args.commit),
        http::SERVER_WORKERS,
        http::SERVER_THREADS,
    )
}

fn json_string(s: &str) -> String {
    gleipnir_core::jsonfmt::json_str(s)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "cold_suite" => cold::run(&args),
        "warm_serve" => warm::run(&args),
        "edit_session" => edit::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let engine_threads = gleipnir_core::Engine::new().threads();
    println!("fingerprint {}", fingerprint(&args, engine_threads));
    for e in &outcome.errors {
        println!("correctness: {e}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Every digit as measured (`{}` prints the shortest exact form); non-finite
/// values cannot occur in JSON, so they become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
