//! Host speed, sampled alongside the workload.
//!
//! The benchmark runs on shared hosts whose per-core speed moves between
//! regimes for minutes at a time (on the 2-vCPU reference container a
//! single-threaded loop swung between 200 and 360 ms, and the cold suite
//! between 7.3 and 13.6 s, within one hour). A sampler thread times a fixed
//! bench-local kernel (a dense Cholesky at order 128, the shape of work
//! the solver does) in short chunks for the whole run, and every
//! end-to-end time is reported at the reference speed: the raw time times
//! the host's measured speed over that interval relative to
//! [`REF_RATE`]. The kernel is the benchmark's own code, so nothing a
//! change to the program does can move it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel runs per second that count as speed 1.
pub const REF_RATE: f64 = 3000.0;
const ORDER: usize = 128;
/// Pause between chunks: the sampler uses a few percent of one core.
const PERIOD: Duration = Duration::from_millis(25);

/// A running sampler; stops and joins on drop.
pub struct HostClock {
    start: Instant,
    /// (seconds since start at the chunk's midpoint, kernel runs per second)
    samples: Arc<Mutex<Vec<(f64, f64)>>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// One run of the reference kernel: textbook Cholesky of a fixed SPD matrix.
fn kernel(a: &[f64], l: &mut [f64]) {
    let n = ORDER;
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            l[i * n + j] = if i == j { s.sqrt() } else { s / l[j * n + j] };
        }
    }
}

impl HostClock {
    pub fn start() -> HostClock {
        let start = Instant::now();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                let n = ORDER;
                let a: Vec<f64> = (0..n * n)
                    .map(|k| {
                        let (i, j) = (k / n, k % n);
                        if i == j {
                            n as f64
                        } else {
                            ((i + j) % 13) as f64 / 130.0
                        }
                    })
                    .collect();
                let mut l = vec![0.0; n * n];
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    kernel(black_box(&a), &mut l);
                    black_box(&l);
                    let secs = t0.elapsed().as_secs_f64();
                    let mid = (t0 - start).as_secs_f64() + secs / 2.0;
                    samples
                        .lock()
                        .expect("sampler lock poisoned")
                        .push((mid, 1.0 / secs));
                    std::thread::sleep(PERIOD);
                }
            })
        };
        HostClock {
            start,
            samples,
            stop,
            handle: Some(handle),
        }
    }

    /// Seconds since the sampler started (the clock intervals are given in).
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The host's speed over `[t0, t1]` relative to [`REF_RATE`]: the
    /// median kernel rate of the chunks inside the interval (or the one
    /// nearest it). A chunk that was preempted reads slow; the median
    /// ignores the few that were.
    pub fn speed(&self, t0: f64, t1: f64) -> f64 {
        let samples = self.samples.lock().expect("sampler lock poisoned");
        let mut inside: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= t0 && *t <= t1)
            .map(|&(_, r)| r)
            .collect();
        if inside.is_empty() {
            let mid = (t0 + t1) / 2.0;
            if let Some(&(_, r)) = samples
                .iter()
                .min_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()))
            {
                inside.push(r);
            }
        }
        if inside.is_empty() {
            return 1.0;
        }
        crate::stats::median(&inside) / REF_RATE
    }

    /// `raw` (measured over `[t0, t1]`) at the reference speed.
    pub fn normalize(&self, raw: f64, t0: f64, t1: f64) -> f64 {
        raw * self.speed(t0, t1)
    }
}

impl Drop for HostClock {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
