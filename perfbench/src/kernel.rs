//! Kernel-level accounting: achieved Cholesky GFLOP/s at the interior-point
//! Schur-complement shape, against a single-core multiply-add peak measured
//! in the same process.

use gleipnir_linalg::RMat;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Constraint count of the per-gate SDP (blocks `[32, 32, 8, 1]`), i.e. the
/// order of the Schur complement the solver factors every iteration.
pub const SCHUR_ORDER: usize = 258;

/// Runs `f` repeatedly for at least `budget` and returns calls per second.
fn rate(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || t0.elapsed() < budget {
        f();
        calls += 1;
    }
    calls as f64 / t0.elapsed().as_secs_f64()
}

/// `RMat::cholesky_into` on an SPD matrix of [`SCHUR_ORDER`]: n³/3 flops
/// per factorization.
pub fn cholesky_gflops(budget: Duration) -> f64 {
    let n = SCHUR_ORDER;
    let b = RMat::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
    let spd = RMat::from_fn(n, n, |i, j| {
        let dot: f64 = (0..n).map(|k| b.at(i, k) * b.at(j, k)).sum();
        dot + if i == j { n as f64 } else { 0.0 }
    });
    let mut out = RMat::zeros(n, n);
    let per_sec = rate(budget, || {
        assert!(
            black_box(&spd).cholesky_into(&mut out),
            "SPD by construction"
        );
        black_box(&out);
    });
    per_sec * (n * n * n) as f64 / 3.0 / 1e9
}

/// Single-core peak of independent multiply-add chains (8 accumulators over
/// an L1-resident array, so the compiler may vectorize across them): two
/// flops per element per pass.
pub fn peak_gflops(budget: Duration) -> f64 {
    const LEN: usize = 1024;
    const PASSES: usize = 64;
    let a: Vec<f64> = (0..LEN).map(|i| 1.0 + i as f64 * 1e-6).collect();
    let x: Vec<f64> = (0..LEN).map(|i| 1.0 - i as f64 * 1e-6).collect();
    let per_sec = rate(budget, || {
        let mut acc = [0.0f64; 8];
        for _ in 0..PASSES {
            for (ca, cx) in black_box(&a)
                .chunks_exact(8)
                .zip(black_box(&x).chunks_exact(8))
            {
                for k in 0..8 {
                    acc[k] += ca[k] * cx[k];
                }
            }
        }
        black_box(acc);
    });
    per_sec * 2.0 * (LEN * PASSES) as f64 / 1e9
}
