//! Fixed-boundary log-scale latency histograms.
//!
//! Boundaries are compiled in (4 per decade, 1 µs … 100 s), so recording
//! is a binary search plus three relaxed atomic adds — no locks, no
//! allocation, and safe to call from solver worker threads. Quantiles are
//! estimated by linear interpolation inside the target bucket, which makes
//! them exact to within one bucket boundary (≤ 78% relative error bound
//! from the 10^(1/4) bucket ratio; in practice much tighter).

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds in **milliseconds**: four per decade
/// (1, 10^0.25 ≈ 1.778, 10^0.5 ≈ 3.162, 10^0.75 ≈ 5.623) from 1 µs to
/// 100 s. Strictly increasing; an implicit +Inf bucket follows the last.
pub const LATENCY_BOUNDS_MS: &[f64] = &[
    0.001, 0.0017783, 0.0031623, 0.0056234, // 1 µs decade
    0.01, 0.017783, 0.031623, 0.056234, // 10 µs decade
    0.1, 0.17783, 0.31623, 0.56234, // 100 µs decade
    1.0, 1.7783, 3.1623, 5.6234, // 1 ms decade
    10.0, 17.783, 31.623, 56.234, // 10 ms decade
    100.0, 177.83, 316.23, 562.34, // 100 ms decade
    1000.0, 1778.3, 3162.3, 5623.4, // 1 s decade
    10000.0, 17783.0, 31623.0, 56234.0,  // 10 s decade
    100000.0, // 100 s
];

/// A concurrent fixed-boundary histogram. All mutation is relaxed-atomic;
/// reads are snapshots whose count is their bucket total and whose sum
/// may be off by an observation racing the read (fine for monitoring,
/// never fed back into analysis).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Box<[AtomicU64]>,
    /// Sum of observed values in nanoseconds (ms × 1e6), so `_sum` stays
    /// an exact integer accumulator.
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over [`LATENCY_BOUNDS_MS`].
    pub fn latency() -> Histogram {
        Histogram {
            bounds: LATENCY_BOUNDS_MS,
            buckets: (0..=LATENCY_BOUNDS_MS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation in milliseconds. Negative and non-finite
    /// values are clamped to 0 (they land in the first bucket and add
    /// nothing to the sum) so NaN/Inf can never leak into exposition.
    pub fn observe_ms(&self, ms: f64) {
        let ms = if ms.is_finite() && ms > 0.0 { ms } else { 0.0 };
        let idx = self.bounds.partition_point(|b| *b < ms);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation from a [`std::time::Duration`].
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe_ms(d.as_secs_f64() * 1e3);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// A point-in-time copy of the per-bucket counts (non-cumulative),
    /// sum, and count. The count is the total of the loaded buckets, not
    /// a separate load, so an observation racing the snapshot can never
    /// leave it counting more than its buckets hold.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds: self.bounds,
            count: buckets.iter().sum(),
            buckets,
            sum_ms: self.sum_ms(),
        }
    }
}

/// A point-in-time histogram copy, for rendering and quantile estimation.
pub struct HistogramSnapshot {
    /// Bucket upper bounds (ms); the final +Inf bucket is implicit.
    pub bounds: &'static [f64],
    /// Per-bucket counts, `bounds.len() + 1` entries (last = +Inf).
    pub buckets: Vec<u64>,
    /// Sum of observations (ms).
    pub sum_ms: f64,
    /// Number of observations: the bucket total.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (0 ≤ q ≤ 1) in milliseconds: linear
    /// interpolation inside the bucket holding the target rank. Returns
    /// 0.0 for an empty histogram.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= rank {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                // The +Inf bucket has no upper bound: report its lower
                // boundary (conservative; nothing finite to interpolate
                // toward).
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    return lo;
                };
                let into = (rank - cum as f64) / n as f64;
                return lo + (hi - lo) * into.clamp(0.0, 1.0);
            }
            cum = next;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing() {
        assert!(LATENCY_BOUNDS_MS.windows(2).all(|w| w[0] < w[1]));
        // Log-scale: each decade boundary is present.
        for d in [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0] {
            assert!(LATENCY_BOUNDS_MS.contains(&d), "missing decade {d}");
        }
    }

    #[test]
    fn sum_and_count_are_consistent() {
        let h = Histogram::latency();
        let values = [0.002, 0.5, 0.5, 3.0, 42.0, 950.0];
        for v in values {
            h.observe_ms(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        let exact: f64 = values.iter().sum();
        assert!(
            (h.sum_ms() - exact).abs() < 1e-3,
            "sum {} vs exact {exact}",
            h.sum_ms()
        );
        // Bucket counts add up to the observation count.
        let snap = h.snapshot();
        assert_eq!(snap.buckets.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn non_finite_and_negative_observations_cannot_poison() {
        let h = Histogram::latency();
        h.observe_ms(f64::NAN);
        h.observe_ms(f64::INFINITY);
        h.observe_ms(f64::NEG_INFINITY);
        h.observe_ms(-5.0);
        assert_eq!(h.count(), 4);
        assert!(h.sum_ms().is_finite());
        assert_eq!(h.sum_ms(), 0.0);
        assert!(h.snapshot().quantile_ms(0.99).is_finite());
    }

    /// Quantile estimates land within one bucket boundary of the exact
    /// order statistic on seeded data.
    #[test]
    fn quantiles_are_within_one_bucket_of_exact() {
        // Deterministic pseudo-random-ish spread over four decades.
        let mut values: Vec<f64> = (1..=500)
            .map(|i| {
                let x = f64::from(i);
                0.01 * (1.0 + (x * 0.7919).fract() * 9.0) * 10f64.powi((i % 4) as i32)
            })
            .collect();
        let h = Histogram::latency();
        for &v in &values {
            h.observe_ms(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.95, 0.99] {
            let est = h.snapshot().quantile_ms(q);
            let exact = values[(((values.len() - 1) as f64) * q).round() as usize];
            // The estimate must fall within the bucket adjacent to the
            // bucket containing the exact value.
            let idx_exact = LATENCY_BOUNDS_MS.partition_point(|b| *b < exact);
            let lo = if idx_exact == 0 {
                0.0
            } else {
                LATENCY_BOUNDS_MS[idx_exact - 1]
            };
            let hi = LATENCY_BOUNDS_MS
                .get(idx_exact + 1)
                .copied()
                .unwrap_or(f64::INFINITY);
            assert!(
                est >= lo && est <= hi,
                "q={q}: estimate {est} outside [{lo}, {hi}] around exact {exact}"
            );
        }
    }

    /// A snapshot racing an observation can load the buckets before that
    /// observation's bucket add and the count after its count add. Its
    /// count must still be the bucket total, so `_count` equals the
    /// `+Inf` bucket and no quantile reads past the last observation.
    #[test]
    fn a_torn_read_cannot_count_past_the_buckets() {
        let h = Histogram::latency();
        h.observe_ms(2.0);
        // The racing observation as the later loads see it: sum and
        // count added, bucket not yet visible.
        h.sum_ns.fetch_add(3_000_000, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        let snap = h.snapshot();
        assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
        for q in [0.5, 0.99, 1.0] {
            let p = snap.quantile_ms(q);
            assert!(
                p > 1.7783 && p <= 3.1623,
                "q={q}: {p} outside 2 ms's bucket"
            );
        }
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::latency().snapshot().quantile_ms(0.5), 0.0);
    }
}
