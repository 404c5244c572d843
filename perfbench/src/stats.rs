//! Order statistics over timing samples.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Element-wise median over repetitions of the same items: `reps[r][i]`
/// is item `i`'s time in repetition `r`.
///
/// # Panics
///
/// Panics when there are no repetitions or their lengths differ.
pub fn median_per_item(reps: &[Vec<f64>]) -> Vec<f64> {
    assert!(!reps.is_empty(), "no repetitions");
    let n = reps[0].len();
    assert!(reps.iter().all(|r| r.len() == n), "ragged repetitions");
    (0..n)
        .map(|i| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// A tail latency: the highest standard percentile that still has at least
/// [`MIN_BEYOND`] samples above it, with the count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 = the maximum, when too few samples
    /// exist for any percentile to qualify).
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles, in tenths of a percent (integer ranks avoid
/// float rounding at the boundaries).
const PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Picks the highest candidate percentile that leaves at least
/// [`MIN_BEYOND`] samples above its nearest-rank position; falls back to the
/// maximum when there are too few samples for any.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in PERMILLE {
        let rank = (p * n).div_ceil(1000);
        if rank >= 1 && n - rank >= MIN_BEYOND {
            return Tail {
                percentile: p as f64 / 10.0,
                value: v[rank - 1],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: v[n - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_per_item_takes_each_items_median() {
        let reps = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 2.0, 4.0],
        ];
        assert_eq!(median_per_item(&reps), vec![3.0, 2.0, 5.0]);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 above it.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 10 000 samples: p99.9 has 10 above rank 9990.
        assert_eq!(tail(&ramp(10_000)).percentile, 99.9);
        // 999 samples: p99 would leave only 9 beyond, so p95 it is.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.samples), (95.0, 999));
        assert_eq!(t.value, 950.0);
        // 200 samples: p95 leaves 10 above rank 190.
        assert_eq!(tail(&ramp(200)).percentile, 95.0);
        // 20 samples: only the median leaves 10 beyond.
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_with_few_samples() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 9.0, 3));
    }
}
