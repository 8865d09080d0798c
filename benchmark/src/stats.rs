//! Reducers that turn replayed unit timings into metrics.
//!
//! A workload replays the same seeded script of *units* several times
//! from clones of one snapshot. The work is bit-identical between
//! passes, so the spread between passes is host interference and each
//! unit's cost is its **minimum** over the passes ([`best_of`]).
//! Metrics are sums or percentiles over those per-unit minima.

/// Samples a percentile must leave beyond itself before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Element-wise minimum over passes: the best-of-R time of every unit.
///
/// # Panics
///
/// Panics if `passes` is empty or the passes differ in length (they
/// replay one script, so they cannot).
pub fn best_of(passes: &[Vec<u64>]) -> Vec<u64> {
    reduce(passes, |col| *col.iter().min().expect("at least one pass"))
}

/// Element-wise median over passes (upper median for even counts); only
/// used to measure how far a typical pass sits from the best one.
pub fn median_of(passes: &[Vec<u64>]) -> Vec<u64> {
    reduce(passes, |col| {
        col.sort_unstable();
        col[col.len() / 2]
    })
}

fn reduce(passes: &[Vec<u64>], f: impl Fn(&mut Vec<u64>) -> u64) -> Vec<u64> {
    let units = passes.first().expect("at least one pass").len();
    assert!(
        passes.iter().all(|p| p.len() == units),
        "passes replay one script and must have equal unit counts"
    );
    let mut col = Vec::with_capacity(passes.len());
    (0..units)
        .map(|u| {
            col.clear();
            col.extend(passes.iter().map(|p| p[u]));
            f(&mut col)
        })
        .collect()
}

/// `Σ median-of-R ÷ Σ best-of-R − 1`: how much slower a typical pass was
/// than the best one. Above [`NOISY_SPREAD`] the run is marked noisy.
pub fn replay_spread(passes: &[Vec<u64>]) -> f64 {
    let best: u64 = best_of(passes).iter().sum();
    let median: u64 = median_of(passes).iter().sum();
    median as f64 / best.max(1) as f64 - 1.0
}

/// [`replay_spread`] above which a run is reported as `noisy_run`.
pub const NOISY_SPREAD: f64 = 0.25;

/// Nearest-rank percentile `p` in `(0, 1)` of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (the estimate would
/// ride on a handful of outliers).
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the two middle ones for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_takes_the_minimum_per_unit_not_per_pass() {
        let passes = vec![vec![10, 50, 30], vec![20, 40, 31], vec![15, 60, 29]];
        assert_eq!(best_of(&passes), vec![10, 40, 29]);
        assert_eq!(median_of(&passes), vec![15, 50, 30]);
        // (15 + 50 + 30) / (10 + 40 + 29) - 1
        assert!((replay_spread(&passes) - (95.0 / 79.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal unit counts")]
    fn best_of_rejects_passes_of_different_scripts() {
        best_of(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50));
        assert_eq!(percentile(&hundred, 0.9), Some(90));
        // p91 of 100 leaves only nine beyond.
        assert_eq!(percentile(&hundred, 0.91), None);
        let ninety_nine: Vec<u64> = (1..=99).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        // A median needs 20 samples: ten beyond rank 10.
        assert_eq!(percentile(&(1..=20).collect::<Vec<_>>(), 0.5), Some(10));
        assert_eq!(percentile(&(1..=19).collect::<Vec<_>>(), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        v.swap(3, 77);
        assert_eq!(percentile(&v, 0.9), Some(90));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
