//! Percentiles under the benchmark's reporting rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p90 needs 100 samples and a p99 needs 1000. Every
//! reported percentile carries its sample count.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
    /// Samples ranked beyond the reported one.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples rank beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // 1-based nearest rank: the smallest rank whose share reaches q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Σ over columns of `stat` applied to each column across rows: the total
/// of a run made of parts, each part's time summarised over repeated runs
/// before the parts are added up.
pub fn column_sum(rows: &[Vec<f64>], stat: fn(&[f64]) -> f64) -> f64 {
    let cols = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..cols)
        .map(|c| stat(&rows.iter().map(|r| r[c]).collect::<Vec<_>>()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 0.9).expect("100 samples carry a p90");
        assert_eq!(p90.value, 90.0);
        assert_eq!((p90.samples, p90.beyond), (100, 10));
        assert!(
            percentile(&xs[..99], 0.9).is_none(),
            "99 samples leave 9 beyond p90"
        );
        assert!(percentile(&xs, 0.99).is_none(), "p99 needs 1000 samples");
        let p50 = percentile(&xs[..20], 0.5).expect("20 samples carry a median");
        assert_eq!((p50.value, p50.beyond), (10.0, 10));
        assert!(percentile(&xs[..19], 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0].repeat(10);
        let p = percentile(&xs, 0.5).expect("50 samples");
        assert_eq!(p.value, 3.0);
        assert_eq!(p.beyond, 25);
    }

    #[test]
    fn column_sum_filters_a_slow_part() {
        // Part 1 is slow in run 0, part 0 in runs 2 and 3: each run total
        // is inflated, the per-part medians are not.
        let rows = [
            vec![1.0, 9.0],
            vec![1.0, 2.0],
            vec![7.0, 2.0],
            vec![6.0, 3.0],
        ];
        assert_eq!(column_sum(&rows, median), 3.5 + 2.5);
        // The median of the run totals (10, 3, 9, 9) would read 9.
        assert_eq!(column_sum(&[], median), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
