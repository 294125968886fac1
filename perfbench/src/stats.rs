//! Order statistics used by the benchmark: medians, the tail-percentile
//! rule, and the quartiles of the run-to-run spread check.

/// Samples a reported percentile must leave beyond it. A tail figure
/// resting on fewer samples than this is noise, so the benchmark keeps
/// measuring until every percentile it reports clears the rule.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which percentile `p` leaves at least
/// [`MIN_BEYOND`] samples beyond its nearest rank.
#[cfg(test)]
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(p, n) >= MIN_BEYOND)
        .expect("some sample count satisfies the rule")
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// sorted samples: `ceil(p / 100 * n)`, at least 1.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(p, sorted.len());
    (sorted.len() >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method) — the rule the run-to-run spread is judged by.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread figure
/// each end-to-end metric's bound is compared against.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values from `statistics.quantiles(data, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (
                &[3.5, 1.25, 9.0, 2.0, 7.0, 7.0, 4.5, 0.5, 11.0, 6.0],
                [1.8125, 5.25, 7.5],
            ),
            (&[5.0, 1.0], [0.0, 3.0, 6.0]),
            (&[2.0, 4.0, 6.0], [2.0, 4.0, 6.0]),
        ];
        for (data, want) in cases {
            let got = quartiles(data);
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{data:?}: {got:?} != {want:?}");
            }
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        // p95 of 100 samples leaves only 5 beyond it.
        assert_eq!(percentile(&hundred, 95.0), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 90.0), None);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(95.0), 200);
        assert_eq!(min_samples_for(50.0), 20);
        let two_hundred: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&two_hundred, 95.0), Some(190.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let flat = [5.0; 10];
        assert_eq!(relative_spread(&flat), 0.0);
        let ramp: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ramp) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
