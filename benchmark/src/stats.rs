//! Order statistics for the benchmark's timing samples.

/// Sorted copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The lower quartile of `samples` (the order statistic a quarter of the
/// way up); 0 for an empty slice. This is the benchmark's estimate of what
/// one operation costs: other tenants of a shared host (cache and memory
/// contention) only ever add time, in bursts and for whole seconds, so the
/// faster samples are the ones that show the program's own cost. Across
/// ten runs the lower quartile spreads about half as widely as the median.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n => v[(n - 1) / 4],
    }
}

/// The three quartile cut points of `samples`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the driver uses for the A/A spread. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // position i·(n+1)/4, clamped into the sample range
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Interquartile range as a share of the median — the spread the driver
/// compares with a metric's bound. `None` below two samples or for a zero
/// median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)`. With `n` samples that is the `(n − 10)`-th order
/// statistic, i.e. percentile `100·(n − 10)/n`. `None` when fewer than
/// eleven samples exist — a tail cannot be stated then.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    (n > 10).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// The 95th percentile when at least ten samples lie beyond it (200 or
/// more samples), else the highest percentile that has: `(percentile,
/// value)`.
pub fn p95_or_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n >= 200 {
        Some((95.0, sorted(samples)[n * 95 / 100 - 1]))
    } else {
        tail(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lower_quartile_is_an_order_statistic() {
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[4.0, 3.0, 2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0, 4.0, 3.0, 2.0, 1.0]), 2.0);
        let v: Vec<f64> = (0..41).map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // 11 samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let (p, v) = tail(&eleven).unwrap();
        assert_eq!(v, 0.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        // 200 samples: p95, the 190th order statistic.
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&many), Some((95.0, 189.0)));
    }

    #[test]
    fn p95_is_fixed_once_enough_samples_exist() {
        let v: Vec<f64> = (0..600).map(f64::from).collect();
        assert_eq!(p95_or_tail(&v), Some((95.0, 569.0)));
        assert_eq!(tail(&v), Some((100.0 * 590.0 / 600.0, 589.0)));
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(p95_or_tail(&few), Some((80.0, 39.0)));
    }
}
