//! Order statistics for the ledger: medians, the highest tail percentile
//! the sample count supports, and the quartile spread the repeatability
//! check uses.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn median_ns(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// The highest of p99.9, p99, p95, p90 that leaves at least ten samples
/// beyond it, with its value; `None` under 100 samples, where no tail
/// percentile is supported and only the median is reported.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    // (percentile, samples beyond it per thousand)
    let (pct, beyond) = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .map(|(pct, per_mille)| (pct, n * per_mille / 1000))
        .find(|&(_, beyond)| beyond >= 10)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((pct, v[n - 1 - beyond]))
}

/// Interquartile range over the median, with quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|x| x as f64).collect() };
        assert_eq!(tail(&ramp(99)), None);
        // 100 samples: p90 leaves exactly ten beyond it
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(199)).unwrap().0, 90.0);
        // 200 samples: p95 leaves ten
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(20000)), Some((99.9, 19980.0)));
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // quantiles([10, 20, 30, 45]) == [12.5, 25.0, 41.25]
        assert!((quartile_spread(&[10.0, 20.0, 30.0, 45.0]) - (41.25 - 12.5) / 25.0).abs() < 1e-12);
    }
}
