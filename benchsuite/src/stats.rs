//! Small-sample statistics: median, nearest-rank percentile and the
//! (max − min) / median spread that decides `unresolved`.

/// The values in ascending order (NaNs, which no measurement here
/// produces, sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in 0..=100. 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Smallest value; 0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Largest value; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0)
}

/// (max − min) / median: the run-to-run spread as a share of the median.
/// 0 when the median is 0 (a metric that is 0 on every sample).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (max(values) - min(values)) / m.abs()
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
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 55.0);
        // 110 samples leave 11 beyond p90: the highest percentile with ten.
        assert_eq!(percentile(&v, 90.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 110.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
