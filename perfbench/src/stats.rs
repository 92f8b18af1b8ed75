//! Order statistics over host-time samples.

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile `p` (50..=99) with at least `beyond`
/// samples strictly above its nearest-rank position, as
/// `(p, value, samples_beyond)`. Falls back to the median when there
/// are too few samples for any higher percentile.
pub fn tail(values: &[f64], beyond: usize) -> (u32, f64, usize) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1);
    let p = (50..=99)
        .rev()
        .find(|&p| n - rank(p) >= beyond)
        .unwrap_or(50);
    let r = rank(p);
    (p, v[r - 1], n - r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 10), (90, 90.0, 10));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v, 10), (75, 30.0, 10));
        assert_eq!(tail(&[1.0, 2.0, 3.0], 10).0, 50);
    }
}
