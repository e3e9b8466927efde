//! Summary statistics of host-measured samples.
//!
//! Virtual-tick percentiles use the serve report's own nearest-rank
//! definition ([`spnerf::render::eval::percentile`]) so the benchmark can
//! cross-check the report; host timings use the interpolated quantile here,
//! which keeps every measured digit instead of snapping to one sample.

/// Quantile `q` in `[0, 1]` of `values`, interpolating linearly between the
/// two closest ranks (the "inclusive" method: `q = 0` is the minimum and
/// `q = 1` the maximum).
///
/// # Panics
///
/// Panics if `values` is empty, holds a NaN, or `q` is outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "a quantile needs at least one value");
    assert!((0.0..=1.0).contains(&q), "quantile rank must be in [0, 1], got {q}");
    assert!(values.iter().all(|v| !v.is_nan()), "quantile input holds a NaN");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median (`quantile(values, 0.5)`).
///
/// # Panics
///
/// Same as [`quantile`].
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many of `n` samples lie strictly above rank `q` — the count a tail
/// percentile rests on. A p90 over `n` samples has `n - ceil(0.9 n)`
/// samples beyond it; the benchmark requires at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Arithmetic mean, summed in slice order (equal inputs give bitwise-equal
/// means, which the exact metrics rely on). `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // Odd counts land on a sample.
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quantile_matches_python_inclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4, method="inclusive")
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 3.25);
        assert_eq!(quantile(&v, 0.75), 7.75);
    }

    #[test]
    fn quantile_is_monotone_in_rank() {
        let v: Vec<f64> = (0..37).map(|i| ((i * 7919) % 101) as f64).collect();
        let mut last = f64::NEG_INFINITY;
        for k in 0..=20 {
            let x = quantile(&v, k as f64 / 20.0);
            assert!(x >= last);
            last = x;
        }
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn quantile_rejects_empty_input() {
        quantile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn quantile_rejects_out_of_range_rank() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn tail_counts() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(10, 0.5), 5);
        assert_eq!(samples_beyond(0, 0.9), 0);
        assert_eq!(samples_beyond(5, 1.0), 0);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
