//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a measured quantity.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them — the driver judges run-to-run spread with that function, so
/// `repeat` and `compare` must agree with it. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread the driver
/// compares against a metric's bound.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A reported quantity: the value (a median when `samples > 1`) with the
/// extremes and the sample count behind it. With at most a few dozen
/// samples per run no percentile has ten samples beyond it, so median,
/// min and max are what is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Measured {
    /// A quantity observed once (a count, a ratio of medians, a peak).
    pub fn single(value: f64) -> Self {
        Measured {
            value,
            min: value,
            max: value,
            samples: 1,
        }
    }

    /// The median of timing samples.
    pub fn of(samples: &[f64]) -> Self {
        Measured {
            value: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([2, 9, 4, 7, 5], n=4) == [3.0, 5.0, 8.0]
        assert_eq!(quartiles(&[2.0, 9.0, 4.0, 7.0, 5.0]), Some([3.0, 5.0, 8.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&ten), Some(1.0));
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn measured_keeps_extremes_and_count() {
        let m = Measured::of(&[0.5, 0.3, 0.9]);
        assert_eq!((m.value, m.min, m.max, m.samples), (0.5, 0.3, 0.9, 3));
        assert_eq!(Measured::single(2.0).samples, 1);
    }
}
