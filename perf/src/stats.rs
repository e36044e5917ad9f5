//! Percentiles of timing samples, reported with their sample count.
//!
//! A percentile is only as trustworthy as the samples above it: the p90
//! of 12 samples is the second-largest sample, one outlier away from
//! anything. [`percentile`] therefore refuses any percentile with fewer
//! than [`MIN_BEYOND`] samples beyond it, so a p50 needs at least 20
//! samples and a p90 at least 92.

use std::fmt;

/// Samples a reported percentile needs strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The interpolated value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile's rank.
    TooFewSamples {
        /// Requested percentile, in `[0, 1]`.
        p: f64,
        /// Samples available.
        n: usize,
        /// Samples beyond the rank.
        beyond: usize,
    },
    /// A sample was NaN, or `p` was outside `[0, 1]`.
    Invalid,
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PercentileError::TooFewSamples { p, n, beyond } => write!(
                f,
                "p{} of {n} samples has only {beyond} beyond it (needs {MIN_BEYOND})",
                p * 100.0
            ),
            PercentileError::Invalid => f.write_str("NaN sample or percentile outside [0, 1]"),
        }
    }
}

/// Samples strictly beyond the rank `(n - 1) * p` of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((n - 1) as f64 * p).floor() as usize;
    n - 1 - rank
}

/// The `p`-th percentile (`p` in `[0, 1]`) of `samples`, linearly
/// interpolated between the closest ranks (the `(n - 1) * p` definition,
/// so ties and repeated values need no special casing: equal neighbours
/// interpolate to themselves).
///
/// # Errors
///
/// [`PercentileError::TooFewSamples`] when fewer than [`MIN_BEYOND`]
/// samples lie beyond the rank (a single sample never qualifies), and
/// [`PercentileError::Invalid`] for a NaN sample or `p` outside `[0, 1]`.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, PercentileError> {
    if !(0.0..=1.0).contains(&p) || samples.iter().any(|x| x.is_nan()) {
        return Err(PercentileError::Invalid);
    }
    let n = samples.len();
    let beyond = samples_beyond(n, p);
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewSamples { p, n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (n - 1) as f64 * p;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let value = sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]);
    Ok(Percentile { value, n })
}

/// The median of `samples`; see [`percentile`].
///
/// # Errors
///
/// As [`percentile`].
pub fn median(samples: &[f64]) -> Result<Percentile, PercentileError> {
    percentile(samples, 0.5)
}

/// The plain median of a small set of repetitions (set-up passes), with
/// no sample-count floor. `None` for an empty slice.
pub fn median_of_reps(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The geometric mean of positive values, or `None` when `values` is
/// empty or holds a value that is not a positive finite number.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(
            median(&ramp(19)),
            Err(PercentileError::TooFewSamples {
                p: 0.5,
                n: 19,
                beyond: 9
            })
        );
        let m = median(&ramp(20)).unwrap();
        assert_eq!(m.n, 20);
        assert_eq!(m.value, 10.5);
        assert_eq!(median(&ramp(21)).unwrap().value, 11.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(percentile(&ramp(91), 0.9).is_err());
        let p = percentile(&ramp(92), 0.9).unwrap();
        assert_eq!(samples_beyond(92, 0.9), 10);
        assert_eq!(p.n, 92);
        // rank 81.9 between the 82nd and 83rd samples
        assert!((p.value - 82.9).abs() < 1e-9);
        assert_eq!(percentile(&ramp(101), 0.9).unwrap().value, 91.0);
    }

    #[test]
    fn single_and_empty_samples_are_refused() {
        assert_eq!(
            median(&[3.0]),
            Err(PercentileError::TooFewSamples {
                p: 0.5,
                n: 1,
                beyond: 0
            })
        );
        assert!(median(&[]).is_err());
        assert_eq!(median_of_reps(&[3.0]), Some(3.0));
        assert_eq!(median_of_reps(&[]), None);
    }

    #[test]
    fn ties_interpolate_to_the_tied_value() {
        let mut samples = vec![5.0; 30];
        samples.extend([1.0, 9.0]);
        assert_eq!(median(&samples).unwrap().value, 5.0);
        assert_eq!(percentile(&vec![2.5; 100], 0.9).unwrap().value, 2.5);
    }

    #[test]
    fn order_does_not_matter() {
        let mut samples = ramp(40);
        samples.reverse();
        samples.swap(3, 17);
        assert_eq!(median(&samples).unwrap().value, 20.5);
    }

    #[test]
    fn nan_and_out_of_range_are_invalid() {
        let mut samples = ramp(40);
        samples[7] = f64::NAN;
        assert_eq!(median(&samples), Err(PercentileError::Invalid));
        assert_eq!(percentile(&ramp(40), 1.5), Err(PercentileError::Invalid));
    }

    #[test]
    fn median_of_reps_averages_the_middle_pair() {
        assert_eq!(median_of_reps(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median_of_reps(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn geometric_mean_of_positive_values() {
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 10.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, f64::NAN]), None);
    }
}
