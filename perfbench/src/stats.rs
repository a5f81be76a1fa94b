//! Order statistics over measured samples.

/// The median of `samples` (mean of the middle pair for an even count);
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (0–100) by nearest rank; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A tail percentile the sample supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (0–100).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAILS`] that has at least ten samples beyond it,
/// with the sample count; `None` when even the median lacks ten samples
/// beyond it (fewer than 20 samples).
pub fn supported_tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    TAILS.iter().find(|&&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9).map(|&p| Tail {
        percentile: p,
        value: percentile(samples, p).expect("non-empty: at least ten samples beyond"),
        samples: n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers cannot rely on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond_it() {
        // 100 samples: exactly ten beyond p90, only five beyond p95.
        let t = supported_tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        // 99 samples: 9.9 beyond p90, so p75 is the highest supported.
        assert_eq!(supported_tail(&ramp(99)).unwrap().percentile, 75.0);
        // 1000 samples support p99; 10_000 support p99.9.
        assert_eq!(supported_tail(&ramp(1000)).unwrap().percentile, 99.0);
        assert_eq!(supported_tail(&ramp(10_000)).unwrap().percentile, 99.9);
        // 20 samples support only the median; 19 support nothing.
        assert_eq!(supported_tail(&ramp(20)).unwrap().percentile, 50.0);
        assert_eq!(supported_tail(&ramp(19)), None);
    }
}
