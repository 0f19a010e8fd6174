//! Order statistics over kept samples.
//!
//! Every percentile the benchmark reports is one of the samples it
//! observed (nearest-rank definition), never a histogram bucket edge.

/// Nearest-rank percentile: the smallest sample such that at least a
/// share `q` of all samples lie at or below it. `None` when empty.
pub fn percentile<T: Copy + Ord>(samples: &[T], q: f64) -> Option<T> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = nearest_rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// Samples ranked strictly after the `q` percentile (ties included):
/// the tail a percentile rests on.
pub fn beyond(len: usize, q: f64) -> usize {
    nearest_rank(len, q).map_or(0, |rank| len - rank)
}

fn nearest_rank(len: usize, q: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let rank = (q * len as f64).ceil() as usize;
    Some(rank.clamp(1, len))
}

/// Median of host measurements (mean of the two middle values for an
/// even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_observed_sample() {
        let samples: Vec<u64> = (1..=200).rev().map(|x| x * 3).collect();
        let p95 = percentile(&samples, 0.95).unwrap();
        assert_eq!(p95, 190 * 3);
        assert!(samples.contains(&p95));
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(percentile(&samples, 0.5), Some(100 * 3));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        assert_eq!(percentile(&[7u64], 0.99), Some(7));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
