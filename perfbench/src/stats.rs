//! Order statistics for the benchmark's samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; otherwise the run is too short to say anything about that
//! tail and [`percentile`] refuses. The median of a handful of cycle times is
//! a centre, not a tail, and [`median`] takes any non-empty sample.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    // Nearest rank: the smallest value with at least p·n samples at or
    // below it (1-based rank ⌈p·n⌉).
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// [`percentile`], or an error naming `what` when the sample is too small.
pub fn percentile_of(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(samples, p).ok_or_else(|| format!("too few samples ({}) for {what}", samples.len()))
}

/// The median of a non-empty sample (mean of the middle pair for even
/// sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Throughput of each full block of `block` consecutive items: the block's
/// operations (`ops_per_item` per item) over the sum of its items'
/// durations. The median of these rates shrugs off a slow spell that covers
/// a minority of the run, which a whole-run average does not.
pub fn block_rates(durations: &[f64], block: usize, ops_per_item: f64) -> Vec<f64> {
    durations
        .chunks_exact(block)
        .map(|b| block as f64 * ops_per_item / b.iter().sum::<f64>())
        .collect()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(200);
        assert_eq!(percentile(&s, 0.95), Some(190.0));
        assert_eq!(percentile(&s, 0.5), Some(100.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        // p95 of 199 samples is rank 190: only 9 lie beyond it.
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        // p50 needs 20 samples: rank 10 with 10 beyond.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn block_rates_drop_the_partial_block() {
        let d = [0.5, 0.5, 1.0, 1.0, 9.0];
        assert_eq!(block_rates(&d, 2, 3.0), vec![6.0, 3.0]);
        assert!(block_rates(&d[..1], 2, 1.0).is_empty());
    }

    #[test]
    fn median_takes_small_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
