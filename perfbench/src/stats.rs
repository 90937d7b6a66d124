//! Sample summaries: medians and the tail-percentile rule.
//!
//! A tail percentile is only reported when at least [`TAIL_MIN_BEYOND`]
//! samples lie beyond it; with fewer, a single slow sample would *be* the
//! percentile. [`tail`] picks the highest percentile of [`TAIL_CANDIDATES`]
//! that qualifies.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// rank `ceil(p/100 · n)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// small slack keeps e.g. p99.9 of 10,000 at rank 9,990 despite `99.9`
/// not being exact in binary).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// `true` when percentile `p` of `n` samples has enough samples beyond it.
pub fn qualifies(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND
}

/// The highest candidate tail percentile that qualifies for `n` samples.
pub fn tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| qualifies(n, p))
}

/// Median (nearest rank) of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(percentile(&sorted(samples), 50.0))
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(qualifies(1000, 99.0));
        assert!(!qualifies(999, 99.0));
        assert_eq!(tail(1000), Some(99.0));
        assert_eq!(tail(999), Some(95.0));
        assert_eq!(tail(10_000), Some(99.9));
        assert_eq!(tail(200), Some(95.0));
        assert_eq!(tail(199), Some(90.0));
        assert_eq!(tail(100), Some(90.0));
        // Fewer than 100 samples: no tail percentile at all.
        assert_eq!(tail(99), None);
        assert_eq!(tail(0), None);
    }

    #[test]
    fn tail_rule_is_the_highest_qualifying_percentile() {
        for n in 0..5000 {
            match tail(n) {
                None => assert!(TAIL_CANDIDATES.iter().all(|&p| !qualifies(n, p))),
                Some(p) => {
                    assert!(qualifies(n, p));
                    assert!(TAIL_CANDIDATES
                        .iter()
                        .filter(|&&q| q > p)
                        .all(|&q| !qualifies(n, q)));
                }
            }
        }
    }
}
