//! Percentiles with the sample-support rule the benchmark reports by.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// A latency sample (ns) standing for a failed or mis-read op: it misses
/// every latency limit.
pub const FAILED: u64 = u64::MAX;

/// Nearest-rank index (0-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9 990, not 9 991.
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest of `candidates` (ascending or not) that has at least
/// [`MIN_BEYOND`] samples beyond it among `n`.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Percentile `p` of `sorted` (ascending), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it. The median is reported whenever
/// there is a sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || (p > 50.0 && beyond(sorted.len(), p) < MIN_BEYOND) {
        return None;
    }
    Some(sorted[rank(sorted.len(), p)])
}

/// `ns` as microseconds, with a failed sample reported as infinite.
pub fn us(ns: u64) -> f64 {
    if ns == FAILED {
        f64::INFINITY
    } else {
        ns as f64 / 1e3
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANDIDATES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

    #[test]
    fn picks_highest_percentile_with_ten_beyond() {
        assert_eq!(highest_supported(1000, &CANDIDATES), Some(99.0));
        assert_eq!(highest_supported(999, &CANDIDATES), Some(90.0));
        assert_eq!(highest_supported(10_000, &CANDIDATES), Some(99.9));
        assert_eq!(highest_supported(100, &CANDIDATES), Some(90.0));
        assert_eq!(highest_supported(99, &CANDIDATES), Some(50.0));
        assert_eq!(highest_supported(20, &CANDIDATES), Some(50.0));
        assert_eq!(highest_supported(19, &CANDIDATES), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v[..1], 50.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failed_samples_rank_last() {
        let mut v: Vec<u64> = (1..=1000).collect();
        v.extend([FAILED; 11]);
        v.sort_unstable();
        assert_eq!(percentile(&v, 99.0), Some(FAILED));
        assert!(us(FAILED).is_infinite());
    }

    #[test]
    fn union_coverage() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered(&mut iv, 0, 25), 3 + 7 + 5);
        assert_eq!(covered(&mut [], 0, 25), 0);
    }
}
