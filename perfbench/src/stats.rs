//! Order statistics shared by every workload.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least ten samples beyond it, both by nearest rank; run-to-run
//! spreads use the quartiles of Python's `statistics.quantiles(n=4)`, which
//! is how the spread of a set of runs is judged.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAILS: [(f64, &str); 3] = [(0.999, "p999"), (0.99, "p99"), (0.9, "p90")];

/// Nearest-rank `q`-quantile of `samples` (any order). `None` when empty.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    (n > 0).then(|| sorted[rank(n, q) - 1])
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// The highest tail percentile of `n` samples with at least
/// [`MIN_BEYOND`] samples beyond its nearest rank: `(q, label)`.
pub fn tail(n: usize) -> Option<(f64, &'static str)> {
    TAILS
        .into_iter()
        .find(|&(q, _)| n.saturating_sub(rank(n, q)) >= MIN_BEYOND)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method). `None` for fewer than one sample.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(samples);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&xs), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        // p90 of n leaves n - ceil(0.9 n) beyond it: 10 first at n = 100.
        assert_eq!(tail(99), None);
        assert_eq!(tail(100), Some((0.9, "p90")));
        // p99 leaves 10 beyond from n = 1000; below that p90 is the limit.
        assert_eq!(tail(999), Some((0.9, "p90")));
        assert_eq!(tail(1000), Some((0.99, "p99")));
        assert_eq!(tail(10_000), Some((0.999, "p999")));
        assert_eq!(tail(0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }
}
