//! Summary statistics over `f64` slices.
//!
//! These helpers back the experiment harness (mean ± std curves across seeds,
//! quantiles of latent encodings, predictor-accuracy correlations) and the
//! test suite.
//!
//! All functions treat an empty input as a programming error and return
//! `None` (for scalar summaries) rather than panicking, so callers can
//! surface the condition however they like.

/// Arithmetic mean, or `None` for an empty slice.
///
/// ```
/// assert_eq!(vaesa_linalg::stats::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(vaesa_linalg::stats::mean(&[]), None);
/// ```
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (dividing by `n`), or `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation, or `None` for an empty slice.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Linear-interpolated quantile `q in [0, 1]`, or `None` if the slice is
/// empty or `q` is out of range.
///
/// ```
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(vaesa_linalg::stats::quantile(&xs, 0.5), Some(2.5));
/// ```
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Pearson correlation coefficient between two equal-length slices, or
/// `None` if the slices are empty, have different lengths, or either has
/// zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Spearman rank correlation, or `None` under the same conditions as
/// [`pearson`].
///
/// Ties receive their average rank, matching the conventional definition.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

/// Average ranks (1-based) of the values, with ties sharing their mean rank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in ranks input"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Tied block [i, j] shares the average 1-based rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            out[idx[k]] = avg;
        }
        i = j + 1;
    }
    out
}

/// Mean and population standard deviation in one pass over several runs'
/// curves: input is a set of equal-length series, output is per-index
/// `(mean, std)` pairs. Returns `None` if the input is empty or ragged.
///
/// This is the exact aggregation the paper uses for its "mean line + std
/// band over 3 random seeds" figures.
pub fn mean_std_curves(series: &[Vec<f64>]) -> Option<Vec<(f64, f64)>> {
    let first = series.first()?;
    let len = first.len();
    if series.iter().any(|s| s.len() != len) {
        return None;
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let column: Vec<f64> = series.iter().map(|s| s[i]).collect();
        out.push((mean(&column)?, std_dev(&column)?));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert_eq!(variance(&xs), Some(4.0));
        assert_eq!(std_dev(&xs), Some(2.0));
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(std_dev(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(pearson(&[], &[]), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
        assert_eq!(quantile(&xs, 1.5), None);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let xs = [1.0, 2.0, 3.0];
        let up = [2.0, 4.0, 6.0];
        let down = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_none() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[2.0, 3.0, 4.0]), None);
    }

    #[test]
    fn spearman_is_rank_invariant_to_monotone_transforms() {
        let xs = [1.0f64, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| x.exp()).collect(); // monotone
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn mean_std_curves_aggregates_per_index() {
        let series = vec![vec![1.0, 10.0], vec![3.0, 10.0]];
        let agg = mean_std_curves(&series).unwrap();
        assert_eq!(agg[0], (2.0, 1.0));
        assert_eq!(agg[1], (10.0, 0.0));
        // Ragged input rejected.
        assert_eq!(mean_std_curves(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(mean_std_curves(&[]), None);
    }
}
