use serde::{Deserialize, Serialize};

/// Records a finished search trace on the global observability registry:
///
/// - counter `dse.evals` — incremented by the trace length (every DSE flow
///   funnels through one driver call, so this totals the true-evaluation
///   budget actually spent);
/// - series `dse.<label>.best_edp` — the best-so-far trajectory, replaced
///   per run so a manifest keeps the most recent run's curve (invalid
///   samples before the first valid one render as `null`);
/// - gauge `dse.<label>.best` — the best value across *all* runs with this
///   label (running minimum).
pub fn record_trace(trace: &Trace) {
    vaesa_obs::counter("dse.evals").add(trace.len() as u64);
    let curve: Vec<f64> = trace
        .samples()
        .iter()
        .map(|s| s.best_so_far.unwrap_or(f64::NAN))
        .collect();
    vaesa_obs::series(&format!("dse.{}.best_edp", trace.label())).set(curve);
    if let Some(best) = trace.best_value() {
        vaesa_obs::gauge(&format!("dse.{}.best", trace.label())).set_min(best);
    }
}

/// One evaluated sample in a search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Zero-based sample index.
    pub index: usize,
    /// The evaluated point.
    pub x: Vec<f64>,
    /// The objective value, or `None` for an invalid point.
    pub value: Option<f64>,
    /// Best (minimum) valid value observed up to and including this sample,
    /// or `None` if no valid sample has been seen yet.
    pub best_so_far: Option<f64>,
}

/// The full log of a search run: every sample plus derived metrics.
///
/// Traces are the unit of comparison in the paper's evaluation: Figure 11
/// plots `best_so_far` curves, Table V reports final best EDP (search
/// performance) and samples-to-within-3% (sample efficiency).
///
/// # Examples
///
/// ```
/// use vaesa_dse::Trace;
///
/// let mut t = Trace::new("demo");
/// t.record(vec![0.0], Some(5.0));
/// t.record(vec![1.0], None);        // invalid sample, budget still spent
/// t.record(vec![2.0], Some(2.0));
/// assert_eq!(t.best_value(), Some(2.0));
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.samples_to_within(0.03, 2.0), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    label: String,
    samples: Vec<Sample>,
}

impl Trace {
    /// Creates an empty trace labeled with the search method's name.
    pub fn new(label: impl Into<String>) -> Self {
        Trace {
            label: label.into(),
            samples: Vec::new(),
        }
    }

    /// The method label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Replaces the method label (e.g. a driver prefixing the space mode).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Records one sample.
    pub fn record(&mut self, x: Vec<f64>, value: Option<f64>) {
        let prev_best = self.best_value();
        let best_so_far = match (prev_best, value) {
            (Some(b), Some(v)) => Some(b.min(v)),
            (Some(b), None) => Some(b),
            (None, v) => v,
        };
        self.samples.push(Sample {
            index: self.samples.len(),
            x,
            value,
            best_so_far,
        });
    }

    /// Number of samples (valid and invalid).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples, in evaluation order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Best (minimum) valid objective value, or `None` if every sample was
    /// invalid.
    pub fn best_value(&self) -> Option<f64> {
        self.samples.last().and_then(|s| s.best_so_far)
    }

    /// The point achieving [`Trace::best_value`].
    pub fn best_point(&self) -> Option<&[f64]> {
        let best = self.best_value()?;
        self.samples
            .iter()
            .find(|s| s.value == Some(best))
            .map(|s| s.x.as_slice())
    }

    /// The paper's sample-efficiency metric: the number of samples needed
    /// to reach within `frac` (e.g. `0.03`) of `reference` (the best known
    /// value for the workload). Returns `None` if never reached.
    pub fn samples_to_within(&self, frac: f64, reference: f64) -> Option<usize> {
        let threshold = reference * (1.0 + frac);
        self.samples
            .iter()
            .find(|s| s.best_so_far.is_some_and(|b| b <= threshold))
            .map(|s| s.index + 1)
    }

    /// The best-so-far curve, padded with the final value to `len` entries
    /// (so traces of different lengths can be averaged). Entries before the
    /// first valid sample hold `pad_value`.
    pub fn best_curve(&self, len: usize, pad_value: f64) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .samples
            .iter()
            .take(len)
            .map(|s| s.best_so_far.unwrap_or(pad_value))
            .collect();
        let tail = out.last().copied().unwrap_or(pad_value);
        out.resize(len, tail);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Trace {
        let mut t = Trace::new("m");
        t.record(vec![0.0], Some(10.0));
        t.record(vec![1.0], Some(12.0)); // worse, best stays 10
        t.record(vec![2.0], None); // invalid
        t.record(vec![3.0], Some(4.0));
        t
    }

    #[test]
    fn best_so_far_is_monotone_nonincreasing() {
        let t = demo();
        let bests: Vec<f64> = t.samples().iter().filter_map(|s| s.best_so_far).collect();
        assert_eq!(bests, vec![10.0, 10.0, 10.0, 4.0]);
        assert_eq!(t.best_value(), Some(4.0));
        assert_eq!(t.best_point(), Some(&[3.0][..]));
    }

    #[test]
    fn invalid_samples_count_toward_budget() {
        let t = demo();
        assert_eq!(t.len(), 4);
        assert!(t.samples()[2].value.is_none());
        assert_eq!(t.samples()[2].best_so_far, Some(10.0));
    }

    #[test]
    fn all_invalid_trace_has_no_best() {
        let mut t = Trace::new("x");
        t.record(vec![0.0], None);
        assert_eq!(t.best_value(), None);
        assert_eq!(t.best_point(), None);
        assert_eq!(t.samples_to_within(0.03, 1.0), None);
    }

    #[test]
    fn samples_to_within_uses_relative_threshold() {
        let t = demo();
        // Within 3% of 4.0 => threshold 4.12, first reached at sample 4.
        assert_eq!(t.samples_to_within(0.03, 4.0), Some(4));
        // Within 200% of 4.0 => threshold 12: reached at first sample.
        assert_eq!(t.samples_to_within(2.0, 4.0), Some(1));
        // Unreachable reference.
        assert_eq!(t.samples_to_within(0.0, 1.0), None);
    }

    #[test]
    fn best_curve_pads_and_truncates() {
        let t = demo();
        assert_eq!(
            t.best_curve(6, f64::NAN),
            vec![10.0, 10.0, 10.0, 4.0, 4.0, 4.0]
        );
        assert_eq!(t.best_curve(2, 0.0), vec![10.0, 10.0]);
        let empty = Trace::new("e");
        assert_eq!(empty.best_curve(2, 7.0), vec![7.0, 7.0]);
    }

    #[test]
    fn label_is_kept() {
        assert_eq!(demo().label(), "m");
    }
}
