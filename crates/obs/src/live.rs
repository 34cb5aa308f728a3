//! Constant-memory bucketed instruments: the crate's one [`Histogram`] and
//! the [`SlidingWindow`] that shares its bucket layout.
//!
//! - [`Histogram`] — integer samples (nanosecond timings, batch row
//!   counts) in fixed log-spaced buckets with lock-free O(1) recording.
//!   Values 0–3 get one bucket each, then every power-of-two octave splits
//!   into four sub-buckets, so 0–7 are exact and every quantile is within
//!   25% of the exact nearest-rank value;
//! - [`SlidingWindow`] — a ring of N one-second slices over the same bucket
//!   layout, answering "rate and p99 over the last N seconds" while
//!   forgetting everything older.
//!
//! Neither retains raw samples, so memory is the same whether a batch run
//! records a few hundred Cholesky timings or a daemon records a week of
//! requests. Both are time-source-agnostic: callers pass integer values
//! (and, for the window, a second index derived from a monotonic clock),
//! so tests and deterministic replays can drive them without wall time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sub-bucket resolution: each power-of-two octave splits into `1 << 2`
/// log-spaced buckets, bounding the relative quantile error at 25%.
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// Largest resolved value: everything at or above `2^MAX_SHIFT` (~4.6
/// minutes in nanoseconds) lands in the shared overflow bucket.
const MAX_SHIFT: u32 = 38;
/// Total bucket count: one per value below `SUBS`, `SUBS` per octave from
/// `2^SUB_BITS` up to `2^MAX_SHIFT`, and the overflow bucket.
pub(crate) const BUCKET_COUNT: usize = SUBS + (MAX_SHIFT - SUB_BITS) as usize * SUBS + 1;

/// The bucket index for a sample. Values below `2 * SUBS` index their own
/// bucket.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    if v >= (1 << MAX_SHIFT) {
        return BUCKET_COUNT - 1;
    }
    let octave = 63 - v.leading_zeros(); // SUB_BITS..MAX_SHIFT
    let sub = ((v >> (octave - SUB_BITS)) as usize) & (SUBS - 1);
    (octave - SUB_BITS + 1) as usize * SUBS + sub
}

/// The inclusive upper bound of bucket `i`, or `None` for the overflow
/// bucket (rendered as `+Inf` in Prometheus exposition).
pub(crate) fn bucket_upper(i: usize) -> Option<u64> {
    if i < SUBS {
        return Some(i as u64);
    }
    if i >= BUCKET_COUNT - 1 {
        return None;
    }
    let k = i - SUBS;
    let octave = SUB_BITS + (k / SUBS) as u32;
    let sub = (k % SUBS) as u64;
    // Bucket k covers [2^e + sub·2^(e-2), 2^e + (sub+1)·2^(e-2)).
    Some((1u64 << (octave - SUB_BITS)) * (SUBS as u64 + sub + 1) - 1)
}

/// A fixed-footprint histogram of `u64` samples: log-spaced buckets with
/// lock-free O(1) recording. Memory is constant (`BUCKET_COUNT` atomics)
/// no matter how many samples arrive. Quantiles are exact to the
/// recording bucket's width; exact sum, min, and max are kept alongside.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Point-in-time copy of a [`Histogram`], taken from one pass over its
/// buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all recorded samples.
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Exact smallest sample.
    pub min: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Median, at bucket resolution.
    pub p50: u64,
    /// 90th percentile, at bucket resolution.
    pub p90: u64,
    /// 99th percentile, at bucket resolution.
    pub p99: u64,
    /// Non-empty finite buckets as `(upper_bound, cumulative_count)`,
    /// upper bounds ascending. Samples in the overflow bucket count only
    /// in `count`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    /// The `q`-quantile by nearest rank at bucket resolution: the
    /// containing bucket's upper bound, clamped to the exact min/max (so
    /// q=0 and q=1 are the exact extrema).
    fn quantile(&self, q: f64) -> u64 {
        if q == 0.0 {
            return self.min;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        self.buckets
            .iter()
            .find(|&&(_, cum)| cum >= rank)
            .map_or(self.max, |&(upper, _)| upper.clamp(self.min, self.max))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; four atomic operations regardless
    /// of history size.
    pub fn record(&self, v: u64) {
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        // Release, paired with the Acquire bucket loads in `summary`: a
        // reader that counts this sample also sees it in sum, min and max.
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Release);
    }

    /// Records a [`std::time::Duration`] as nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of every recorded sample.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Alias of [`Histogram::sum`] for nanosecond histograms, kept so the
    /// `perfbench` crate builds unchanged until its next change.
    pub fn sum_ns(&self) -> u64 {
        self.sum()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) at bucket resolution, or `None`
    /// when empty. The returned value is the containing bucket's upper
    /// bound, clamped to the exact observed min/max.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        self.summary().map(|s| s.quantile(q))
    }

    /// Count, sum, extrema, standard quantiles and cumulative buckets, or
    /// `None` when empty. Count, buckets and quantiles come from one pass
    /// of bucket loads, so the buckets always end at `count` even while
    /// other threads record.
    pub fn summary(&self) -> Option<HistogramSummary> {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Acquire);
            if c > 0 {
                count += c;
                if let Some(upper) = bucket_upper(i) {
                    buckets.push((upper, count));
                }
            }
        }
        if count == 0 {
            return None;
        }
        let sum = self.sum();
        let mut s = HistogramSummary {
            count,
            sum,
            mean: sum as f64 / count as f64,
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: 0,
            p90: 0,
            p99: 0,
            buckets,
        };
        (s.p50, s.p90, s.p99) = (s.quantile(0.50), s.quantile(0.90), s.quantile(0.99));
        Some(s)
    }
}

/// One second's worth of samples inside a [`SlidingWindow`].
struct Slice {
    sec: u64,
    count: u64,
    buckets: Vec<u32>,
}

impl Slice {
    fn new() -> Self {
        Slice {
            sec: u64::MAX,
            count: 0,
            buckets: vec![0; BUCKET_COUNT],
        }
    }

    fn reset(&mut self, sec: u64) {
        self.sec = sec;
        self.count = 0;
        self.buckets.iter_mut().for_each(|b| *b = 0);
    }
}

/// A rate/quantile aggregator over the trailing N seconds: a ring of
/// one-second slices sharing the [`Histogram`] bucket layout.
/// Memory is `N × BUCKET_COUNT` words, constant for the process lifetime;
/// slices older than the window are recycled in place.
///
/// The caller supplies the current second index (derived from a monotonic
/// clock, e.g. `Registry` epoch elapsed seconds), keeping the type free of
/// wall-clock reads and deterministic under test.
#[derive(Debug)]
pub struct SlidingWindow {
    state: Mutex<Vec<Slice>>,
    window: usize,
}

impl std::fmt::Debug for Slice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slice")
            .field("sec", &self.sec)
            .field("count", &self.count)
            .finish()
    }
}

impl SlidingWindow {
    /// A window covering the trailing `window_secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is zero.
    pub fn new(window_secs: usize) -> Self {
        assert!(window_secs >= 1, "window must cover at least one second");
        SlidingWindow {
            state: Mutex::new((0..window_secs).map(|_| Slice::new()).collect()),
            window: window_secs,
        }
    }

    /// The window length in seconds.
    pub fn window_secs(&self) -> usize {
        self.window
    }

    /// Records a nanosecond sample observed during second `now_sec`.
    pub fn record_at(&self, now_sec: u64, v_ns: u64) {
        let mut slices = self.state.lock().expect("window lock");
        let slot = (now_sec as usize) % self.window;
        if slices[slot].sec != now_sec {
            slices[slot].reset(now_sec);
        }
        let slice = &mut slices[slot];
        slice.count += 1;
        slice.buckets[bucket_index(v_ns)] += 1;
    }

    /// Samples recorded within the window ending at `now_sec` (inclusive).
    pub fn count(&self, now_sec: u64) -> u64 {
        self.fold(now_sec, |acc, s| acc + s.count)
    }

    /// Events per second over the window ending at `now_sec`.
    pub fn rate(&self, now_sec: u64) -> f64 {
        self.count(now_sec) as f64 / self.window as f64
    }

    /// The `q`-quantile over the window at bucket resolution, or `None`
    /// when the window is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_ns(&self, now_sec: u64, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let slices = self.state.lock().expect("window lock");
        let mut merged = [0u64; BUCKET_COUNT];
        let mut total = 0u64;
        for s in slices
            .iter()
            .filter(|s| Self::live(s.sec, now_sec, self.window))
        {
            total += s.count;
            for (m, b) in merged.iter_mut().zip(&s.buckets) {
                *m += u64::from(*b);
            }
        }
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in merged.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_upper(i).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Whether a slice stamped `sec` is inside the window ending `now_sec`.
    fn live(sec: u64, now_sec: u64, window: usize) -> bool {
        sec <= now_sec && now_sec - sec < window as u64
    }

    fn fold(&self, now_sec: u64, f: impl Fn(u64, &Slice) -> u64) -> u64 {
        let slices = self.state.lock().expect("window lock");
        slices
            .iter()
            .filter(|s| Self::live(s.sec, now_sec, self.window))
            .fold(0u64, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_covers_the_range() {
        let mut prev = 0u64;
        for i in 0..BUCKET_COUNT - 1 {
            let upper = bucket_upper(i).unwrap();
            assert!(upper > prev || i == 0, "bucket {i} not ascending");
            // Every bucket past the exact ones spans at most 25% of its
            // lower bound, which bounds the relative quantile error.
            if i > 0 {
                let lower = prev + 1;
                assert!((upper - lower) * 4 <= lower, "bucket {i} too wide");
            }
            prev = upper;
        }
        assert_eq!(bucket_upper(BUCKET_COUNT - 1), None);
        // 0–7 each have a bucket of their own.
        for v in 0..8 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), Some(v));
        }
        // Every value maps into a bucket whose bounds contain it.
        for v in [0, 1, 3, 4, 9, 64, 255, 256, 257, 1_000, 1_000_000, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKET_COUNT);
            if let Some(upper) = bucket_upper(i) {
                assert!(v <= upper, "v={v} above bucket {i} upper {upper}");
            }
            if i > 0 {
                let below = bucket_upper(i - 1).unwrap();
                assert!(v > below, "v={v} under bucket {i} lower bound");
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_accurate() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), None);
        // 1..=1000 µs uniformly.
        for us in 1..=1000u64 {
            h.record(us * 1_000);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), (1..=1000u64).sum::<u64>() * 1_000);
        for (q, exact) in [(0.50, 500_000.0), (0.90, 900_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q).unwrap() as f64;
            let err = (got - exact).abs() / exact;
            assert!(err <= 0.25, "q={q}: got {got}, exact {exact}, err {err}");
            assert!(got >= exact, "bucket upper bounds never under-report");
        }
        let s = h.summary().unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!((s.min, s.max), (1_000, 1_000_000));
        assert!((s.mean - 500_500.0).abs() < 1e-9);
        assert_eq!(s.buckets.last().unwrap().1, 1000, "cumulative total");
        let mut prev = 0;
        for &(_, cum) in &s.buckets {
            assert!(cum > prev, "cumulative counts strictly ascend");
            prev = cum;
        }
    }

    /// A small deterministic generator (SplitMix64), so the reference test
    /// needs no dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn quantiles_land_in_the_bucket_of_the_exact_nearest_rank_value() {
        let mut state = 7u64;
        let mut samples: Vec<u64> = (0..2000)
            .map(|_| {
                // Random magnitudes, so every octave and the overflow
                // bucket see samples.
                let v = splitmix(&mut state);
                v >> (splitmix(&mut state) % 64)
            })
            .collect();
        samples.extend(1..=64);
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let n = samples.len();
        let exact = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        let s = h.summary().unwrap();
        assert_eq!(s.count, n as u64);
        assert_eq!(s.sum, samples.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        assert_eq!((s.min, s.max), (samples[0], samples[n - 1]));
        for q in (0..=100).map(|p| p as f64 / 100.0).chain([0.999]) {
            let (got, want) = (h.quantile(q).unwrap(), exact(q));
            assert_eq!(
                bucket_index(got),
                bucket_index(want),
                "q={q}: got {got}, exact {want}"
            );
        }
        assert_eq!(
            (s.p50, s.p90, s.p99),
            (
                h.quantile(0.5).unwrap(),
                h.quantile(0.9).unwrap(),
                h.quantile(0.99).unwrap()
            )
        );
    }

    #[test]
    fn histogram_percentile_edge_cases() {
        // Empty: every quantile is None.
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);

        // Single sample: every quantile is that sample.
        h.record(750_000);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(750_000), "q={q}");
        }

        // Duplicates: nearest rank lands on the duplicated value, and
        // q=0/q=1 are the extrema.
        let d = Histogram::new();
        for v in [2, 2, 2, 2, 9] {
            d.record(v);
        }
        assert_eq!(d.quantile(0.0), Some(2));
        assert_eq!(d.quantile(0.5), Some(2));
        assert_eq!(d.quantile(0.8), Some(2));
        assert_eq!(d.quantile(0.81), Some(9));
        assert_eq!(d.quantile(1.0), Some(9));
        let s = d.summary().unwrap();
        assert_eq!((s.min, s.max, s.p50), (2, 9, 2));
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Some(0));
        // The overflow bucket reports the exact observed max.
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        let s = h.summary().unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets, vec![(0, 1)], "overflow counts only in count");
    }

    #[test]
    fn durations_record_as_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(std::time::Duration::from_micros(750));
        assert_eq!(h.sum(), 750_000);
        assert_eq!(h.sum_ns(), 750_000);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_rejects_out_of_range_quantile() {
        let _ = Histogram::new().quantile(2.0);
    }

    #[test]
    fn sliding_window_forgets_old_slices() {
        let w = SlidingWindow::new(3);
        w.record_at(10, 1_000);
        w.record_at(10, 2_000);
        w.record_at(11, 3_000);
        assert_eq!(w.count(11), 3);
        assert!((w.rate(11) - 1.0).abs() < 1e-12);
        // Advance past second 10: its slice ages out of the window.
        assert_eq!(w.count(13), 1);
        assert_eq!(w.count(20), 0);
        assert_eq!(w.quantile_ns(20, 0.5), None);
        // The slot for second 13 recycles second 10's ring position.
        w.record_at(13, 9_000);
        assert_eq!(w.count(13), 2);
    }

    #[test]
    fn sliding_window_quantiles_merge_slices() {
        let w = SlidingWindow::new(5);
        for sec in 0..5u64 {
            for i in 0..20u64 {
                w.record_at(sec, (sec * 20 + i + 1) * 10_000);
            }
        }
        assert_eq!(w.count(4), 100);
        let p50 = w.quantile_ns(4, 0.5).unwrap() as f64;
        let exact = 500_000.0;
        assert!((p50 - exact).abs() / exact <= 0.25, "p50 {p50}");
        // At now=6 the window [2, 6] retains only seconds 2..=4.
        assert_eq!(w.count(6), 60);
    }

    #[test]
    #[should_panic(expected = "at least one second")]
    fn sliding_window_rejects_zero_width() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn histogram_is_safe_under_concurrent_recording() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record((t * 1000 + i) * 100);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.summary().unwrap().buckets.last().unwrap().1, 4000);
    }
}
