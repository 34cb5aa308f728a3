#![deny(missing_docs)]
//! Zero-dependency structured observability for the VAESA stack.
//!
//! Every crate in the workspace reports state through ad-hoc prints or
//! bespoke counters; this crate replaces that with one small, machine-first
//! vocabulary:
//!
//! - [`Counter`] — monotonically increasing `u64` (relaxed atomic);
//! - [`Gauge`] — last-written `f64` (e.g. a cache hit rate snapshot);
//! - [`Histogram`] — constant-memory log-bucketed `u64` samples with
//!   exact count/sum/min/max and bucket-resolution quantiles (Cholesky and
//!   GP timings, request latencies, coalesced batch sizes);
//! - [`SlidingWindow`] — the same buckets over the trailing N seconds, for
//!   a daemon's windowed rate and p99;
//! - [`Series`] — an ordered `f64` trajectory (per-epoch losses,
//!   best-EDP-so-far curves);
//! - spans — hierarchical wall/CPU timing scopes ([`Registry::span`],
//!   [`Span::child`]) aggregated per path;
//! - request-scoped tracing — [`RequestCtx`] span trees keyed by
//!   deterministic request ids, retained in a bounded [`RequestTracker`];
//! - meta / events — run-level key-value context and progress messages;
//! - scopes — thread-local buffers ([`Scope`]) that keep the
//!   order-sensitive writes (series, events) of concurrently running work
//!   deterministic by committing them in a fixed order;
//! - traces — optional per-event span timelines (off by default; see
//!   [`Registry::enable_tracing`] and the Chrome `trace_event` exporter
//!   [`chrome_trace_string`]/[`write_chrome_trace`]).
//!
//! All of it lives in a [`Registry`] (usually the process-wide
//! [`global()`] one) and serializes to a JSON-lines *run manifest*
//! ([`write_manifest`]): one self-describing record per line, in a fixed
//! record-type order with names sorted lexicographically, so two manifests
//! of the same experiment diff cleanly — only values that genuinely
//! changed produce diff hunks. The CI gates (`xtask gate --rules`,
//! `xtask determinism`) and the `vaesa-cli obs-report` subcommand are all
//! readers of this format; see `DESIGN.md` §2.10. Live services export the
//! same registry in the Prometheus text format instead
//! ([`prometheus_string`]); see `DESIGN.md` §2.12.
//!
//! # Sample retention
//!
//! No instrument keeps raw samples. [`Histogram`] and [`SlidingWindow`]
//! count into fixed log-spaced buckets (one per value for 0–3, then four
//! per power of two), so memory is constant however long a batch run or
//! daemon records, 0–7 are exact, and every quantile is within 25% of the
//! exact nearest-rank value. Count, sum, min and max are exact.
//!
//! # Examples
//!
//! ```
//! let reg = vaesa_obs::Registry::new();
//! {
//!     let fit = reg.span("gp/fit");
//!     let _chol = fit.child("cholesky");
//!     reg.counter("gp.fits").incr();
//! } // spans record on drop
//! reg.histogram("gp.fit_ns").record(1_250_000);
//! reg.series("dse.best_edp").push(3.2e9);
//! let lines = vaesa_obs::manifest_lines(&reg);
//! assert!(lines.iter().any(|l| l.contains("\"record\":\"span\"")));
//! ```

mod json;
mod live;
mod manifest;
mod prom;
mod request;
mod scope;
mod trace;

pub use live::{Histogram, HistogramSummary, SlidingWindow};
pub use manifest::{manifest_lines, manifest_string, write_manifest};
pub use prom::{
    parse_prometheus, prometheus_string, sanitize_metric_name, PromSample, PromSnapshot,
};
pub use request::{
    RequestCtx, RequestIdGen, RequestRecord, RequestSpan, RequestSpanNode, RequestTracker,
};
pub use scope::{Scope, ScopeGuard};
pub use trace::{chrome_trace_string, write_chrome_trace, TraceEvent, DEFAULT_TRACE_CAPACITY};

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A monotonically increasing event count.
///
/// Increments are relaxed atomics: exact under serial flows, and a
/// consistent-enough total under concurrent ones (same contract as the
/// scheduler cache counters).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero, usable in `static` position.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` measurement (stored as atomic bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A gauge starting at `0.0`, usable in `static` position.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Overwrites the gauge value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Lowers the gauge to `v` if `v` is smaller than the current value
    /// (running-minimum semantics, e.g. for a best-EDP-so-far gauge).
    /// A NaN argument is ignored.
    pub fn set_min(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let cur = f64::from_bits(current);
            if !cur.is_nan() && cur <= v && cur != 0.0 {
                return;
            }
            // A zero gauge is "unset": the first observation always lands.
            let candidate = if cur == 0.0 || cur.is_nan() || v < cur {
                v
            } else {
                return;
            };
            match self.bits.compare_exchange_weak(
                current,
                candidate.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current gauge value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// An append-only ordered `f64` trajectory (loss curves, best-so-far
/// curves). Unlike a histogram, order is meaningful and preserved.
#[derive(Debug, Default)]
pub struct Series {
    state: Mutex<SeriesState>,
}

#[derive(Debug, Default)]
struct SeriesState {
    values: Vec<f64>,
    /// Whether [`Series::set`] ran: a [`Scope`] buffer with this flag
    /// replaces its target on commit instead of appending to it.
    replaced: bool,
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Appends one value.
    pub fn push(&self, v: f64) {
        self.state.lock().expect("series lock").values.push(v);
    }

    /// Replaces the whole series (used when a run re-records a trajectory:
    /// the manifest keeps the most recent run's curve).
    pub fn set(&self, values: Vec<f64>) {
        let mut state = self.state.lock().expect("series lock");
        state.values = values;
        state.replaced = true;
    }

    /// Appends several values.
    fn extend(&self, values: Vec<f64>) {
        self.state
            .lock()
            .expect("series lock")
            .values
            .extend(values);
    }

    /// Empties the series, returning its values and whether it was set.
    fn take(&self) -> (Vec<f64>, bool) {
        let state = std::mem::take(&mut *self.state.lock().expect("series lock"));
        (state.values, state.replaced)
    }

    /// A copy of the recorded values, in order.
    pub fn values(&self) -> Vec<f64> {
        self.state.lock().expect("series lock").values.clone()
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.state.lock().expect("series lock").values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Aggregated timing statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans on this path.
    pub count: u64,
    /// Total wall-clock time, nanoseconds.
    pub wall_ns_total: u64,
    /// Fastest single span, nanoseconds.
    pub wall_ns_min: u64,
    /// Slowest single span, nanoseconds.
    pub wall_ns_max: u64,
    /// Total process CPU time, nanoseconds (0 where unsupported; Linux
    /// granularity is one scheduler tick, see [`process_cpu_ns`]).
    pub cpu_ns_total: u64,
}

/// The collection point for one run's metrics.
///
/// Cheap to share (`&Registry` everywhere); the process-wide instance is
/// [`global()`]. All interior mutability is `Mutex`/atomic, so a registry
/// is freely usable from the parallel sections of the stack.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    series: Mutex<BTreeMap<String, Arc<Series>>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
    meta: Mutex<BTreeMap<String, String>>,
    events: Mutex<Vec<String>>,
    /// Origin of trace-event timestamps (set when the registry is built,
    /// so every span begin/end offset is non-negative and monotonic).
    epoch: Instant,
    tracing: AtomicBool,
    trace: Mutex<trace::TraceBuffer>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

macro_rules! get_or_create {
    ($map:expr, $name:expr) => {{
        let mut map = $map.lock().expect("registry lock");
        if let Some(existing) = map.get($name) {
            Arc::clone(existing)
        } else {
            let fresh = Arc::new(Default::default());
            map.insert($name.to_string(), Arc::clone(&fresh));
            fresh
        }
    }};
}

impl Registry {
    /// An empty registry (tracing off, default trace capacity).
    pub fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            series: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            meta: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            tracing: AtomicBool::new(false),
            trace: Mutex::new(trace::TraceBuffer::new(DEFAULT_TRACE_CAPACITY)),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create!(self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create!(self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create!(self.histograms, name)
    }

    /// Alias of [`Registry::histogram`], kept so the `perfbench` crate
    /// builds unchanged until its next change drops the call.
    pub fn latency_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name)
    }

    /// The series named `name`, created on first use.
    pub fn series(&self, name: &str) -> Arc<Series> {
        get_or_create!(self.series, name)
    }

    /// Sets a run-level metadata key (seed, git revision, thread count,
    /// ...). Rendered in the manifest's leading `run` record.
    pub fn set_meta(&self, key: &str, value: impl Display) {
        self.meta
            .lock()
            .expect("registry lock")
            .insert(key.to_string(), value.to_string());
    }

    /// The metadata value for `key`, if set.
    pub fn meta(&self, key: &str) -> Option<String> {
        self.meta.lock().expect("registry lock").get(key).cloned()
    }

    /// Appends a progress event message (machine copy of what
    /// [`progress!`](crate::progress) printed to stderr).
    pub fn event(&self, message: &str) {
        self.events
            .lock()
            .expect("registry lock")
            .push(message.to_string());
    }

    /// Opens a root timing span; time is recorded under `name` when the
    /// returned guard drops. Nest with [`Span::child`].
    pub fn span(&self, name: &str) -> Span<'_> {
        Span::open(self, name.to_string())
    }

    /// Folds one completed span measurement into the stats for `path`.
    /// Usually called via [`Span`]'s drop, but public so tests and
    /// manifest replays can drive it directly.
    pub fn record_span(&self, path: &str, wall_ns: u64, cpu_ns: u64) {
        let mut spans = self.spans.lock().expect("registry lock");
        let stats = spans.entry(path.to_string()).or_default();
        stats.count += 1;
        stats.wall_ns_total += wall_ns;
        stats.cpu_ns_total += cpu_ns;
        stats.wall_ns_max = stats.wall_ns_max.max(wall_ns);
        stats.wall_ns_min = if stats.count == 1 {
            wall_ns
        } else {
            stats.wall_ns_min.min(wall_ns)
        };
    }

    /// The aggregated stats for one span path, if any span completed there.
    pub fn span_stats(&self, path: &str) -> Option<SpanStats> {
        self.spans.lock().expect("registry lock").get(path).copied()
    }

    /// Turns on per-event span tracing: spans record [`TraceEvent`]s that
    /// [`write_chrome_trace`] exports. When off — the default — spans cost
    /// one relaxed atomic load extra, nothing else.
    pub fn enable_tracing(&self) {
        self.tracing.store(true, Ordering::Relaxed);
    }

    /// Turns on tracing with an explicit ring-buffer capacity (events),
    /// clearing anything previously recorded.
    pub fn enable_tracing_with_capacity(&self, capacity: usize) {
        self.trace
            .lock()
            .expect("registry lock")
            .set_capacity(capacity);
        self.enable_tracing();
    }

    /// Turns tracing back off. Recorded events stay readable.
    pub fn disable_tracing(&self) {
        self.tracing.store(false, Ordering::Relaxed);
    }

    /// Whether per-event span tracing is currently on.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Records one trace event directly. Usually driven by [`Span`]'s
    /// drop (when tracing is on), but public so tests and replays can
    /// synthesize traces — mirroring [`Registry::record_span`].
    pub fn record_trace_event(&self, path: &str, tid: u64, begin_ns: u64, dur_ns: u64) {
        self.trace.lock().expect("registry lock").push(TraceEvent {
            path: path.to_string(),
            tid,
            begin_ns,
            dur_ns,
        });
    }

    /// The recorded trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.lock().expect("registry lock").snapshot()
    }

    /// How many trace events were overwritten or discarded because the
    /// ring buffer was full.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.lock().expect("registry lock").dropped()
    }

    /// Snapshot accessors used by the manifest writer (sorted by name).
    pub(crate) fn snapshot(&self) -> manifest::Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .filter_map(|(k, v)| v.summary().map(|s| (k.clone(), s)))
            .collect();
        let series = self
            .series
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.values()))
            .collect();
        let spans = self.spans.lock().expect("registry lock").clone();
        let meta = self.meta.lock().expect("registry lock").clone();
        let events = self.events.lock().expect("registry lock").clone();
        manifest::Snapshot {
            meta,
            counters,
            gauges,
            histograms,
            series,
            spans,
            events,
        }
    }

    /// Clears every metric, span, meta key, and event. Benchmarks and
    /// tests use this to isolate runs sharing the [`global()`] registry.
    pub fn reset(&self) {
        self.counters.lock().expect("registry lock").clear();
        self.gauges.lock().expect("registry lock").clear();
        self.histograms.lock().expect("registry lock").clear();
        self.series.lock().expect("registry lock").clear();
        self.spans.lock().expect("registry lock").clear();
        self.meta.lock().expect("registry lock").clear();
        self.events.lock().expect("registry lock").clear();
        self.trace.lock().expect("registry lock").clear();
    }
}

/// An open timing scope. Wall time comes from [`Instant`]; CPU time is the
/// process total from [`process_cpu_ns`] (best effort). Recorded into its
/// registry under the span's `/`-separated path when dropped.
#[derive(Debug)]
pub struct Span<'a> {
    registry: &'a Registry,
    path: String,
    start: Instant,
    cpu_start: Option<u64>,
}

impl<'a> Span<'a> {
    fn open(registry: &'a Registry, path: String) -> Self {
        Span {
            registry,
            path,
            start: Instant::now(),
            cpu_start: process_cpu_ns(),
        }
    }

    /// This span's full `/`-separated path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Opens a nested span recorded under `parent_path/name`. Drop the
    /// child before the parent so the parent's time covers it.
    pub fn child(&self, name: &str) -> Span<'a> {
        Span::open(self.registry, format!("{}/{name}", self.path))
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let wall_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cpu_ns = match (self.cpu_start, process_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        self.registry.record_span(&self.path, wall_ns, cpu_ns);
        if self.registry.tracing_enabled() {
            let begin = self.start.saturating_duration_since(self.registry.epoch);
            let begin_ns = u64::try_from(begin.as_nanos()).unwrap_or(u64::MAX);
            self.registry
                .record_trace_event(&self.path, trace::thread_index(), begin_ns, wall_ns);
        }
    }
}

/// Total process CPU time (user + system) in nanoseconds, read from
/// `/proc/self/stat`. Granularity is one scheduler tick (assumed 100 Hz,
/// the Linux default — `_SC_CLK_TCK` is unreachable without libc), so
/// short spans legitimately report 0 CPU ns. Returns `None` off Linux.
pub fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; fields 14/15 (utime/stime, in
    // clock ticks) are counted after the closing paren.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    const NS_PER_TICK: u64 = 1_000_000_000 / 100;
    Some((utime + stime) * NS_PER_TICK)
}

/// The message a caught panic carries (`panic!` with a literal or a format
/// string), for reporting a contained panic as an error.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Best-effort current git revision: reads `.git/HEAD` (searching upward
/// from the working directory) and resolves one level of `ref:`
/// indirection. Returns `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git/HEAD");
        if let Ok(contents) = std::fs::read_to_string(&head) {
            let contents = contents.trim();
            return match contents.strip_prefix("ref: ") {
                Some(reference) => {
                    let resolved = std::fs::read_to_string(dir.join(".git").join(reference))
                        .ok()?
                        .trim()
                        .to_string();
                    (!resolved.is_empty()).then_some(resolved)
                }
                None => (!contents.is_empty()).then(|| contents.to_string()),
            };
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Peak resident-set size of this process in bytes, read from the
/// `VmHWM` line of `/proc/self/status` (the kernel's memory high-water
/// mark). Returns `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The process-wide registry every instrumented crate records into.
///
/// Setting `VAESA_TRACE=1` (or `true`) in the environment enables span
/// tracing on this registry from its first use.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let registry = Registry::new();
        let traced = std::env::var("VAESA_TRACE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        if traced {
            registry.enable_tracing();
        }
        registry
    })
}

/// [`Registry::counter`] on the [`global()`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// [`Registry::gauge`] on the [`global()`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// [`Registry::histogram`] on the [`global()`] registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// [`Registry::series`] on the [`global()`] registry — or, while a
/// [`Scope`] is entered on this thread, the scope's buffered series.
pub fn series(name: &str) -> Arc<Series> {
    match Scope::current() {
        Some(scope) => scope.series(name),
        None => global().series(name),
    }
}

/// [`Registry::span`] on the [`global()`] registry.
pub fn span(name: &str) -> Span<'static> {
    global().span(name)
}

/// [`Registry::set_meta`] on the [`global()`] registry.
pub fn set_meta(key: &str, value: impl Display) {
    global().set_meta(key, value);
}

/// [`Registry::event`] on the [`global()`] registry — or, while a
/// [`Scope`] is entered on this thread, buffered in the scope.
pub fn event(message: &str) {
    match Scope::current() {
        Some(scope) => scope.event(message),
        None => global().event(message),
    }
}

/// A progress line for humans *and* machines: prints to stderr (keeping
/// stdout for results) and appends the same text as a manifest `event`
/// record on the global registry.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {{
        let message = format!($($arg)*);
        eprintln!("{message}");
        $crate::event(&message);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_accumulate() {
        let reg = Registry::new();
        reg.counter("a").add(2);
        reg.counter("a").incr();
        assert_eq!(reg.counter("a").get(), 3);
        assert_eq!(reg.counter("b").get(), 0);
    }

    #[test]
    fn gauges_overwrite_and_track_minimum() {
        let g = Gauge::new();
        g.set(4.5);
        assert_eq!(g.get(), 4.5);
        g.set(1.0);
        assert_eq!(g.get(), 1.0);

        let m = Gauge::new();
        m.set_min(5.0); // first observation lands even though gauge is 0
        assert_eq!(m.get(), 5.0);
        m.set_min(7.0);
        assert_eq!(m.get(), 5.0);
        m.set_min(2.0);
        assert_eq!(m.get(), 2.0);
        m.set_min(f64::NAN);
        assert_eq!(m.get(), 2.0);
    }

    #[test]
    fn series_preserve_order_and_replace() {
        let reg = Registry::new();
        let s = reg.series("curve");
        s.push(3.0);
        s.push(1.0);
        s.push(2.0);
        assert_eq!(s.values(), vec![3.0, 1.0, 2.0]);
        s.set(vec![9.0]);
        assert_eq!(reg.series("curve").values(), vec![9.0]);
        assert!(!s.is_empty());
    }

    #[test]
    fn span_timing_is_monotonic_and_nested_spans_fit_in_parents() {
        let reg = Registry::new();
        {
            let parent = reg.span("outer");
            {
                let _child = parent.child("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let outer = reg.span_stats("outer").unwrap();
        let inner = reg.span_stats("outer/inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Wall clocks are monotonic: a child opened and closed inside its
        // parent can never out-time it, and both must cover their sleeps.
        assert!(inner.wall_ns_total >= 2_000_000, "{inner:?}");
        assert!(outer.wall_ns_total >= inner.wall_ns_total + 1_000_000);
        assert!(outer.wall_ns_min <= outer.wall_ns_max);
    }

    #[test]
    fn span_stats_aggregate_min_max_and_count() {
        let reg = Registry::new();
        reg.record_span("s", 10, 1);
        reg.record_span("s", 30, 2);
        reg.record_span("s", 20, 3);
        let s = reg.span_stats("s").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.wall_ns_total, 60);
        assert_eq!(s.wall_ns_min, 10);
        assert_eq!(s.wall_ns_max, 30);
        assert_eq!(s.cpu_ns_total, 6);
    }

    #[test]
    fn process_cpu_time_is_monotonic_where_supported() {
        let Some(a) = process_cpu_ns() else {
            return; // unsupported platform: nothing to check
        };
        // Burn a little CPU; the reading must never go backwards.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let b = process_cpu_ns().unwrap();
        assert!(b >= a);
    }

    #[test]
    fn registry_reset_clears_everything() {
        let reg = Registry::new();
        reg.counter("c").incr();
        reg.gauge("g").set(1.0);
        reg.histogram("h").record(1);
        reg.series("s").push(1.0);
        reg.record_span("sp", 1, 0);
        reg.set_meta("k", "v");
        reg.event("hello");
        reg.reset();
        assert_eq!(reg.counter("c").get(), 0);
        assert_eq!(reg.gauge("g").get(), 0.0);
        assert_eq!(reg.histogram("h").count(), 0);
        assert!(reg.series("s").is_empty());
        assert_eq!(reg.span_stats("sp"), None);
        assert_eq!(reg.meta("k"), None);
    }

    #[test]
    fn latency_histogram_is_the_same_instrument_as_histogram() {
        let reg = Registry::new();
        assert!(Arc::ptr_eq(
            &reg.histogram("q.ns"),
            &reg.latency_histogram("q.ns")
        ));
        reg.latency_histogram("q.ns").record(40);
        reg.histogram("q.ns").record(60);
        assert_eq!(reg.latency_histogram("q.ns").count(), 2);
        assert_eq!(reg.histogram("q.ns").sum(), 100);
        let records: Vec<_> = manifest_lines(&reg)
            .into_iter()
            .filter(|l| l.contains("\"record\":\"histogram\""))
            .collect();
        assert_eq!(records.len(), 1, "{records:?}");
        assert!(records[0].contains("\"name\":\"q.ns\",\"count\":2"));
    }

    #[test]
    fn nested_children_aggregate_per_path() {
        let reg = Registry::new();
        {
            let run = reg.span("dse/run");
            for _ in 0..3 {
                let _fit = run.child("fit");
            }
            {
                let fit = run.child("fit");
                let _chol = fit.child("cholesky");
            }
            let _score = run.child("score");
        }
        // Same child name under the same parent folds into one path; a
        // grandchild gets its own three-segment path; sibling paths stay
        // separate; and re-running the parent keeps accumulating.
        assert_eq!(reg.span_stats("dse/run").unwrap().count, 1);
        assert_eq!(reg.span_stats("dse/run/fit").unwrap().count, 4);
        assert_eq!(reg.span_stats("dse/run/fit/cholesky").unwrap().count, 1);
        assert_eq!(reg.span_stats("dse/run/score").unwrap().count, 1);
        assert_eq!(reg.span_stats("dse/run/bogus"), None);
        {
            let run = reg.span("dse/run");
            let _fit = run.child("fit");
        }
        let fit = reg.span_stats("dse/run/fit").unwrap();
        assert_eq!(fit.count, 5);
        assert!(fit.wall_ns_min <= fit.wall_ns_max);
        assert!(fit.wall_ns_total >= fit.wall_ns_max);
    }

    #[test]
    fn tracing_is_off_by_default_and_records_when_enabled() {
        let reg = Registry::new();
        {
            let _s = reg.span("quiet");
        }
        assert!(!reg.tracing_enabled());
        assert!(reg.trace_events().is_empty(), "disabled tracing records");

        reg.enable_tracing();
        {
            let outer = reg.span("outer");
            let _inner = outer.child("inner");
        }
        let events = reg.trace_events();
        assert_eq!(events.len(), 2);
        // Children drop first, so they precede parents in the buffer.
        assert_eq!(events[0].path, "outer/inner");
        assert_eq!(events[1].path, "outer");
        for e in &events {
            assert!(e.tid >= 1);
        }
        // The child window nests inside the parent window on the shared
        // monotonic epoch clock.
        let (inner, outer) = (&events[0], &events[1]);
        assert!(outer.begin_ns <= inner.begin_ns);
        assert!(inner.begin_ns + inner.dur_ns <= outer.begin_ns + outer.dur_ns);

        reg.disable_tracing();
        {
            let _s = reg.span("quiet_again");
        }
        assert_eq!(reg.trace_events().len(), 2);

        reg.reset();
        assert!(reg.trace_events().is_empty());
        assert_eq!(reg.trace_dropped(), 0);
    }

    #[test]
    fn tracing_capacity_override_caps_the_buffer() {
        let reg = Registry::new();
        reg.enable_tracing_with_capacity(2);
        for i in 0..4 {
            let _s = reg.span(if i % 2 == 0 { "even" } else { "odd" });
        }
        assert_eq!(reg.trace_events().len(), 2);
        assert_eq!(reg.trace_dropped(), 2);
        // Aggregate span stats are unaffected by the trace ring.
        assert_eq!(reg.span_stats("even").unwrap().count, 2);
    }

    #[test]
    fn peak_rss_is_positive_where_supported() {
        let Some(rss) = peak_rss_bytes() else {
            return; // unsupported platform: nothing to check
        };
        // Any live process has paged in at least a few KiB.
        assert!(rss > 4096, "{rss}");
    }

    #[test]
    fn meta_round_trips() {
        let reg = Registry::new();
        reg.set_meta("seed", 42u64);
        assert_eq!(reg.meta("seed").as_deref(), Some("42"));
    }

    #[test]
    fn global_registry_is_shared() {
        counter("obs.test.global").add(5);
        assert_eq!(global().counter("obs.test.global").get(), 5);
    }
}
