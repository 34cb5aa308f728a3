//! Live-service telemetry for the daemon: per-endpoint windowed
//! instruments, request-scoped tracing, and the structured access log.
//!
//! Every connection gets a [`RequestCtx`] with a deterministic id
//! (seeded counter — no wall-clock, so two daemons booted with the same
//! seed mint the same id sequence). Handlers label the context with its
//! endpoint and open spans through it; on finish the request is folded
//! into constant-memory instruments ([`Histogram`] per endpoint,
//! [`SlidingWindow`] for trailing rate/p99), appended to the JSONL access
//! log, and retained in a bounded [`RequestTracker`] so its span tree
//! stays retrievable via `GET /metrics/requests/<id>`.
//!
//! Everything here is designed for week-long uptimes: no per-request
//! allocation survives the request except its bounded tracker slot, and
//! no instrument grows with traffic volume.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vaesa_obs::{
    Counter, Gauge, Histogram, RequestCtx, RequestIdGen, RequestRecord, RequestTracker,
    SlidingWindow,
};

/// Every endpoint label the daemon attributes requests to. Bounding the
/// set keeps the per-endpoint instrument count constant no matter what
/// paths clients probe.
pub const ENDPOINTS: [&str; 9] = [
    "root", "healthz", "metrics", "predict", "decode", "search", "jobs", "shutdown", "other",
];

/// Trailing window the rate/p99 gauges cover, seconds.
const WINDOW_SECS: usize = 60;

/// Finished requests retained for span-tree retrieval.
const TRACKER_CAPACITY: usize = 256;

/// The endpoint label for a query-stripped request path.
pub fn endpoint_for_path(path_only: &str) -> &'static str {
    let first = path_only.split('/').nth(1).unwrap_or_default();
    if first.is_empty() {
        return "root";
    }
    ENDPOINTS
        .iter()
        .copied()
        .find(|e| *e == first)
        .unwrap_or("other")
}

/// The daemon's telemetry hub; one per [`Server`](crate::Server).
pub struct Telemetry {
    ids: RequestIdGen,
    tracker: RequestTracker,
    /// Monotonic origin for window second-indices and access-log
    /// timestamps (no wall-clock anywhere on the request path).
    epoch: Instant,
    latency: BTreeMap<&'static str, Arc<Histogram>>,
    windows: BTreeMap<&'static str, SlidingWindow>,
    access_log: Mutex<Option<BufWriter<File>>>,
    inflight: AtomicU64,
    responses: AtomicU64,
    responses_5xx: AtomicU64,
    // The hot-path registry handles, resolved once: going through the
    // global registry's name map on every request costs a lock plus a
    // string-keyed lookup, which is what the ≤2% overhead budget of the
    // serve/predict_b16 bench pays for.
    requests_total: Arc<Counter>,
    classes: [Arc<Counter>; 6],
    error_gauge: Arc<Gauge>,
    status_counters: Mutex<HashMap<u32, Arc<Counter>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracked", &self.tracker.len())
            .finish()
    }
}

impl Telemetry {
    /// Builds the hub: id generator seeded with `seed`, optional JSONL
    /// access log at `access_log`.
    ///
    /// # Errors
    ///
    /// Fails if the access-log file cannot be created.
    pub fn new(seed: u64, access_log: Option<&Path>) -> io::Result<Self> {
        let writer = match access_log {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Some(BufWriter::new(File::create(path)?))
            }
            None => None,
        };
        Ok(Telemetry {
            ids: RequestIdGen::new(seed),
            tracker: RequestTracker::new(TRACKER_CAPACITY),
            epoch: Instant::now(),
            latency: ENDPOINTS
                .iter()
                .map(|&e| (e, vaesa_obs::histogram(&format!("serve.{e}.latency_ns"))))
                .collect(),
            windows: ENDPOINTS
                .iter()
                .map(|&e| (e, SlidingWindow::new(WINDOW_SECS)))
                .collect(),
            access_log: Mutex::new(writer),
            inflight: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            requests_total: vaesa_obs::counter("serve.http.requests"),
            classes: std::array::from_fn(|class| {
                vaesa_obs::counter(&format!("serve.http.responses_{class}xx"))
            }),
            error_gauge: vaesa_obs::gauge("serve.http.error_rate"),
            status_counters: Mutex::new(HashMap::new()),
        })
    }

    /// Opens the request context for a new connection: mints the next id
    /// and marks the request in flight.
    pub fn begin(&self) -> RequestCtx<'static> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        RequestCtx::new(vaesa_obs::global(), self.ids.next_id())
    }

    /// Closes a request: records latency into the endpoint's bucketed
    /// histogram and sliding window, bumps status counters, refreshes the
    /// error-rate gauge, appends the access-log line, and retains the
    /// span tree in the tracker.
    pub fn finish(&self, ctx: RequestCtx<'static>, method: &str, status: u16) {
        let record = ctx.finish(status);
        let endpoint = ENDPOINTS
            .iter()
            .copied()
            .find(|e| *e == record.endpoint)
            .unwrap_or("other");
        self.latency[endpoint].record(record.wall_ns);
        self.windows[endpoint].record_at(self.now_sec(), record.wall_ns);

        self.requests_total.incr();
        self.classes[usize::from(status / 100).min(5)].incr();
        self.status_counter(endpoint, status).incr();
        self.responses.fetch_add(1, Ordering::Relaxed);
        if status >= 500 {
            self.responses_5xx.fetch_add(1, Ordering::Relaxed);
        }
        self.error_gauge.set(self.error_rate());
        self.inflight.fetch_sub(1, Ordering::Relaxed);

        self.log_access(&record, method);
        self.tracker.publish(record);
    }

    /// Requests currently being handled.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// The `serve.<endpoint>.status.<code>` counter, cached under an
    /// integer key so repeat statuses skip the registry's string map.
    fn status_counter(&self, endpoint: &'static str, status: u16) -> Arc<Counter> {
        let index = ENDPOINTS.iter().position(|e| *e == endpoint).unwrap_or(0) as u32;
        let key = index * 1000 + u32::from(status.min(999));
        let mut cache = self.status_counters.lock().expect("status counter lock");
        Arc::clone(
            cache.entry(key).or_insert_with(|| {
                vaesa_obs::counter(&format!("serve.{endpoint}.status.{status}"))
            }),
        )
    }

    /// Fraction of finished requests that returned a 5xx status
    /// (0.0 before any request finishes).
    pub fn error_rate(&self) -> f64 {
        let total = self.responses.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        self.responses_5xx.load(Ordering::Relaxed) as f64 / total as f64
    }

    /// Seconds since the hub was built (monotonic).
    fn now_sec(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Nanoseconds since the hub was built (monotonic; the access-log
    /// timestamp base).
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The periodic sampler body: refreshes process- and window-level
    /// gauges that only make sense as point-in-time readings.
    pub fn sample(&self) {
        if let Some(rss) = vaesa_obs::peak_rss_bytes() {
            vaesa_obs::gauge("process.peak_rss_bytes").set(rss as f64);
        }
        vaesa_obs::gauge("serve.http.inflight").set(self.inflight() as f64);
        let now = self.now_sec();
        for endpoint in ENDPOINTS {
            let window = &self.windows[endpoint];
            if window.count(now) == 0 {
                continue; // quiet endpoint: no stale gauges
            }
            vaesa_obs::gauge(&format!("serve.window.{endpoint}.rate")).set(window.rate(now));
            if let Some(p99) = window.quantile_ns(now, 0.99) {
                vaesa_obs::gauge(&format!("serve.window.{endpoint}.p99_ns")).set(p99 as f64);
            }
        }
    }

    /// JSON for `GET /metrics/requests`: ids of recently finished
    /// requests, newest first.
    pub fn recent_requests_json(&self, n: usize) -> String {
        let rows: Vec<String> = self
            .tracker
            .recent(n)
            .into_iter()
            .map(|(id, endpoint, status)| {
                format!(
                    "{{\"id\":{},\"endpoint\":{},\"status\":{status}}}",
                    json_str(&id),
                    json_str(&endpoint)
                )
            })
            .collect();
        format!("{{\"requests\":[{}]}}", rows.join(","))
    }

    /// JSON span tree for `GET /metrics/requests/<id>`, or `None` when
    /// the request is unknown or already evicted from the ring.
    pub fn request_tree_json(&self, id: &str) -> Option<String> {
        let record = self.tracker.get(id)?;
        Some(render_request(&record))
    }

    /// Flushes the access log (called on graceful shutdown).
    pub fn flush(&self) {
        if let Some(w) = self.access_log.lock().expect("access log lock").as_mut() {
            let _ = w.flush();
        }
    }

    fn log_access(&self, record: &RequestRecord, method: &str) {
        let mut guard = self.access_log.lock().expect("access log lock");
        let Some(w) = guard.as_mut() else {
            return;
        };
        let mut line = format!(
            "{{\"ts_ns\":{},\"id\":{},\"endpoint\":{},\"method\":{},\"status\":{},\"dur_ns\":{}",
            self.now_ns(),
            json_str(&record.id),
            json_str(&record.endpoint),
            json_str(method),
            record.status,
            record.wall_ns
        );
        for (key, value) in &record.notes {
            line.push_str(&format!(",{}:{}", json_str(key), json_str(value)));
        }
        line.push('}');
        // One flushed line per request: the log must be complete even if
        // the process is killed before a graceful shutdown.
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Renders a finished request as the span-tree JSON document.
fn render_request(record: &RequestRecord) -> String {
    let spans: Vec<String> = record
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"path\":{},\"begin_ns\":{},\"wall_ns\":{}}}",
                json_str(&s.path),
                s.begin_ns,
                s.wall_ns
            )
        })
        .collect();
    let notes: Vec<String> = record
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"id\":{},\"endpoint\":{},\"status\":{},\"dur_ns\":{},\"spans\":[{}],\"notes\":{{{}}}}}",
        json_str(&record.id),
        json_str(&record.endpoint),
        record.status,
        record.wall_ns,
        spans.join(","),
        notes.join(",")
    )
}

/// Minimal JSON string escaping for the hand-built telemetry documents.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(endpoint_for_path("/"), "root");
        assert_eq!(endpoint_for_path("/healthz"), "healthz");
        assert_eq!(endpoint_for_path("/metrics"), "metrics");
        assert_eq!(endpoint_for_path("/metrics/requests/r1-0"), "metrics");
        assert_eq!(endpoint_for_path("/jobs/17"), "jobs");
        assert_eq!(endpoint_for_path("/../../etc/passwd"), "other");
        assert_eq!(endpoint_for_path("/totally-unknown"), "other");
    }

    #[test]
    fn finished_requests_land_in_instruments_log_and_tracker() {
        let dir = std::env::temp_dir().join(format!("vaesa-telemetry-{}", std::process::id()));
        let log_path = dir.join("access.jsonl");
        let telemetry = Telemetry::new(0xbeef, Some(&log_path)).expect("log");

        let ctx = telemetry.begin();
        assert_eq!(telemetry.inflight(), 1);
        let id = ctx.id().to_string();
        assert_eq!(id, "rbeef-0");
        ctx.set_endpoint("predict");
        {
            let _span = ctx.span("serve/predict");
        }
        ctx.note("batch.id", 3);
        telemetry.finish(ctx, "POST", 200);
        assert_eq!(telemetry.inflight(), 0);

        // Span tree retrievable by id, with req/<id>/ prefixed paths.
        let tree = telemetry.request_tree_json(&id).expect("tracked");
        assert!(tree.contains("\"req/rbeef-0/serve/predict\""), "{tree}");
        assert!(tree.contains("\"batch.id\":\"3\""), "{tree}");
        assert!(telemetry.request_tree_json("r-unknown").is_none());
        let recent = telemetry.recent_requests_json(10);
        assert!(recent.contains("\"id\":\"rbeef-0\""), "{recent}");

        // The access log got one flushed JSONL line.
        telemetry.flush();
        let log = std::fs::read_to_string(&log_path).expect("log file");
        let line = log.lines().next().expect("one line");
        assert!(line.contains("\"endpoint\":\"predict\""), "{line}");
        assert!(line.contains("\"status\":200"), "{line}");
        assert!(line.contains("\"method\":\"POST\""), "{line}");

        // Endpoint instruments recorded (global registry).
        assert!(vaesa_obs::histogram("serve.predict.latency_ns").count() >= 1);
        telemetry.sample();
        assert!(vaesa_obs::gauge("serve.window.predict.rate").get() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_rate_gauge_tracks_5xx_fraction() {
        let telemetry = Telemetry::new(1, None).expect("no log");
        for status in [200u16, 200, 500, 404] {
            let ctx = telemetry.begin();
            ctx.set_endpoint("other");
            telemetry.finish(ctx, "GET", status);
        }
        let rate = telemetry.error_rate();
        assert!((rate - 0.25).abs() < 1e-12, "{rate}");
    }

    #[test]
    fn json_strings_escape_control_and_quote_characters() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
