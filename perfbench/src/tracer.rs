//! The traced run's recorder.
//!
//! The benchmark's own spans (each pipeline rep, each client phase of a
//! request, each replayed layer call) go into a private
//! [`vaesa_obs::Registry`], so they never mix with the program's metrics.
//! Tracing on the program's [`vaesa_obs::global`] registry is switched on
//! alongside, which captures its existing `flow/<node>`, `train/epoch`,
//! `dse/run` and `serve/*` spans. Both registries are created together at
//! process start, so their trace clocks agree to within microseconds and
//! the two event streams merge into one Chrome trace.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use vaesa_obs::Registry;

/// Trace lane of the benchmark's main thread; sender threads use the
/// following lanes. Far above the program's own small thread indices.
pub const MAIN_TID: u64 = 1000;

/// Private span recorder plus the switch for the program's tracing.
pub struct Tracer {
    registry: Registry,
    origin: Instant,
    on: AtomicBool,
}

impl Tracer {
    /// Creates the recorder. Call first thing in the process: it also
    /// touches the global registry, which fixes that registry's clock.
    pub fn new() -> Self {
        let registry = Registry::new();
        let origin = Instant::now();
        vaesa_obs::global();
        registry.enable_tracing_with_capacity(1 << 18);
        Tracer {
            registry,
            origin,
            on: AtomicBool::new(false),
        }
    }

    /// Switches recording on or off, for the benchmark and the program.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
        if on {
            vaesa_obs::global().enable_tracing();
        } else {
            vaesa_obs::global().disable_tracing();
        }
    }

    /// Records the span `path` from `start` to `end` on lane `tid`.
    pub fn span(&self, path: &str, tid: u64, start: Instant, end: Instant) {
        if self.on.load(Ordering::SeqCst) {
            let begin = start.saturating_duration_since(self.origin).as_nanos();
            let dur = end.saturating_duration_since(start).as_nanos();
            self.registry.record_trace_event(
                path,
                tid,
                u64::try_from(begin).unwrap_or(u64::MAX),
                u64::try_from(dur).unwrap_or(u64::MAX),
            );
        }
    }

    /// Runs `f` inside the span `path` on the main lane.
    pub fn time<R>(&self, path: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.span(path, MAIN_TID, start, Instant::now());
        result
    }

    /// Merges the program's trace events into the benchmark's and writes
    /// the result as Chrome `trace_event` JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        for e in vaesa_obs::global().trace_events() {
            self.registry
                .record_trace_event(&e.path, e.tid, e.begin_ns, e.dur_ns);
        }
        vaesa_obs::write_chrome_trace(&self.registry, path)
    }
}
