//! The JSON-lines run-manifest format.
//!
//! One self-describing record per line, in a fixed record-type order with
//! names sorted lexicographically inside each type, so manifests of the
//! same experiment diff cleanly:
//!
//! ```text
//! {"record":"run","meta":{...}}                 — one line of run context
//! {"record":"counter","name":...,"value":...}   — sorted by name
//! {"record":"gauge","name":...,"value":...}
//! {"record":"histogram","name":...,"count":...,"mean":...,"min":...,
//!  "max":...,"p50":...,"p90":...,"p99":...}
//! {"record":"series","name":...,"values":[...]}
//! {"record":"span","path":...,"count":...,"wall_ns_total":...,
//!  "wall_ns_min":...,"wall_ns_max":...,"cpu_ns_total":...}
//! {"record":"event","index":...,"message":...}
//! ```
//!
//! Counters, gauges, and series carry run *content* (deterministic under
//! the workspace's bit-identical-parallelism policy, modulo cache-timing
//! metrics — see `DESIGN.md` §2.10); histograms and spans carry *timings*
//! and naturally vary run to run. Readers that gate on manifests compare
//! the former and ignore the latter.

use crate::json::Obj;
use crate::{HistogramSummary, Registry, SpanStats};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// An ordered copy of a registry's contents, taken under its locks.
#[derive(Debug)]
pub(crate) struct Snapshot {
    pub(crate) meta: BTreeMap<String, String>,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, HistogramSummary>,
    pub(crate) series: BTreeMap<String, Vec<f64>>,
    pub(crate) spans: BTreeMap<String, SpanStats>,
    pub(crate) events: Vec<String>,
}

/// Renders `registry` as manifest lines (no trailing newline per line).
pub fn manifest_lines(registry: &Registry) -> Vec<String> {
    let snap = registry.snapshot();
    let mut lines = Vec::new();

    let mut meta = Obj::new();
    for (k, v) in &snap.meta {
        meta.str_field(k, v);
    }
    let mut run = Obj::new();
    run.str_field("record", "run")
        .raw_field("meta", &meta.finish());
    lines.push(run.finish());

    for (name, value) in &snap.counters {
        let mut o = Obj::new();
        o.str_field("record", "counter")
            .str_field("name", name)
            .u64_field("value", *value);
        lines.push(o.finish());
    }
    for (name, value) in &snap.gauges {
        let mut o = Obj::new();
        o.str_field("record", "gauge")
            .str_field("name", name)
            .f64_field("value", *value);
        lines.push(o.finish());
    }
    for (name, s) in &snap.histograms {
        let mut o = Obj::new();
        o.str_field("record", "histogram")
            .str_field("name", name)
            .u64_field("count", s.count)
            .f64_field("mean", s.mean)
            .u64_field("min", s.min)
            .u64_field("max", s.max)
            .u64_field("p50", s.p50)
            .u64_field("p90", s.p90)
            .u64_field("p99", s.p99);
        lines.push(o.finish());
    }
    for (name, values) in &snap.series {
        let mut o = Obj::new();
        o.str_field("record", "series")
            .str_field("name", name)
            .f64_array_field("values", values);
        lines.push(o.finish());
    }
    for (path, s) in &snap.spans {
        let mut o = Obj::new();
        o.str_field("record", "span")
            .str_field("path", path)
            .u64_field("count", s.count)
            .u64_field("wall_ns_total", s.wall_ns_total)
            .u64_field("wall_ns_min", s.wall_ns_min)
            .u64_field("wall_ns_max", s.wall_ns_max)
            .u64_field("cpu_ns_total", s.cpu_ns_total);
        lines.push(o.finish());
    }
    for (index, message) in snap.events.iter().enumerate() {
        let mut o = Obj::new();
        o.str_field("record", "event")
            .u64_field("index", index as u64)
            .str_field("message", message);
        lines.push(o.finish());
    }
    lines
}

/// The whole manifest as one newline-terminated string.
pub fn manifest_string(registry: &Registry) -> String {
    let mut out = manifest_lines(registry).join("\n");
    out.push('\n');
    out
}

/// Writes the manifest to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn write_manifest(registry: &Registry, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, manifest_string(registry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_registry() -> Registry {
        let reg = Registry::new();
        reg.set_meta("seed", 7u64);
        reg.set_meta("bin", "demo");
        reg.counter("b.count").add(2);
        reg.counter("a.count").add(1);
        reg.gauge("rate").set(0.5);
        reg.histogram("ns").record(3);
        reg.histogram("ns").record(7);
        reg.series("curve").push(3.0);
        reg.series("curve").push(1.0);
        reg.record_span("fit/cholesky", 100, 10);
        reg.event("hello \"world\"");
        reg
    }

    #[test]
    fn manifest_orders_records_deterministically() {
        let reg = demo_registry();
        let lines = manifest_lines(&reg);
        // run, 2 counters, 1 gauge, 1 histogram, 1 series, 1 span, 1 event
        assert_eq!(lines.len(), 8);
        assert!(lines[0].starts_with("{\"record\":\"run\""));
        assert!(lines[0].contains("\"bin\":\"demo\""));
        assert!(lines[0].contains("\"seed\":\"7\""));
        // Counter names sorted: a.count before b.count.
        assert_eq!(
            lines[1],
            "{\"record\":\"counter\",\"name\":\"a.count\",\"value\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"record\":\"counter\",\"name\":\"b.count\",\"value\":2}"
        );
        assert!(lines[3].contains("\"gauge\""));
        assert!(lines[4].contains("\"histogram\"") && lines[4].contains("\"p50\":3"));
        assert!(lines[5].contains("\"series\"") && lines[5].contains("[3,1]"));
        assert!(lines[6].contains("\"span\"") && lines[6].contains("fit/cholesky"));
        assert!(lines[7].contains("\\\"world\\\""));
    }

    #[test]
    fn identical_content_renders_identical_manifests() {
        let a = manifest_string(&demo_registry());
        let b = manifest_string(&demo_registry());
        assert_eq!(a, b);
    }

    #[test]
    fn writer_creates_directories_and_files() {
        let dir = std::env::temp_dir().join(format!("vaesa_obs_test_{}", std::process::id()));
        let path = dir.join("nested/manifest.jsonl");
        write_manifest(&demo_registry(), &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.ends_with('\n'));
        assert_eq!(content.lines().count(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_registry_still_writes_a_run_record() {
        let reg = Registry::new();
        let lines = manifest_lines(&reg);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0], "{\"record\":\"run\",\"meta\":{}}");
    }
}
