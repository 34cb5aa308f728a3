//! `xtask determinism`: byte equality of two runs of the same figure at
//! different thread counts.
//!
//! Returns `Ok(report)` with a human-readable pass summary or
//! `Err(report)` describing every difference found (the gate keeps
//! checking after the first difference so CI logs show the full picture).

use crate::manifest::Manifest;
use std::fmt::Write as _;
use std::path::Path;

/// Metric-name prefixes whose counters/gauges/series are required to be
/// identical across `VAESA_THREADS` settings.
///
/// Scheduler cache metrics (`scheduler.*`) are deliberately absent:
/// concurrent misses on the same key may double-compute, so hit/miss
/// totals vary with thread count even though every *returned value* is
/// bit-identical. Histograms and spans carry timings and are never
/// compared; events carry formatted progress text (including cache-stats
/// strings) and are skipped for the same reason.
pub const DETERMINISTIC_PREFIXES: &[&str] = &["dse.", "train.", "accel.", "nn.", "plot."];

fn deterministic(name: &str) -> bool {
    DETERMINISTIC_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Files in a run's output directory that carry wall-clock timings and
/// therefore legitimately differ between otherwise identical runs. The
/// determinism gate skips them entirely, like `scheduler.*` metrics.
const TIMING_FILES: &[&str] = &["trace.json", "flame.svg"];

fn sorted_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if TIMING_FILES.contains(&name.as_str()) {
            continue;
        }
        if entry
            .file_type()
            .map_err(|e| format!("cannot stat {}: {e}", entry.path().display()))?
            .is_file()
        {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Diffs two output directories of the same figure run at different
/// thread counts.
///
/// Every non-manifest file (CSV, SVG, ...) must be byte-identical — the
/// workspace's parallel runtime promises bit-identical results. The
/// manifests are compared only on the [`DETERMINISTIC_PREFIXES`] slice of
/// counters, gauges (bit-exact), and series. Timing-bearing trace
/// artifacts (`trace.json`, `flame.svg`) are excluded from both the
/// file-set and the byte comparison — one side running with
/// `VAESA_TRACE=1` must not fail the gate.
///
/// # Errors
///
/// Returns every differing file or metric.
pub fn determinism(dir_a: &Path, dir_b: &Path) -> Result<String, String> {
    let names_a = sorted_files(dir_a)?;
    let names_b = sorted_files(dir_b)?;
    let mut report = String::new();
    let mut failures = String::new();

    if names_a != names_b {
        let _ = writeln!(
            failures,
            "file sets differ: {dir_a:?} has {names_a:?}, {dir_b:?} has {names_b:?}"
        );
    }

    for name in names_a.iter().filter(|n| names_b.contains(n)) {
        let path_a = dir_a.join(name);
        let path_b = dir_b.join(name);
        if name == "manifest.jsonl" {
            match (Manifest::load(&path_a), Manifest::load(&path_b)) {
                (Ok(a), Ok(b)) => diff_manifests(&a, &b, &mut report, &mut failures),
                (Err(e), _) | (_, Err(e)) => {
                    let _ = writeln!(failures, "{e}");
                }
            }
            continue;
        }
        let bytes_a =
            std::fs::read(&path_a).map_err(|e| format!("cannot read {}: {e}", path_a.display()))?;
        let bytes_b =
            std::fs::read(&path_b).map_err(|e| format!("cannot read {}: {e}", path_b.display()))?;
        if bytes_a == bytes_b {
            let _ = writeln!(report, "{name}: identical ({} bytes)", bytes_a.len());
        } else {
            let _ = writeln!(failures, "{name}: byte contents differ");
        }
    }

    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures)
    }
}

fn diff_manifests(a: &Manifest, b: &Manifest, report: &mut String, failures: &mut String) {
    let mut compared = 0usize;

    let counters_a: Vec<_> = a
        .counters
        .iter()
        .filter(|(n, _)| deterministic(n))
        .collect();
    let counters_b: Vec<_> = b
        .counters
        .iter()
        .filter(|(n, _)| deterministic(n))
        .collect();
    if counters_a != counters_b {
        let _ = writeln!(
            failures,
            "deterministic counters differ: {counters_a:?} vs {counters_b:?}"
        );
    }
    compared += counters_a.len();

    let gauges_a: Vec<_> = a
        .gauges
        .iter()
        .filter(|(n, _)| deterministic(n))
        .map(|(n, v)| (n, v.to_bits()))
        .collect();
    let gauges_b: Vec<_> = b
        .gauges
        .iter()
        .filter(|(n, _)| deterministic(n))
        .map(|(n, v)| (n, v.to_bits()))
        .collect();
    if gauges_a != gauges_b {
        let _ = writeln!(
            failures,
            "deterministic gauges differ (bit-exact compare): {gauges_a:?} vs {gauges_b:?}"
        );
    }
    compared += gauges_a.len();

    let series_a: Vec<_> = a
        .series
        .iter()
        .filter(|(n, _)| deterministic(n))
        .map(|(n, v)| (n, v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()))
        .collect();
    let series_b: Vec<_> = b
        .series
        .iter()
        .filter(|(n, _)| deterministic(n))
        .map(|(n, v)| (n, v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()))
        .collect();
    for ((name_a, va), (name_b, vb)) in series_a.iter().zip(&series_b) {
        if name_a != name_b || va != vb {
            let _ = writeln!(
                failures,
                "deterministic series differ: {name_a} vs {name_b}"
            );
        }
    }
    if series_a.len() != series_b.len() {
        let _ = writeln!(
            failures,
            "deterministic series sets differ: {} vs {} series",
            series_a.len(),
            series_b.len()
        );
    }
    compared += series_a.len();

    let _ = writeln!(
        report,
        "manifest.jsonl: {compared} deterministic metrics compared \
         (prefixes {DETERMINISTIC_PREFIXES:?})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vaesa_xtask_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_run(dir: &Path, csv: &str, evals: u64, hits: f64) {
        std::fs::write(dir.join("fig.csv"), csv).unwrap();
        std::fs::write(
            dir.join("manifest.jsonl"),
            format!(
                "{{\"record\":\"run\",\"meta\":{{}}}}\n\
                 {{\"record\":\"counter\",\"name\":\"dse.evals\",\"value\":{evals}}}\n\
                 {{\"record\":\"gauge\",\"name\":\"scheduler.hits\",\"value\":{hits}}}\n\
                 {{\"record\":\"series\",\"name\":\"dse.bo.best_edp\",\"values\":[3,2]}}\n"
            ),
        )
        .unwrap();
    }

    #[test]
    fn determinism_ignores_scheduler_metrics_but_not_dse_metrics() {
        let a = temp_dir("det_a");
        let b = temp_dir("det_b");
        // Same results, different scheduler cache behaviour: passes.
        write_run(&a, "1,2\n", 288, 10.0);
        write_run(&b, "1,2\n", 288, 99.0);
        determinism(&a, &b).unwrap();
        // A deterministic counter differs: fails.
        write_run(&b, "1,2\n", 287, 10.0);
        let err = determinism(&a, &b).unwrap_err();
        assert!(err.contains("deterministic counters differ"), "{err}");
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn determinism_ignores_timing_bearing_trace_artifacts() {
        let a = temp_dir("det_trace_a");
        let b = temp_dir("det_trace_b");
        write_run(&a, "1,2\n", 288, 10.0);
        write_run(&b, "1,2\n", 288, 10.0);
        // Only one side was traced, and its timeline is unique — both
        // facts must be invisible to the gate.
        std::fs::write(a.join("trace.json"), "{\"traceEvents\":[]}").unwrap();
        std::fs::write(a.join("flame.svg"), "<svg/>").unwrap();
        determinism(&a, &b).unwrap();
        std::fs::write(b.join("trace.json"), "{\"traceEvents\":[{}]}").unwrap();
        std::fs::write(b.join("flame.svg"), "<svg></svg>").unwrap();
        determinism(&a, &b).unwrap();
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn determinism_byte_compares_result_files() {
        let a = temp_dir("det_csv_a");
        let b = temp_dir("det_csv_b");
        write_run(&a, "1,2\n", 288, 10.0);
        write_run(&b, "1,3\n", 288, 10.0);
        let err = determinism(&a, &b).unwrap_err();
        assert!(err.contains("fig.csv: byte contents differ"), "{err}");
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }
}
