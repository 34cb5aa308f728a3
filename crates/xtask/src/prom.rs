//! `xtask prom-check`: a validator for the daemon's Prometheus
//! exposition.
//!
//! It proves a scraped snapshot is well-formed beyond merely
//! parsing: every sample belongs to a declared `# TYPE` family (modulo
//! the `_sum`/`_count`/`_bucket` suffixes), every family is a counter,
//! gauge or histogram, and histogram bucket counts are cumulative-monotone
//! and end at `+Inf` equal to `_count`.

use std::path::Path;
use vaesa_obs::{parse_prometheus, PromSnapshot};

/// Validates a Prometheus text snapshot file.
///
/// # Errors
///
/// Returns the accumulated violation list (parse errors, samples outside
/// any declared family, unknown family types, broken histogram
/// invariants).
pub fn prom_check(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}\n", path.display()))?;
    let snap = parse_prometheus(&text).map_err(|e| format!("{}: {e}\n", path.display()))?;
    let mut failures = Vec::new();

    if snap.samples.is_empty() {
        failures.push("snapshot carries no samples".to_string());
    }
    for sample in &snap.samples {
        if family_of(&snap, &sample.name).is_none() {
            failures.push(format!("sample {} has no # TYPE declaration", sample.name));
        }
    }
    for (family, kind) in &snap.types {
        match kind.as_str() {
            "histogram" => check_histogram(&snap, family, &mut failures),
            "counter" | "gauge" => {}
            other => failures.push(format!("family {family} has unknown type {other:?}")),
        }
    }

    if failures.is_empty() {
        Ok(format!(
            "{} samples across {} families, all well-formed\n",
            snap.samples.len(),
            snap.types.len()
        ))
    } else {
        Err(failures.join("\n") + "\n")
    }
}

/// The declared family a sample belongs to, accounting for the
/// `_sum`/`_count`/`_bucket` suffixes of histogram families.
fn family_of<'a>(snap: &'a PromSnapshot, sample: &str) -> Option<&'a str> {
    if snap.types.contains_key(sample) {
        return snap.types.get_key_value(sample).map(|(k, _)| k.as_str());
    }
    for suffix in ["_sum", "_count", "_bucket"] {
        if let Some(base) = sample.strip_suffix(suffix) {
            if let Some((k, _)) = snap.types.get_key_value(base) {
                return Some(k.as_str());
            }
        }
    }
    None
}

fn check_histogram(snap: &PromSnapshot, family: &str, failures: &mut Vec<String>) {
    let bucket_name = format!("{family}_bucket");
    let mut buckets: Vec<(f64, f64)> = snap
        .samples_named(&bucket_name)
        .filter_map(|s| {
            let le = s.label("le")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, s.value))
        })
        .collect();
    if buckets.is_empty() {
        failures.push(format!("histogram {family} has no buckets"));
        return;
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    if buckets.last().is_some_and(|(b, _)| b.is_finite()) {
        failures.push(format!("histogram {family} is missing the +Inf bucket"));
    }
    for pair in buckets.windows(2) {
        if pair[1].1 < pair[0].1 {
            failures.push(format!(
                "histogram {family} bucket counts are not cumulative at le={}",
                pair[1].0
            ));
        }
    }
    let count = snap.value(&format!("{family}_count"));
    match (count, buckets.last()) {
        (Some(count), Some((_, inf))) if count != *inf => failures.push(format!(
            "histogram {family}: +Inf bucket {inf} != _count {count}"
        )),
        (None, _) => failures.push(format!("histogram {family} is missing _count")),
        _ => {}
    }
    if snap.value(&format!("{family}_sum")).is_none() {
        failures.push(format!("histogram {family} is missing _sum"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const SNAPSHOT: &str = concat!(
        "# TYPE serve_http_requests counter\n",
        "serve_http_requests 12\n",
        "# TYPE serve_http_error_rate gauge\n",
        "serve_http_error_rate 0.0\n",
        "# TYPE serve_predict_latency_ns histogram\n",
        "serve_predict_latency_ns_bucket{le=\"1000000\"} 10\n",
        "serve_predict_latency_ns_bucket{le=\"+Inf\"} 12\n",
        "serve_predict_latency_ns_sum 9000000\n",
        "serve_predict_latency_ns_count 12\n",
    );

    fn temp_file(name: &str, contents: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("vaesa-prom-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write fixture");
        path
    }

    #[test]
    fn prom_check_accepts_a_wellformed_snapshot() {
        let path = temp_file("ok.prom", SNAPSHOT);
        let report = prom_check(&path).expect("valid snapshot");
        assert!(report.contains("well-formed"), "{report}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn prom_check_catches_structural_violations() {
        let path = temp_file(
            "bad.prom",
            concat!(
                "undeclared_metric 1\n",
                "# TYPE broken histogram\n",
                "broken_bucket{le=\"10\"} 5\n",
                "broken_bucket{le=\"20\"} 3\n",
            ),
        );
        let err = prom_check(&path).unwrap_err();
        assert!(err.contains("no # TYPE declaration"), "{err}");
        assert!(err.contains("not cumulative"), "{err}");
        assert!(err.contains("missing the +Inf bucket"), "{err}");
        assert!(err.contains("missing _count"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn prom_check_rejects_a_summary_family() {
        let path = temp_file(
            "summary.prom",
            concat!(
                "# TYPE gp_fit_ns summary\n",
                "gp_fit_ns{quantile=\"0.5\"} 10\n",
                "gp_fit_ns_sum 40\n",
                "gp_fit_ns_count 2\n",
            ),
        );
        let err = prom_check(&path).unwrap_err();
        assert!(
            err.contains("family gp_fit_ns has unknown type \"summary\""),
            "{err}"
        );
        let _ = std::fs::remove_file(path);
    }
}
