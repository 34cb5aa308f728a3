//! Human-readable summaries and diffs of run manifests, behind the
//! `vaesa-cli obs-report` subcommand.

use crate::manifest::Manifest;
use std::fmt::Write as _;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One manifest as a readable report: run context, then each metric
/// family in the writer's order.
pub fn summarize(m: &Manifest) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "run:");
    for (k, v) in &m.meta {
        let _ = writeln!(out, "  {k} = {v}");
    }
    if !m.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, value) in &m.counters {
            let _ = writeln!(out, "  {name:<40} {value}");
        }
    }
    if !m.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, value) in &m.gauges {
            let _ = writeln!(out, "  {name:<40} {value}");
        }
    }
    if !m.histograms.is_empty() {
        let _ = writeln!(out, "histograms (ns unless named otherwise):");
        for (name, h) in &m.histograms {
            let _ = writeln!(
                out,
                "  {name:<40} n={} mean={:.0} p50={:.0} p99={:.0} max={:.0}",
                h.count, h.mean, h.p50, h.p99, h.max
            );
        }
    }
    if !m.series.is_empty() {
        let _ = writeln!(out, "series:");
        for (name, values) in &m.series {
            match values.last() {
                Some(last) => {
                    let _ = writeln!(out, "  {name:<40} {} values, last {last}", values.len());
                }
                None => {
                    let _ = writeln!(out, "  {name:<40} empty");
                }
            }
        }
    }
    if !m.spans.is_empty() {
        let _ = writeln!(out, "spans:");
        for (path, s) in &m.spans {
            let _ = writeln!(
                out,
                "  {path:<40} n={} wall={:.1}ms cpu={:.1}ms",
                s.count,
                ms(s.wall_ns_total),
                ms(s.cpu_ns_total)
            );
        }
    }
    let _ = writeln!(out, "events: {}", m.events.len());
    out
}

fn diff_family<T: PartialEq, F: Fn(&T, &T) -> String>(
    out: &mut String,
    family: &str,
    a: &std::collections::BTreeMap<String, T>,
    b: &std::collections::BTreeMap<String, T>,
    show: F,
) {
    let mut lines = String::new();
    for (name, va) in a {
        match b.get(name) {
            None => {
                let _ = writeln!(lines, "  - {name} (missing in right)");
            }
            Some(vb) if va != vb => {
                let _ = writeln!(lines, "  ~ {name}: {}", show(va, vb));
            }
            Some(_) => {}
        }
    }
    for name in b.keys().filter(|n| !a.contains_key(*n)) {
        let _ = writeln!(lines, "  + {name} (missing in left)");
    }
    if !lines.is_empty() {
        let _ = writeln!(out, "{family}:");
        out.push_str(&lines);
    }
}

/// Diffs two manifests; returns `None` when nothing differs.
///
/// Histogram and span *statistics* are timing-dependent, so only their
/// presence and sample counts are compared, not their values.
pub fn diff(a: &Manifest, b: &Manifest) -> Option<String> {
    let mut out = String::new();
    diff_family(&mut out, "meta", &a.meta, &b.meta, |x, y| {
        format!("{x} -> {y}")
    });
    diff_family(&mut out, "counters", &a.counters, &b.counters, |x, y| {
        format!("{x} -> {y}")
    });
    diff_family(&mut out, "gauges", &a.gauges, &b.gauges, |x, y| {
        format!("{x} -> {y}")
    });
    let hist_counts = |m: &Manifest| -> std::collections::BTreeMap<String, u64> {
        m.histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.count))
            .collect()
    };
    diff_family(
        &mut out,
        "histograms (sample counts)",
        &hist_counts(a),
        &hist_counts(b),
        |x, y| format!("n={x} -> n={y}"),
    );
    diff_family(&mut out, "series", &a.series, &b.series, |x, y| {
        format!("{} values -> {} values", x.len(), y.len())
    });
    let span_counts = |m: &Manifest| -> std::collections::BTreeMap<String, u64> {
        m.spans.iter().map(|(k, s)| (k.clone(), s.count)).collect()
    };
    diff_family(
        &mut out,
        "spans (completion counts)",
        &span_counts(a),
        &span_counts(b),
        |x, y| format!("n={x} -> n={y}"),
    );
    if a.events.len() != b.events.len() {
        let _ = writeln!(out, "events: {} -> {}", a.events.len(), b.events.len());
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(evals: u64) -> Manifest {
        Manifest::parse(&format!(
            "{{\"record\":\"run\",\"meta\":{{\"bin\":\"demo\"}}}}\n\
             {{\"record\":\"counter\",\"name\":\"dse.evals\",\"value\":{evals}}}\n\
             {{\"record\":\"series\",\"name\":\"dse.bo.best_edp\",\"values\":[3,2]}}\n"
        ))
        .unwrap()
    }

    #[test]
    fn summarize_names_every_family_present() {
        let text = summarize(&manifest(288));
        assert!(text.contains("bin = demo"));
        assert!(text.contains("dse.evals"));
        assert!(text.contains("2 values, last 2"));
    }

    #[test]
    fn diff_reports_changes_and_is_none_when_identical() {
        assert!(diff(&manifest(288), &manifest(288)).is_none());
        let d = diff(&manifest(288), &manifest(287)).unwrap();
        assert!(d.contains("dse.evals: 288 -> 287"), "{d}");
    }

    #[test]
    fn diff_names_the_side_a_metric_is_missing_from() {
        let mut a = manifest(288);
        let mut b = manifest(288);
        a.counters.insert("left.only".to_string(), 1);
        b.gauges.insert("right.only".to_string(), 2.0);
        let d = diff(&a, &b).unwrap();
        assert!(d.contains("- left.only (missing in right)"), "{d}");
        assert!(d.contains("+ right.only (missing in left)"), "{d}");
    }
}
