//! Prometheus text exposition format: a writer over a registry snapshot
//! and a small parser for the gates that scrape it back.
//!
//! The mapping from registry instruments to Prometheus families:
//!
//! | registry instrument        | Prometheus family                          |
//! |----------------------------|--------------------------------------------|
//! | [`Counter`](crate::Counter)| `counter`                                  |
//! | [`Gauge`](crate::Gauge)    | `gauge`                                    |
//! | [`Histogram`](crate::Histogram) | `histogram` (cumulative `_bucket{le=...}` + `_sum`/`_count`) |
//!
//! Metric names are sanitized (`serve.predict.rows` → `serve_predict_rows`)
//! and every family is emitted in a fixed section order with names sorted,
//! so two scrapes of the same state are byte-identical.

use crate::Registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Rewrites a registry metric name into the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` by mapping every other byte to `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_'); // digit-first names get a leading underscore
            out.push(c);
        } else if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

/// Renders `registry` in the Prometheus text exposition format (version
/// 0.0.4): counters, gauges, then histograms, each section name-sorted.
/// A histogram's buckets, `+Inf` bucket and `_count` come from one
/// [`HistogramSummary`](crate::HistogramSummary), so a scrape taken while
/// other threads record is still cumulative and ends at `_count`.
pub fn prometheus_string(registry: &Registry) -> String {
    let snap = registry.snapshot();
    let mut out = String::new();

    for (name, value) in &snap.counters {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snap.gauges {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", number(*value));
    }
    for (name, s) in &snap.histograms {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        for (le, cum) in &s.buckets {
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", s.count);
        let _ = writeln!(out, "{n}_sum {}", s.sum);
        let _ = writeln!(out, "{n}_count {}", s.count);
    }
    out
}

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// The metric name (includes any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order (empty when unlabelled).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed scrape: declared metric types plus every sample line.
#[derive(Debug, Clone, Default)]
pub struct PromSnapshot {
    /// `# TYPE` declarations, name → type, in declaration order of first
    /// appearance (map iteration is name-sorted).
    pub types: BTreeMap<String, String>,
    /// All samples, in source order.
    pub samples: Vec<PromSample>,
}

impl PromSnapshot {
    /// The value of the unlabelled sample `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// All samples whose name is exactly `name`.
    pub fn samples_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a PromSample> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// The `q`-quantile of the `histogram` family `base`, resolved from its
    /// cumulative `<base>_bucket{le=...}` counts. Returns `None` when the
    /// family is absent or empty. Like
    /// `histogram_quantile`, a quantile landing in the `+Inf` bucket
    /// resolves to the highest finite bucket bound, keeping the result
    /// comparable against finite SLO thresholds.
    pub fn quantile(&self, base: &str, q: f64) -> Option<f64> {
        let bucket_name = format!("{base}_bucket");
        let mut buckets: Vec<(f64, f64)> = self
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
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last().map(|b| b.1)?;
        if total <= 0.0 {
            return None;
        }
        let rank = (q * total).ceil().clamp(1.0, total);
        let highest_finite = buckets
            .iter()
            .rev()
            .find(|(bound, _)| bound.is_finite())
            .map(|(bound, _)| *bound);
        for (bound, cum) in &buckets {
            if *cum >= rank {
                return if bound.is_finite() {
                    Some(*bound)
                } else {
                    highest_finite.or(Some(*bound))
                };
            }
        }
        buckets.last().map(|b| b.0)
    }
}

/// Parses Prometheus text exposition into types and samples.
///
/// # Errors
///
/// Returns a message naming the first malformed line (bad sample syntax,
/// unparseable value, or unterminated label set).
pub fn parse_prometheus(text: &str) -> Result<PromSnapshot, String> {
    let mut snap = PromSnapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {}: TYPE without a name", lineno + 1))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {}: TYPE {name} without a type", lineno + 1))?;
                snap.types.insert(name.to_string(), kind.to_string());
            }
            continue; // HELP and other comments
        }
        snap.samples.push(parse_sample(line, lineno + 1)?);
    }
    Ok(snap)
}

fn parse_sample(line: &str, lineno: usize) -> Result<PromSample, String> {
    let (name_part, labels, rest) = match line.find('{') {
        Some(open) => {
            let close = line[open..]
                .find('}')
                .map(|i| open + i)
                .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
            (
                &line[..open],
                parse_labels(&line[open + 1..close], lineno)?,
                &line[close + 1..],
            )
        }
        None => {
            let mut parts = line.splitn(2, char::is_whitespace);
            let name = parts.next().unwrap_or("");
            (name, Vec::new(), parts.next().unwrap_or(""))
        }
    };
    let name = name_part.trim();
    if name.is_empty() {
        return Err(format!("line {lineno}: sample without a metric name"));
    }
    // The value is the first whitespace token after the name/labels; an
    // optional timestamp may follow and is ignored.
    let value_token = rest
        .split_whitespace()
        .next()
        .ok_or_else(|| format!("line {lineno}: sample {name} without a value"))?;
    let value = match value_token {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        t => t
            .parse()
            .map_err(|_| format!("line {lineno}: bad value {t:?} for {name}"))?,
    };
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without `=`"))?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        let mut chars = after.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("line {lineno}: label value must be quoted"));
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other, // \\ and \" unescape to themselves
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        labels.push((key, value));
        rest = after[end + 1..].trim_start().trim_start_matches(',').trim();
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizer_maps_into_the_prometheus_charset() {
        assert_eq!(
            sanitize_metric_name("serve.predict.rows"),
            "serve_predict_rows"
        );
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn writer_emits_every_family_kind_with_type_lines() {
        let reg = Registry::new();
        reg.counter("serve.http.requests").add(3);
        reg.gauge("serve.inflight").set(2.0);
        reg.histogram("gp.fit_ns").record(10);
        reg.histogram("gp.fit_ns").record(30);
        let lat = reg.histogram("serve.predict.latency_ns");
        lat.record(500_000);
        lat.record(2_000_000);

        let text = prometheus_string(&reg);
        assert!(text.contains("# TYPE serve_http_requests counter\nserve_http_requests 3\n"));
        assert!(text.contains("# TYPE serve_inflight gauge\nserve_inflight 2\n"));
        assert!(text.contains(concat!(
            "# TYPE gp_fit_ns histogram\n",
            "gp_fit_ns_bucket{le=\"11\"} 1\n",
            "gp_fit_ns_bucket{le=\"31\"} 2\n",
            "gp_fit_ns_bucket{le=\"+Inf\"} 2\n",
            "gp_fit_ns_sum 40\n",
        )));
        assert!(text.contains("gp_fit_ns_count 2\n"));
        assert!(text.contains("# TYPE serve_predict_latency_ns histogram\n"));
        assert!(text.contains("serve_predict_latency_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("serve_predict_latency_ns_count 2\n"));
        // Byte-identical on repeat scrape of unchanged state.
        assert_eq!(text, prometheus_string(&reg));
    }

    #[test]
    fn parser_round_trips_the_writer() {
        let reg = Registry::new();
        reg.counter("c.total").add(7);
        reg.gauge("g.now").set(0.25);
        reg.histogram("h.vals").record(4);
        let lat = reg.histogram("l.ns");
        for us in [100u64, 200, 400, 800] {
            lat.record(us * 1_000);
        }
        let snap = parse_prometheus(&prometheus_string(&reg)).expect("parse");
        assert_eq!(
            snap.types.get("c_total").map(String::as_str),
            Some("counter")
        );
        assert_eq!(
            snap.types.get("l_ns").map(String::as_str),
            Some("histogram")
        );
        assert_eq!(snap.value("c_total"), Some(7.0));
        assert_eq!(snap.value("g_now"), Some(0.25));
        assert_eq!(snap.value("l_ns_count"), Some(4.0));
        // Bucketed quantile lands within one bucket of the exact p50.
        let p50 = snap.quantile("l_ns", 0.5).unwrap();
        assert!((p50 - 200_000.0).abs() / 200_000.0 <= 0.25, "{p50}");
        // Small integers have buckets of their own.
        assert_eq!(
            snap.types.get("h_vals").map(String::as_str),
            Some("histogram")
        );
        assert_eq!(snap.quantile("h_vals", 0.5), Some(4.0));
        assert_eq!(snap.quantile("absent", 0.5), None);
    }

    #[test]
    fn scrapes_taken_while_recording_stay_cumulative() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};
        let reg = Registry::new();
        let h = reg.histogram("busy.ns");
        h.record(1);
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(Barrier::new(2));
        let recorder = {
            let (stop, started) = (Arc::clone(&stop), Arc::clone(&started));
            std::thread::spawn(move || {
                started.wait();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(i % 5_000);
                    i += 1;
                }
            })
        };
        started.wait();
        for scrape in 0..300 {
            let snap = parse_prometheus(&prometheus_string(&reg)).expect("parse");
            let buckets: Vec<_> = snap.samples_named("busy_ns_bucket").collect();
            for pair in buckets.windows(2) {
                assert!(
                    pair[0].value <= pair[1].value,
                    "scrape {scrape}: not cumulative at le={:?}",
                    pair[1].label("le")
                );
            }
            let inf = buckets.last().expect("buckets");
            assert_eq!(inf.label("le"), Some("+Inf"));
            assert_eq!(
                Some(inf.value),
                snap.value("busy_ns_count"),
                "scrape {scrape}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        recorder.join().unwrap();
    }

    #[test]
    fn parser_handles_labels_escapes_and_special_values() {
        let text = concat!(
            "# HELP x something\n",
            "# TYPE x gauge\n",
            "x{path=\"a\\\"b\",le=\"+Inf\"} +Inf 1700000\n",
            "y NaN\n",
            "z -Inf\n",
        );
        let snap = parse_prometheus(text).expect("parse");
        assert_eq!(snap.samples.len(), 3);
        assert_eq!(snap.samples[0].label("path"), Some("a\"b"));
        assert_eq!(snap.samples[0].label("le"), Some("+Inf"));
        assert!(snap.samples[0].value.is_infinite());
        assert!(snap.samples[1].value.is_nan());
        assert_eq!(snap.samples[2].value, f64::NEG_INFINITY);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("name{unterminated 1").is_err());
        assert!(parse_prometheus("name{k=unquoted} 1").is_err());
        assert!(parse_prometheus("name notanumber").is_err());
        assert!(parse_prometheus("lonely_name").is_err());
    }
}
