//! The metric catalogue and the result printer.
//!
//! Every workload prints each metric it measured as a `name value unit`
//! line, then one JSON object as the last line of standard output. The
//! object carries the end-to-end metrics for an untraced run and the
//! per-layer metrics for a traced one; both lists are fixed here (and
//! mirrored in `BENCHMARK.json`), so every workload reports every name.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Measured in the traced run; a layer a
/// workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("flow.critical_path_s", "s"),
    ("flow.busy_s", "s"),
    ("flow.parallelism", "ratio"),
    ("vaesa.dataset_s", "s"),
    ("vaesa.train_s", "s"),
    ("vaesa.input_preds_s", "s"),
    ("nn.adam_steps", "count"),
    ("nn.epoch_ms", "ms"),
    ("dse.search_s", "s"),
    ("dse.evals", "count"),
    ("dse.decodes", "count"),
    ("dse.gp_fits", "count"),
    ("dse.gp_fit_ms", "ms"),
    ("dse.gp_predict_batch_ms", "ms"),
    ("cosa.misses", "count"),
    ("cosa.hits", "count"),
    ("cosa.hit_rate", "ratio"),
    ("cosa.evictions", "count"),
    ("cosa.schedule_miss_us", "us"),
    ("timeloop.evaluate_ns", "ns"),
    ("serve.connect_us", "us"),
    ("serve.ttfb_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.coalesce_wait_ms", "ms"),
    ("serve.batch_rows", "rows"),
    ("serve.predict_compute_us.rows1", "us"),
    ("serve.predict_compute_us.rows16", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.decode_compute_us.hot", "us"),
    ("serve.decode_compute_us.fresh", "us"),
    ("serve.search_compute_s.bo", "s"),
    ("serve.search_compute_s.gd", "s"),
    ("serve.search_compute_s.random", "s"),
    ("serve.job_wait_s", "s"),
    ("obs.request_telemetry_us", "us"),
    ("loadgen.main.scheduled", "count"),
    ("loadgen.main.sent", "count"),
    ("loadgen.main.late_p99_ms", "ms"),
    ("loadgen.sweep.scheduled", "count"),
    ("loadgen.sweep.sent", "count"),
    ("loadgen.sweep.late_p99_ms", "ms"),
    ("loadgen.max_rps", "req/s"),
    ("ledger.explained_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

struct Line {
    name: String,
    value: f64,
    unit: String,
    n: Option<usize>,
}

/// One workload run's outcome: operation counts, output-check problems,
/// and every metric measured, in the order measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (pipeline reps, or requests sent and due).
    pub attempted: u64,
    /// Operations that failed: errors, timeouts, wrong or invalid outputs.
    pub failed: u64,
    problems: Vec<String>,
    wrong_output: bool,
    lines: Vec<Line>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, None);
    }

    /// Records a timing together with its sample count.
    pub fn timing(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.push(name, value, unit, Some(n));
    }

    fn push(&mut self, name: &str, value: f64, unit: &str, n: Option<usize>) {
        self.lines.retain(|l| l.name != name);
        self.lines.push(Line {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
        });
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.lines.iter().find(|l| l.name == name).map(|l| l.value)
    }

    /// Records one failed operation (an error or a timeout) and why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    /// Records one operation whose output was checked and found wrong.
    pub fn mismatch(&mut self, why: impl Into<String>) {
        self.wrong_output = true;
        self.fail(why);
    }

    /// Whether every checked output was correct.
    pub fn correct(&self) -> bool {
        !self.wrong_output
    }

    /// The human-readable metric lines, the failure summary, and the final
    /// JSON object (end-to-end metrics untraced, per-layer metrics traced).
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never recorded: every workload
    /// measures all of them, so a gap is a bug in the benchmark.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = write!(
                out,
                "{:<34} {:>14} {}",
                line.name,
                human(line.value),
                line.unit
            );
            if let Some(n) = line.n {
                let _ = write!(out, " (n={n})");
            }
            out.push('\n');
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "{:<34} {:>14} ratio", "failed_frac", human(frac));
        for problem in self.problems.iter().take(10) {
            let _ = writeln!(out, "FAILED: {problem}");
        }
        if self.problems.len() > 10 {
            let _ = writeln!(out, "FAILED: ... {} more", self.problems.len() - 10);
        }
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match (self.get(name), traced) {
                    (Some(v), _) => v,
                    (None, true) => 0.0,
                    (None, false) => panic!("end-to-end metric {name} was not measured"),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        out
    }
}

/// A compact rendering for the human-readable lines (the JSON keeps every
/// digit).
pub fn human(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let s = format!("{v:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the one in `BENCHMARK.json` must agree.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = serde_json::parse_value(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let serde::Value::Seq(items) = doc.get(key).expect("key present") else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        _ => panic!("{key} entry without {f}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn render_ends_with_the_json_object() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        r.timing("latency_p50_ms", 12.25, "ms", 4);
        r.metric("peak_rss_mb", 80.0, "MB");
        r.metric("serve.ttfb_ms", 3.0, "ms");
        let out = r.render(false);
        let last = out.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\
             \"latency_p50_ms\":{\"value\":12.25,\"unit\":\"ms\"},\
             \"peak_rss_mb\":{\"value\":80,\"unit\":\"MB\"}}}"
        );
        let traced = r.render(true);
        let last = traced.lines().last().unwrap();
        assert!(last.contains("\"serve.ttfb_ms\":{\"value\":3,\"unit\":\"ms\"}"));
        assert!(last.contains("\"flow.busy_s\":{\"value\":0,\"unit\":\"s\"}"));
        r.fail("timeout");
        assert!(r
            .render(false)
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\":true,\"attempted\":4,\"failed\":1"));
        r.mismatch("body mismatch");
        assert!(r
            .render(false)
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\":false,\"attempted\":4,\"failed\":2"));
    }
}
