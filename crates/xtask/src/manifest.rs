//! Reader for the `vaesa-obs` JSON-lines run manifest.
//!
//! Mirrors the record shapes documented in `crates/obs/src/manifest.rs`:
//! one self-describing JSON object per line, tagged by `"record"`. Unknown
//! record types are rejected (a typo in a gate is a bug, not data), but
//! unknown *fields* inside a known record are ignored so the format can
//! grow without breaking old checkers.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Summary statistics of one histogram record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramRecord {
    /// Number of samples recorded.
    pub count: u64,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

/// Aggregated statistics of one span record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// How many times the span path completed.
    pub count: u64,
    /// Total wall-clock time across completions, nanoseconds.
    pub wall_ns_total: u64,
    /// Total process-CPU time across completions, nanoseconds.
    pub cpu_ns_total: u64,
}

/// One parsed `manifest.jsonl`, keyed the same way the writer sorts it.
#[derive(Debug, Default)]
pub struct Manifest {
    /// Run-context key/value pairs from the `run` record.
    pub meta: BTreeMap<String, String>,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value (`null` in the JSON parses as NaN).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistogramRecord>,
    /// Series name → ordered values.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Span path → aggregated stats.
    pub spans: BTreeMap<String, SpanRecord>,
    /// Event messages in emission order.
    pub events: Vec<String>,
}

fn field<'a>(v: &'a Value, key: &str, line: usize) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("line {line}: missing field `{key}`"))
}

fn str_field(v: &Value, key: &str, line: usize) -> Result<String, String> {
    match field(v, key, line)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("line {line}: field `{key}` is not a string")),
    }
}

fn u64_field(v: &Value, key: &str, line: usize) -> Result<u64, String> {
    field(v, key, line)?
        .as_u64()
        .ok_or_else(|| format!("line {line}: field `{key}` is not a u64"))
}

/// Reads a float field, decoding the writer's `null` (non-finite) as NaN.
fn f64_field(v: &Value, key: &str, line: usize) -> Result<f64, String> {
    match field(v, key, line)? {
        Value::Null => Ok(f64::NAN),
        other => other
            .as_f64()
            .ok_or_else(|| format!("line {line}: field `{key}` is not a number")),
    }
}

impl Manifest {
    /// Parses manifest text (one JSON object per non-empty line).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed JSON,
    /// unknown record types, or missing/mistyped fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut m = Manifest::default();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let v = serde_json::parse_value(raw)
                .map_err(|e| format!("line {line}: invalid JSON: {e}"))?;
            let record = str_field(&v, "record", line)?;
            match record.as_str() {
                "run" => {
                    let Some(Value::Map(entries)) = v.get("meta") else {
                        return Err(format!("line {line}: run record without meta object"));
                    };
                    for (k, val) in entries {
                        let Value::Str(s) = val else {
                            return Err(format!("line {line}: meta `{k}` is not a string"));
                        };
                        m.meta.insert(k.clone(), s.clone());
                    }
                }
                "counter" => {
                    m.counters
                        .insert(str_field(&v, "name", line)?, u64_field(&v, "value", line)?);
                }
                "gauge" => {
                    m.gauges
                        .insert(str_field(&v, "name", line)?, f64_field(&v, "value", line)?);
                }
                "histogram" => {
                    m.histograms.insert(
                        str_field(&v, "name", line)?,
                        HistogramRecord {
                            count: u64_field(&v, "count", line)?,
                            mean: f64_field(&v, "mean", line)?,
                            min: f64_field(&v, "min", line)?,
                            max: f64_field(&v, "max", line)?,
                            p50: f64_field(&v, "p50", line)?,
                            p90: f64_field(&v, "p90", line)?,
                            p99: f64_field(&v, "p99", line)?,
                        },
                    );
                }
                "series" => {
                    let name = str_field(&v, "name", line)?;
                    let Some(Value::Seq(items)) = v.get("values") else {
                        return Err(format!("line {line}: series without values array"));
                    };
                    let mut values = Vec::with_capacity(items.len());
                    for item in items {
                        values.push(match item {
                            Value::Null => f64::NAN,
                            other => other
                                .as_f64()
                                .ok_or_else(|| format!("line {line}: non-numeric series value"))?,
                        });
                    }
                    m.series.insert(name, values);
                }
                "span" => {
                    m.spans.insert(
                        str_field(&v, "path", line)?,
                        SpanRecord {
                            count: u64_field(&v, "count", line)?,
                            wall_ns_total: u64_field(&v, "wall_ns_total", line)?,
                            cpu_ns_total: u64_field(&v, "cpu_ns_total", line)?,
                        },
                    );
                }
                "event" => m.events.push(str_field(&v, "message", line)?),
                other => return Err(format!("line {line}: unknown record type `{other}`")),
            }
        }
        Ok(m)
    }

    /// Loads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// Propagates read failures and [`Manifest::parse`] errors, prefixed
    /// with the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"record":"run","meta":{"bin":"demo","seed":"7"}}
{"record":"counter","name":"dse.evals","value":288}
{"record":"gauge","name":"scheduler.hit_rate","value":0.25}
{"record":"gauge","name":"nan.gauge","value":null}
{"record":"histogram","name":"fit_ns","count":2,"mean":20,"min":10,"max":30,"p50":10,"p90":30,"p99":30}
{"record":"series","name":"dse.bo.best_edp","values":[3.5,2,null]}
{"record":"span","path":"dse/run","count":3,"wall_ns_total":900,"wall_ns_min":100,"wall_ns_max":500,"cpu_ns_total":1200}
{"record":"event","index":0,"message":"wrote out.csv"}
"#;

    #[test]
    fn parses_every_record_type() {
        let m = Manifest::parse(SAMPLE).unwrap();
        assert_eq!(m.meta["bin"], "demo");
        assert_eq!(m.meta["seed"], "7");
        assert_eq!(m.counters["dse.evals"], 288);
        assert_eq!(m.gauges["scheduler.hit_rate"], 0.25);
        assert!(m.gauges["nan.gauge"].is_nan());
        assert_eq!(m.histograms["fit_ns"].count, 2);
        let s = &m.series["dse.bo.best_edp"];
        assert_eq!(&s[..2], &[3.5, 2.0]);
        assert!(s[2].is_nan());
        assert_eq!(m.spans["dse/run"].count, 3);
        assert_eq!(m.events, vec!["wrote out.csv"]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let m = Manifest::parse("\n{\"record\":\"run\",\"meta\":{}}\n\n").unwrap();
        assert!(m.counters.is_empty());
    }

    #[test]
    fn rejects_unknown_record_types_with_line_numbers() {
        let err = Manifest::parse("{\"record\":\"bogus\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn rejects_missing_fields() {
        let err = Manifest::parse("{\"record\":\"counter\",\"name\":\"x\"}").unwrap_err();
        assert!(err.contains("value"), "{err}");
    }
}
