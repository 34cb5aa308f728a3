//! One snapshot model for every export CI gates on.
//!
//! [`Snapshot::parse`] reads any of three formats into a single
//! name → value map plus meta strings, picking the format from the first
//! non-empty line:
//!
//! - a run `manifest.jsonl` (`{"record":...}`): counters and gauges by
//!   name; histograms as `name:p50|p90|p99|mean|count|min|max`; series as
//!   `name:len` and `name:last`; spans as `span:<path>` (total wall ns);
//!   meta as `meta.<key>`, numeric too when the value parses;
//! - a criterion-shim capture (`{"id":...,"ns_per_iter":...}`): id →
//!   median ns/iter;
//! - anything else is a Prometheus scrape: unlabelled samples by name,
//!   and `family:pNN` resolved through [`PromSnapshot::quantile`].

use crate::manifest::Manifest;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use vaesa_obs::{parse_prometheus, PromSnapshot};

/// A loaded export: numeric values and meta strings by name.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Numeric metric name → value.
    pub(crate) values: BTreeMap<String, f64>,
    /// Meta strings keyed `meta.<key>` (manifests only).
    pub(crate) meta: BTreeMap<String, String>,
    /// The parsed scrape, kept so `family:pNN` can resolve quantiles from
    /// histogram buckets.
    prom: Option<PromSnapshot>,
}

impl Snapshot {
    /// Parses an export, detecting its format from the first non-empty
    /// line.
    ///
    /// # Errors
    ///
    /// Returns the underlying parser's message on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let first = text.lines().map(str::trim).find(|l| !l.is_empty());
        match first {
            Some(line) if line.starts_with('{') => {
                let v = serde_json::parse_value(line)
                    .map_err(|e| format!("line 1: invalid JSON: {e}"))?;
                if v.get("record").is_some() {
                    Ok(Self::from_manifest(&Manifest::parse(text)?))
                } else {
                    Ok(Self {
                        values: parse_capture(text)?,
                        ..Self::default()
                    })
                }
            }
            _ => {
                let prom = parse_prometheus(text)?;
                let mut values = BTreeMap::new();
                for s in prom.samples.iter().filter(|s| s.labels.is_empty()) {
                    // First sample wins, as in `PromSnapshot::value`.
                    values.entry(s.name.clone()).or_insert(s.value);
                }
                Ok(Self {
                    values,
                    meta: BTreeMap::new(),
                    prom: Some(prom),
                })
            }
        }
    }

    /// Loads and parses one export file.
    ///
    /// # Errors
    ///
    /// Propagates read failures and [`Snapshot::parse`] errors, prefixed
    /// with the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn from_manifest(m: &Manifest) -> Self {
        let mut values = BTreeMap::new();
        let mut meta = BTreeMap::new();
        for (k, v) in &m.meta {
            if let Ok(x) = v.parse::<f64>() {
                values.insert(format!("meta.{k}"), x);
            }
            meta.insert(format!("meta.{k}"), v.clone());
        }
        for (name, &v) in &m.counters {
            values.insert(name.clone(), v as f64);
        }
        values.extend(m.gauges.iter().map(|(name, &v)| (name.clone(), v)));
        for (name, h) in &m.histograms {
            for (stat, v) in [
                ("p50", h.p50),
                ("p90", h.p90),
                ("p99", h.p99),
                ("mean", h.mean),
                ("count", h.count as f64),
                ("min", h.min),
                ("max", h.max),
            ] {
                values.insert(format!("{name}:{stat}"), v);
            }
        }
        for (name, series) in &m.series {
            values.insert(format!("{name}:len"), series.len() as f64);
            if let Some(&last) = series.last() {
                values.insert(format!("{name}:last"), last);
            }
        }
        for (path, s) in &m.spans {
            values.insert(format!("span:{path}"), s.wall_ns_total as f64);
        }
        Self {
            values,
            meta,
            prom: None,
        }
    }

    /// The value of `name`: an exact entry, or for a scrape a
    /// `family:pNN` quantile.
    pub fn value(&self, name: &str) -> Option<f64> {
        if let Some(&v) = self.values.get(name) {
            return Some(v);
        }
        let (family, pct) = split_quantile(name)?;
        self.prom.as_ref()?.quantile(family, pct / 100.0)
    }
}

/// Splits `family:pNN` into the family and the percentile `NN`.
pub(crate) fn split_quantile(name: &str) -> Option<(&str, f64)> {
    let (family, pct) = name.rsplit_once(":p")?;
    Some((family, pct.parse().ok()?))
}

/// Parses a criterion-shim capture into id → median ns/iter.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed entries.
fn parse_capture(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut map = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = serde_json::parse_value(raw).map_err(|e| format!("line {line}: {e}"))?;
        let Some(Value::Str(id)) = v.get("id") else {
            return Err(format!("line {line}: missing string field `id`"));
        };
        let ns = v
            .get("ns_per_iter")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("line {line}: missing numeric field `ns_per_iter`"))?;
        map.insert(id.clone(), ns);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_records_map_to_named_values_and_meta() {
        let s = Snapshot::parse(concat!(
            "{\"record\":\"run\",\"meta\":{\"dse.expected_evals\":\"288\",\"precision\":\"f32\"}}\n",
            "{\"record\":\"counter\",\"name\":\"dse.evals\",\"value\":288}\n",
            "{\"record\":\"gauge\",\"name\":\"scheduler.hit_rate\",\"value\":0.25}\n",
            "{\"record\":\"histogram\",\"name\":\"fit_ns\",\"count\":2,\"mean\":20,\"min\":10,\"max\":30,\"p50\":10,\"p90\":30,\"p99\":30}\n",
            "{\"record\":\"series\",\"name\":\"dse.bo.best_edp\",\"values\":[3,2]}\n",
            "{\"record\":\"series\",\"name\":\"dse.gd.best_edp\",\"values\":[]}\n",
            "{\"record\":\"span\",\"path\":\"dse/run\",\"count\":3,\"wall_ns_total\":900,\"cpu_ns_total\":1200}\n",
        ))
        .unwrap();
        assert_eq!(s.value("dse.evals"), Some(288.0));
        assert_eq!(s.value("meta.dse.expected_evals"), Some(288.0));
        assert_eq!(s.meta["meta.precision"], "f32");
        assert_eq!(s.value("meta.precision"), None);
        assert_eq!(s.value("scheduler.hit_rate"), Some(0.25));
        assert_eq!(s.value("fit_ns:p90"), Some(30.0));
        assert_eq!(s.value("fit_ns:count"), Some(2.0));
        assert_eq!(s.value("dse.bo.best_edp:len"), Some(2.0));
        assert_eq!(s.value("dse.bo.best_edp:last"), Some(2.0));
        assert_eq!(s.value("dse.gd.best_edp:len"), Some(0.0));
        assert_eq!(s.value("dse.gd.best_edp:last"), None);
        assert_eq!(s.value("span:dse/run"), Some(900.0));
    }

    #[test]
    fn capture_lines_map_ids_to_ns_per_iter() {
        let s = Snapshot::parse(
            "{\"id\":\"vae_gd/b16\",\"ns_per_iter\":1823572.3}\n\
             {\"id\":\"nn/matmul\",\"ns_per_iter\":100.0}\n",
        )
        .unwrap();
        assert_eq!(s.value("vae_gd/b16"), Some(1823572.3));
        assert_eq!(s.values.len(), 2);
        assert!(Snapshot::parse("{\"id\":\"x\"}").is_err());
    }

    #[test]
    fn scrape_maps_unlabelled_samples_and_resolves_quantiles() {
        let s = Snapshot::parse(concat!(
            "# TYPE serve_http_requests counter\n",
            "serve_http_requests 12\n",
            "# TYPE lat_ns histogram\n",
            "lat_ns_bucket{le=\"1000\"} 9\n",
            "lat_ns_bucket{le=\"5000\"} 10\n",
            "lat_ns_bucket{le=\"+Inf\"} 10\n",
            "lat_ns_sum 12000\n",
            "lat_ns_count 10\n",
        ))
        .unwrap();
        assert_eq!(s.value("serve_http_requests"), Some(12.0));
        assert_eq!(s.value("lat_ns_count"), Some(10.0));
        assert_eq!(s.value("lat_ns:p50"), Some(1000.0));
        assert_eq!(s.value("lat_ns:p99.9"), Some(5000.0));
        assert_eq!(s.value("lat_ns_bucket"), None);
        assert_eq!(s.value("absent:p99"), None);
    }
}
