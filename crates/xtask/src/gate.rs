//! `xtask gate`: one declarative threshold engine over a [`Snapshot`].
//!
//! A rules file holds one rule per line; `#` starts a comment:
//!
//! ```text
//! dse.evals == meta.dse.expected_evals     # another metric
//! serve_predict_latency_ns:p99 <= 3e10     # a finite constant
//! span:bench/train <= baseline * 1.25      # same name in --baseline
//! meta.precision == "f32"                  # a meta string
//! dse.*.best_edp:len >= 1                  # every match, at least one
//! ```
//!
//! The left side is a metric name, optionally with `*` globs. The
//! operator is one of `<=`, `<`, `>=`, `>`, `==`. An absent metric fails
//! its rule; it is never skipped. A glob must match at least one metric,
//! and a match with no counterpart in the baseline is reported as new
//! rather than failed, so a freshly added benchmark needs no baseline.

use crate::snapshot::{split_quantile, Snapshot};
use std::fmt::Write as _;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `==`
    Eq,
}

impl Op {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "<=" => Op::Le,
            "<" => Op::Lt,
            ">=" => Op::Ge,
            ">" => Op::Gt,
            "==" => Op::Eq,
            _ => return None,
        })
    }

    fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Op::Le => lhs <= rhs,
            Op::Lt => lhs < rhs,
            Op::Ge => lhs >= rhs,
            Op::Gt => lhs > rhs,
            Op::Eq => lhs == rhs,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Le => "<=",
            Op::Lt => "<",
            Op::Ge => ">=",
            Op::Gt => ">",
            Op::Eq => "==",
        }
    }
}

/// The right-hand side of a rule.
#[derive(Debug, Clone, PartialEq)]
enum Rhs {
    /// A finite constant.
    Const(f64),
    /// Another metric of the same snapshot.
    Metric(String),
    /// The same name in the baseline snapshot, times a finite factor.
    Baseline(f64),
    /// A quoted string compared against a meta entry (`==` only).
    Text(String),
}

/// One parsed rule line.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name as written, possibly with `*` globs.
    metric: String,
    op: Op,
    rhs: Rhs,
}

fn finite(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        Ok(_) => Err(format!("constant {raw:?} is not finite")),
        Err(_) => Err(format!("unparseable number {raw:?}")),
    }
}

fn parse_rhs(raw: &str) -> Result<Rhs, String> {
    if let Some(body) = raw.strip_prefix('"') {
        let text = body
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {raw:?}"))?;
        return Ok(Rhs::Text(text.to_string()));
    }
    if raw == "baseline" {
        return Ok(Rhs::Baseline(1.0));
    }
    if let Some(factor) = raw
        .strip_prefix("baseline")
        .and_then(|r| r.trim_start().strip_prefix('*'))
    {
        return Ok(Rhs::Baseline(finite(factor.trim())?));
    }
    if raw.parse::<f64>().is_ok() {
        return Ok(Rhs::Const(finite(raw)?));
    }
    if raw.contains(char::is_whitespace) || raw.contains('*') {
        return Err(format!(
            "expected a number, metric, string or `baseline [* k]`, got {raw:?}"
        ));
    }
    Ok(Rhs::Metric(raw.to_string()))
}

/// The part of `line` before a `#` that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut quoted = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => quoted = !quoted,
            '#' if !quoted => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_rule(code: &str) -> Result<Rule, String> {
    let malformed = || format!("expected `<metric>[:pNN] <op> <rhs>`, got {code:?}");
    let (metric, rest) = code.split_once(char::is_whitespace).ok_or_else(malformed)?;
    let (op, rhs) = rest
        .trim_start()
        .split_once(char::is_whitespace)
        .ok_or_else(malformed)?;
    let op = Op::parse(op).ok_or_else(|| format!("unknown operator {op:?}"))?;
    if let Some((_, pct)) = split_quantile(metric) {
        if !(0.0..=100.0).contains(&pct) {
            return Err(format!("quantile of {metric:?} is outside [0, 100]"));
        }
    }
    let rhs = parse_rhs(rhs.trim())?;
    if let Rhs::Text(_) = rhs {
        if op != Op::Eq || !metric.starts_with("meta.") {
            return Err(format!(
                "a string compares a `meta.<key>` with `==`, got {code:?}"
            ));
        }
    }
    Ok(Rule {
        metric: metric.to_string(),
        op,
        rhs,
    })
}

/// Parses a rules file.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let code = strip_comment(line).trim();
        if !code.is_empty() {
            rules.push(parse_rule(code).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
    }
    Ok(rules)
}

/// Whether `name` matches `pattern`, where `*` matches any run of
/// characters.
fn glob_match(pattern: &str, name: &str) -> bool {
    let Some((head, rest)) = pattern.split_once('*') else {
        return pattern == name;
    };
    let Some(tail) = name.strip_prefix(head) else {
        return false;
    };
    (0..=tail.len())
        .filter(|&i| tail.is_char_boundary(i))
        .any(|i| glob_match(rest, &tail[i..]))
}

/// The verdict on one metric a rule selects.
enum Verdict {
    Ok(String),
    Fail(String),
    /// A glob match with no baseline counterpart.
    New(String),
}

fn compare(name: &str, got: f64, op: Op, want: f64, rhs: &str) -> Verdict {
    let sym = op.symbol();
    if op.holds(got, want) {
        Verdict::Ok(format!("{name} = {got} {sym} {rhs}"))
    } else {
        Verdict::Fail(format!("{name} = {got}, want {sym} {rhs}"))
    }
}

fn check_one(rule: &Rule, name: &str, current: &Snapshot, baseline: Option<&Snapshot>) -> Verdict {
    let absent = || Verdict::Fail(format!("{name} is absent from the snapshot"));
    if let Rhs::Text(want) = &rule.rhs {
        return match current.meta.get(name) {
            Some(got) if got == want => Verdict::Ok(format!("{name} = {got:?}")),
            Some(got) => Verdict::Fail(format!("{name} = {got:?}, want == {want:?}")),
            None => absent(),
        };
    }
    let Some(got) = current.value(name) else {
        return absent();
    };
    match &rule.rhs {
        Rhs::Const(bound) => compare(name, got, rule.op, *bound, &bound.to_string()),
        Rhs::Metric(other) => match current.value(other) {
            Some(want) => compare(name, got, rule.op, want, &format!("{other} = {want}")),
            None => Verdict::Fail(format!("{name}: {other} is absent from the snapshot")),
        },
        Rhs::Baseline(k) => match baseline.map(|b| b.value(name)) {
            None => Verdict::Fail(format!("{name}: `baseline` needs --baseline")),
            Some(None) if rule.metric.contains('*') => {
                Verdict::New(format!("{name} = {got} (no baseline)"))
            }
            Some(None) => Verdict::Fail(format!("{name} is absent from the baseline")),
            Some(Some(base)) => {
                let delta = (got / base - 1.0) * 100.0;
                let rhs = format!("baseline {base} * {k} ({delta:+.1}%)");
                compare(name, got, rule.op, base * k, &rhs)
            }
        },
        Rhs::Text(_) => unreachable!("string rules return above"),
    }
}

/// Checks every rule against `current` (and `baseline`, for rules that
/// name it) and returns the full report: one `ok`, `FAIL` or `new` line
/// per checked metric.
///
/// # Errors
///
/// Returns the same report, headed by the failure count, when any check
/// fails.
pub fn check(
    rules: &[Rule],
    current: &Snapshot,
    baseline: Option<&Snapshot>,
) -> Result<String, String> {
    let mut report = String::new();
    let (mut checked, mut failed) = (0usize, 0usize);
    for rule in rules {
        let pattern = rule.metric.as_str();
        let names: Vec<&str> = if !pattern.contains('*') {
            vec![pattern]
        } else {
            let keys: Vec<&String> = match rule.rhs {
                Rhs::Text(_) => current.meta.keys().collect(),
                _ => current.values.keys().collect(),
            };
            keys.into_iter()
                .map(String::as_str)
                .filter(|n| glob_match(pattern, n))
                .collect()
        };
        let verdicts = if names.is_empty() {
            vec![Verdict::Fail(format!("{pattern}: no metric matches"))]
        } else {
            names
                .iter()
                .map(|n| check_one(rule, n, current, baseline))
                .collect()
        };
        for v in verdicts {
            let (tag, text) = match v {
                Verdict::Ok(t) => {
                    checked += 1;
                    ("ok  ", t)
                }
                Verdict::Fail(t) => {
                    checked += 1;
                    failed += 1;
                    ("FAIL", t)
                }
                Verdict::New(t) => ("new ", t),
            };
            let _ = writeln!(report, "  {tag} {text}");
        }
    }
    if failed == 0 {
        Ok(format!("{checked} checks passed\n{report}"))
    } else {
        Err(format!("{failed} of {checked} checks failed\n{report}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = concat!(
        "{\"record\":\"run\",\"meta\":{\"dse.expected_evals\":\"288\",\"precision\":\"f32\"}}\n",
        "{\"record\":\"counter\",\"name\":\"dse.evals\",\"value\":288}\n",
        "{\"record\":\"gauge\",\"name\":\"scheduler.hit_rate\",\"value\":0.12}\n",
        "{\"record\":\"series\",\"name\":\"dse.bo.best_edp\",\"values\":[3,2,1]}\n",
        "{\"record\":\"span\",\"path\":\"bench/train\",\"count\":1,\"wall_ns_total\":4000,\"cpu_ns_total\":0}\n",
    );

    const MANIFEST_RULES: &str = "\
        dse.evals == meta.dse.expected_evals\n\
        scheduler.hit_rate > 0\n\
        dse.*.best_edp:len >= 1\n";

    fn gate(rules: &str, current: &str, baseline: Option<&str>) -> Result<String, String> {
        let rules = parse_rules(rules).unwrap();
        let current = Snapshot::parse(current).unwrap();
        let baseline = baseline.map(|b| Snapshot::parse(b).unwrap());
        check(&rules, &current, baseline.as_ref())
    }

    #[test]
    fn rules_parse_every_rhs_form_and_trailing_comments() {
        let rules = parse_rules(concat!(
            "# comment\n",
            "\n",
            "lat:p99 <= 2.5e8   # trailing comment\n",
            "dse.evals == meta.dse.expected_evals\n",
            "span:dse/run <= baseline * 1.25\n",
            "x >= baseline\n",
            "meta.tag == \"a # b\"\n",
        ))
        .unwrap();
        let rhs: Vec<_> = rules.iter().map(|r| r.rhs.clone()).collect();
        assert_eq!(
            rhs,
            vec![
                Rhs::Const(2.5e8),
                Rhs::Metric("meta.dse.expected_evals".into()),
                Rhs::Baseline(1.25),
                Rhs::Baseline(1.0),
                Rhs::Text("a # b".into()),
            ]
        );
        assert_eq!(rules[0].metric, "lat:p99");
        assert_eq!(rules[0].op, Op::Le);
        assert_eq!(rules[1].op, Op::Eq);
    }

    #[test]
    fn malformed_rules_name_their_line() {
        for bad in [
            "a b c d",
            "a != 1",
            "a <= inf",
            "a <= NaN",
            "a <= baseline * inf",
            "a <= baseline * x",
            "a:p101 <= 1",
            "meta.x <= \"f32\"",
            "x == \"f32\"",
            "meta.x == \"f32",
            "a <=",
        ] {
            let err = parse_rules(&format!("# ok\n{bad}\n")).expect_err(bad);
            assert!(err.starts_with("line 2:"), "{bad}: {err}");
        }
    }

    #[test]
    fn manifest_invariants_pass_and_each_mutation_fails() {
        let report = gate(MANIFEST_RULES, MANIFEST, None).unwrap();
        assert!(report.starts_with("3 checks passed"), "{report}");
        for (from, to, why) in [
            ("\"value\":288", "\"value\":287", "dse.evals = 287"),
            ("0.12", "0", "scheduler.hit_rate = 0"),
            ("[3,2,1]", "[]", "dse.bo.best_edp:len = 0"),
            (
                "dse.bo.best_edp",
                "train.total",
                "dse.*.best_edp:len: no metric matches",
            ),
        ] {
            let err = gate(MANIFEST_RULES, &MANIFEST.replace(from, to), None).unwrap_err();
            assert!(err.starts_with("1 of "), "{err}");
            assert!(err.contains(&format!("FAIL {why}")), "{why}: {err}");
        }
    }

    #[test]
    fn absent_metrics_fail_rather_than_skip() {
        let err = gate("no.such.metric >= 0\nx == dse.evals\n", MANIFEST, None).unwrap_err();
        assert!(err.contains("FAIL no.such.metric is absent"), "{err}");
        assert!(err.contains("FAIL x is absent"), "{err}");
        let err = gate("dse.evals == no.such\n", MANIFEST, None).unwrap_err();
        assert!(err.contains("no.such is absent"), "{err}");
    }

    #[test]
    fn strings_compare_against_meta() {
        gate("meta.precision == \"f32\"\n", MANIFEST, None).unwrap();
        let f64_run = MANIFEST.replace("\"f32\"", "\"f64\"");
        let err = gate("meta.precision == \"f32\"\n", &f64_run, None).unwrap_err();
        assert!(
            err.contains("meta.precision = \"f64\", want == \"f32\""),
            "{err}"
        );
    }

    #[test]
    fn baseline_rules_scale_the_same_name_in_the_baseline() {
        let rules = "span:bench/train <= baseline * 1.25\n";
        let slower = MANIFEST.replace("4000", "5200");
        gate(rules, &MANIFEST.replace("4000", "4900"), Some(MANIFEST)).unwrap();
        let err = gate(rules, &slower, Some(MANIFEST)).unwrap_err();
        assert!(err.contains("FAIL span:bench/train = 5200"), "{err}");
        let err = gate(rules, MANIFEST, None).unwrap_err();
        assert!(err.contains("needs --baseline"), "{err}");
        let no_span = MANIFEST.replace("bench/train", "bench/other");
        let err = gate(rules, MANIFEST, Some(&no_span)).unwrap_err();
        assert!(err.contains("absent from the baseline"), "{err}");
    }

    #[test]
    fn glob_matches_without_a_baseline_are_new_not_failed() {
        let base = "{\"id\":\"g/a\",\"ns_per_iter\":100}\n{\"id\":\"g/gone\",\"ns_per_iter\":1}\n";
        let ok = "{\"id\":\"g/a\",\"ns_per_iter\":120}\n{\"id\":\"g/b\",\"ns_per_iter\":9}\n";
        let report = gate("* <= baseline * 1.25\n", ok, Some(base)).unwrap();
        assert!(report.starts_with("1 checks passed"), "{report}");
        assert!(report.contains("new  g/b = 9 (no baseline)"), "{report}");
        let slow = ok.replace("120", "130");
        let err = gate("* <= baseline * 1.25\n", &slow, Some(base)).unwrap_err();
        assert!(err.contains("FAIL g/a = 130"), "{err}");
    }

    #[test]
    fn quantile_rules_report_the_label_as_written() {
        let scrape = concat!(
            "# TYPE lat_ns histogram\n",
            "lat_ns_bucket{le=\"1000\"} 999\n",
            "lat_ns_bucket{le=\"5000\"} 1000\n",
            "lat_ns_bucket{le=\"+Inf\"} 1000\n",
            "lat_ns_sum 1\n",
            "lat_ns_count 1000\n",
        );
        let report = gate("lat_ns:p99 <= 1000\n", scrape, None).unwrap();
        assert!(report.contains("ok   lat_ns:p99 = 1000"), "{report}");
        let err = gate("lat_ns:p99.95 <= 1000\n", scrape, None).unwrap_err();
        assert!(err.contains("FAIL lat_ns:p99.95 = 5000"), "{err}");
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("dse.*.best_edp:len", "dse.vae_bo.best_edp:len"));
        assert!(!glob_match("dse.*.best_edp:len", "dse.bo.best_edp:last"));
        assert!(glob_match("a*b*c", "a-b-b-c"));
        assert!(!glob_match("a*b", "a-c"));
    }

    #[test]
    fn every_ci_rules_file_parses() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.github/gates");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).expect("rules directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rules") {
                let text = std::fs::read_to_string(&path).expect("read rules");
                let rules =
                    parse_rules(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(!rules.is_empty(), "{} declares no rules", path.display());
                files += 1;
            }
        }
        assert_eq!(files, 4, "manifest, precision, bench and serve rules");
    }
}
