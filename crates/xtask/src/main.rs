//! `xtask` — CI gate checker for the vaesa workspace.
//!
//! ```text
//! xtask gate --rules <file> <snapshot> [--baseline <snapshot>]
//! xtask determinism <dir-a> <dir-b>
//! xtask prom-check <snapshot.prom>
//! xtask trace-check <trace.json>
//! ```
//!
//! Exit status 0 on pass, 1 on gate failure, 2 on usage errors. Reports
//! go to stdout (pass) or stderr (fail).

use std::path::Path;
use std::process::ExitCode;
use vaesa_xtask::snapshot::Snapshot;
use vaesa_xtask::trace::ChromeTrace;
use vaesa_xtask::{determinism, gate, prom};

const USAGE: &str = "\
usage: xtask <command> [args]

  gate --rules <file> <snapshot> [--baseline <snapshot>]
      check every `metric[:pNN] <op> <rhs>` rule of the file against the
      snapshot: a run manifest.jsonl, a Prometheus scrape, or a
      VAESA_BENCH_JSON capture (detected from the first line). <op> is
      <=, <, >=, > or ==; <rhs> is a finite number, another metric,
      `baseline [* k]` (the same name in --baseline) or a quoted string
      (for meta.<key>). `*` globs the metric name. Absent metrics fail.

  determinism <dir-a> <dir-b>
      byte-compare result files and the deterministic manifest slice of
      the same figure run at two VAESA_THREADS settings

  prom-check <snapshot.prom>
      validate a scraped Prometheus snapshot: every sample under a
      declared counter, gauge or histogram family, cumulative histogram
      buckets ending at +Inf == _count

  trace-check <trace.json>
      validate a Chrome trace_event export: known phases, non-negative
      timestamps, balanced B/E pairs, at least one timed span";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "gate" => match parse_gate_args(rest) {
            Ok((rules, snapshot, baseline)) => run_gate(&rules, &snapshot, baseline.as_deref()),
            Err(e) => return usage_error(&e),
        },
        "determinism" => match rest {
            [a, b] => determinism::determinism(Path::new(a), Path::new(b)),
            _ => return usage_error("determinism takes exactly two directories"),
        },
        "prom-check" => match rest {
            [snapshot] => prom::prom_check(Path::new(snapshot)),
            _ => return usage_error("prom-check takes exactly one snapshot path"),
        },
        "trace-check" => match rest {
            [trace] => ChromeTrace::load(Path::new(trace)).and_then(|t| t.validate()),
            _ => return usage_error("trace-check takes exactly one trace.json path"),
        },
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return usage_error(&format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(report) => {
            println!("{command}: PASS");
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(report) => {
            eprintln!("{command}: FAIL");
            eprint!("{report}");
            if !report.ends_with('\n') {
                eprintln!();
            }
            ExitCode::FAILURE
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn run_gate(rules: &str, snapshot: &str, baseline: Option<&str>) -> Result<String, String> {
    let text = std::fs::read_to_string(rules).map_err(|e| format!("cannot read {rules}: {e}"))?;
    let rules_list = gate::parse_rules(&text).map_err(|e| format!("{rules}: {e}"))?;
    if rules_list.is_empty() {
        return Err(format!("{rules} declares no rules"));
    }
    let current = Snapshot::load(Path::new(snapshot))?;
    let baseline = baseline.map(|b| Snapshot::load(Path::new(b))).transpose()?;
    gate::check(&rules_list, &current, baseline.as_ref())
}

/// Parses `--rules FILE SNAPSHOT [--baseline SNAPSHOT]` in any order.
fn parse_gate_args(args: &[String]) -> Result<(String, String, Option<String>), String> {
    let (mut rules, mut snapshot, mut baseline) = (None, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--rules" => &mut rules,
            "--baseline" => &mut baseline,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => {
                if snapshot.replace(arg.clone()).is_some() {
                    return Err("gate takes exactly one snapshot path".into());
                }
                continue;
            }
        };
        let value = it.next().ok_or_else(|| format!("{arg} needs a path"))?;
        if slot.replace(value.clone()).is_some() {
            return Err(format!("{arg} given twice"));
        }
    }
    let rules = rules.ok_or("gate needs --rules <file>")?;
    let snapshot = snapshot.ok_or("gate needs a snapshot path")?;
    Ok((rules, snapshot, baseline))
}
