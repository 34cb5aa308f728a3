//! `perfbench`: the end-to-end benchmark of the VAESA reproduction.
//!
//! One command runs the paper-figure pipelines and the `vaesa-serve` daemon
//! under load, checks their outputs, and prints every metric by name with
//! its unit; the last line of standard output is one JSON object:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload all --seed 0 [--seconds 25] [--trace 0|1] [--repeat N] [--json OUT]
//! ```
//!
//! Each workload run is a child process of its own, started with
//! `VAESA_THREADS=2`, an empty flow cache, no persistent evaluation cache,
//! f64 precision and one malloc arena, so no run inherits another's state.
//! Working files go under `.bench_run/` in the working directory. See
//! `README.md`.

mod host;
mod loadgen;
mod offline;
mod replay;
mod report;
mod serve;
mod stats;
mod tracer;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use report::{END_TO_END, PER_LAYER};
use tracer::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <offline_gd|offline_bo|serve_predict|serve_mixed|all> \
     [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--json OUT]";

const WORKLOADS: [&str; 4] = ["offline_gd", "offline_bo", "serve_predict", "serve_mixed"];

/// Set for a child process: the directory its flow cache and artifacts
/// go in.
const WORKDIR_ENV: &str = "PERFBENCH_WORKDIR";

/// Where the children's directories and the traces go, under the current
/// directory.
const RUN_DIR: &str = ".bench_run";

/// Parsed command line.
#[derive(Debug)]
struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    json: Option<PathBuf>,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 0,
        seconds: 25,
        trace: false,
        repeat: 1,
        json: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads = match name.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    _ => vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds needs a positive integer")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--repeat" => {
                opts.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat needs a positive integer")?
            }
            "--json" => opts.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

/// What a workload run needs.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// This run's working directory.
    pub workdir: PathBuf,
    /// The traced run's recorder.
    pub tracer: Tracer,
}

/// Empties `dir`, creating it if needed.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match std::env::var_os(WORKDIR_ENV) {
        Some(workdir) => child(&opts, PathBuf::from(workdir)),
        None => parent(&opts),
    }
}

/// Runs one workload in this process and prints its report.
fn child(opts: &Options, workdir: PathBuf) -> ExitCode {
    let tracer = Tracer::new();
    let workload = opts.workloads[0];
    let ctx = Ctx {
        seed: opts.seed,
        seconds: Duration::from_secs(opts.seconds),
        trace: opts.trace,
        workdir,
        tracer,
    };
    let result = match workload {
        "offline_gd" => offline::run(&ctx, &offline::FIG12),
        "offline_bo" => offline::run(&ctx, &offline::FIG11),
        "serve_predict" => serve::run(&ctx, false),
        _ => serve::run(&ctx, true),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rss = vaesa_obs::peak_rss_bytes().unwrap_or(0);
    report.metric("peak_rss_mb", rss as f64 / 1e6, "MB");
    if opts.trace {
        let path = trace_path(&ctx.workdir, workload);
        match ctx.tracer.write(&path) {
            Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
            Err(e) => report.fail(format!("trace {}: {e}", path.display())),
        }
    }
    print!("{}", report.render(opts.trace));
    if report.correct() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_path(workdir: &Path, workload: &str) -> PathBuf {
    let root = workdir.parent().unwrap_or(Path::new("."));
    root.join(format!("trace-{workload}.json"))
}

/// One child's result line, parsed.
struct RunResult {
    workload: &'static str,
    line: String,
    ok: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs every requested workload `repeat` times, each in a child process,
/// and prints the summary.
fn parent(opts: &Options) -> ExitCode {
    let root = match std::env::current_dir() {
        Ok(dir) => dir.join(RUN_DIR),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    for &workload in &opts.workloads {
        for r in 0..opts.repeat {
            let workdir = root.join(format!("{}-{workload}-{r}", std::process::id()));
            let result = spawn(opts, workload, &workdir);
            let _ = std::fs::remove_dir_all(&workdir);
            match result {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("perfbench: {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let last = match results.as_slice() {
        [single] => single.line.clone(),
        _ => {
            for r in &results {
                println!("{}", r.line);
            }
            summarize(opts, &results)
        }
    };
    if let Some(path) = &opts.json {
        let runs: Vec<String> = results
            .iter()
            .map(|o| format!("{{\"workload\":\"{}\",\"result\":{}}}", o.workload, o.line))
            .collect();
        let doc = format!("{{\"runs\":[{}],\"summary\":{last}}}\n", runs.join(","));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("perfbench: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{last}");
    if results.iter().all(|r| r.ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one child, relaying its output except its result line.
fn spawn(opts: &Options, workload: &'static str, workdir: &Path) -> Result<RunResult, String> {
    fresh_dir(&workdir.join("flow"))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .env(WORKDIR_ENV, workdir)
        .env("VAESA_THREADS", "2")
        .env("VAESA_FLOW_CACHE", workdir.join("flow"))
        .env("VAESA_PRECISION", "f64")
        // One malloc arena: peak RSS then tracks the program's allocations
        // instead of which per-thread arena each short-lived thread drew.
        .env("MALLOC_ARENA_MAX", "1")
        .env_remove("VAESA_EVAL_CACHE")
        .env_remove("VAESA_TRACE")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().ok_or("child without stdout")?;
    let mut last = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("child output: {e}"))?;
        if let Some(previous) = last.replace(line) {
            println!("{previous}");
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let line = last.unwrap_or_default();
    let (ok, metrics) = match parse_result(&line) {
        Some((clean, metrics)) => (clean && status.success(), metrics),
        None => (false, Vec::new()),
    };
    if !status.success() && metrics.is_empty() {
        return Err(format!("child exited with {status} and no result"));
    }
    Ok(RunResult {
        workload,
        line,
        ok,
        metrics,
    })
}

/// `(correct and nothing failed, metrics)` from a result line.
fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let doc = serde_json::parse_value(line).ok()?;
    let correct = matches!(doc.get("correct"), Some(serde::Value::Bool(true)));
    let failed = doc.get("failed")?.as_u64()?;
    let serde::Value::Map(entries) = doc.get("metrics")? else {
        return None;
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some((correct && failed == 0, metrics))
}

/// Per workload and metric: median, quartiles and spreads across the
/// repeats, next to the metric's bound from `BENCHMARK.json`. Returns the
/// combined result line (medians).
fn summarize(opts: &Options, results: &[RunResult]) -> String {
    let bounds = bounds();
    let catalogue: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{:<14} {:<34} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    let mut combined = Vec::new();
    for &workload in &opts.workloads {
        let runs: Vec<&RunResult> = results.iter().filter(|r| r.workload == workload).collect();
        for &(name, unit) in catalogue {
            let xs: Vec<f64> = runs
                .iter()
                .filter_map(|o| o.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
                .collect();
            let Some((q1, med, q3)) = stats::quartiles(&xs) else {
                continue;
            };
            let (lo, hi) = xs
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            let rel = |d: f64| if med == 0.0 { 0.0 } else { d / med };
            let bound = bounds
                .iter()
                .find(|b| b.0 == name)
                .map_or("-".to_string(), |b| b.1.to_string());
            println!(
                "{workload:<14} {name:<34} {:>12} {:>12} {:>12} {:>9.4} {:>9.4} {bound:>6}",
                report::human(med),
                report::human(q1),
                report::human(q3),
                rel(q3 - q1),
                rel(hi - lo),
            );
            combined.push(format!(
                "\"{workload}.{name}\":{{\"value\":{med},\"unit\":\"{unit}\"}}"
            ));
        }
    }
    let failed = results.iter().filter(|r| !r.ok).count();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        results.len(),
        combined.join(",")
    )
}

/// `(metric, bound)` pairs from `BENCHMARK.json` in the working directory,
/// when it is there.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::parse_value(&text) else {
        return Vec::new();
    };
    let Some(serde::Value::Seq(metrics)) = doc.get("end_to_end") else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(
            |m| match (m.get("name"), m.get("bound").and_then(serde::Value::as_f64)) {
                (Some(serde::Value::Str(name)), Some(bound)) => Some((name.clone(), bound)),
                _ => None,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Report;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_single_runs_and_summaries() {
        let o = parse(args(
            "--workload serve_mixed --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workloads, vec!["serve_mixed"]);
        assert_eq!((o.seed, o.seconds, o.trace, o.repeat), (7, 12, true, 1));
        let o = parse(args("--workload all --repeat 5 --json out.json")).unwrap();
        assert_eq!(o.workloads, WORKLOADS.to_vec());
        assert_eq!((o.seed, o.seconds, o.trace, o.repeat), (0, 25, false, 5));
        assert_eq!(o.json, Some(PathBuf::from("out.json")));
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload all --trace 2",
            "--workload all --seconds 0",
            "--workload all --repeat",
            "--workload all --frobnicate",
        ] {
            assert!(parse(args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_lines_parse_back() {
        let mut r = Report::default();
        r.attempted = 3;
        r.metric("setup_s", 0.25, "s");
        r.metric("latency_p50_ms", 18.5, "ms");
        r.metric("peak_rss_mb", 90.0, "MB");
        let rendered = r.render(false);
        let line = rendered.lines().last().unwrap();
        let (ok, metrics) = parse_result(line).unwrap();
        assert!(ok);
        assert_eq!(metrics[1], ("latency_p50_ms".to_string(), 18.5));
        r.fail("timeout");
        let rendered = r.render(false);
        assert!(!parse_result(rendered.lines().last().unwrap()).unwrap().0);
        assert!(parse_result("not json").is_none());
    }
}
