//! The serve workloads: an in-process `vaesa-serve` daemon (default
//! `CoreConfig` and `ServeConfig`) on a loopback port, under open-loop load.
//!
//! `serve_predict` sends Poisson `/predict` traffic at 40 req/s (phase A),
//! then sweeps fixed rates (phase B) for the highest one that meets the
//! latency limit. `serve_mixed` mixes `/predict`, `/decode`, `/search` and
//! job polls on the same daemon, so decode writes and search workers
//! compete with the request path for the two cores.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vaesa_accel::DesignSpace;
use vaesa_bench::Args;
use vaesa_serve::{SearchSpec, ServeConfig, ServeCore, Server};

use crate::host::Speed;
use crate::loadgen::{self, Kind, Outcome, Step, Task};
use crate::report::Report;
use crate::{replay, stats, Ctx};

/// Set-ups measured per run; the median is reported.
const SETUPS: usize = 3;
/// Phase A arrival rate, requests per second.
const PREDICT_RATE: f64 = 40.0;
/// Phase B offered rates, requests per second.
const SWEEP: [f64; 8] = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0];
/// Share of `/predict` requests that carry 16 rows; the rest carry one.
const BATCH_SHARE: f64 = 0.25;
/// `serve_mixed`: `/predict` and `/decode` rates, requests per second.
const MIXED_RATE: f64 = 10.0;
/// `serve_mixed`: one search is submitted this often, rotating engines.
const SEARCH_EVERY: Duration = Duration::from_secs(2);
const ENGINES: [&str; 3] = ["bo", "gd", "random"];
const SEARCH_BUDGET: u64 = 200;
const POLL_EVERY: Duration = Duration::from_millis(20);
/// Latent rows a `/decode` may repeat (the rest are fresh).
const HOT_ROWS: usize = 32;
/// Every this many answered requests, one span tree is fetched from the
/// daemon to split its time from the client's.
const LOOKUP_EVERY: usize = 10;

/// A seeded stream, independent per `stream` (the pipelines' derivation).
fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    Args {
        seed,
        ..Args::default()
    }
    .rng(stream)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `serve_predict` (or `serve_mixed` when `mixed`) for `ctx.seconds`.
pub fn run(ctx: &Ctx, mixed: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let (server, core) = setup(&mut report)?;
    let addr = server.addr();
    let result = if mixed {
        run_mixed(ctx, addr, &core, &mut report)
    } else {
        run_predict(ctx, addr, &core, &mut report)
    };
    stop(server);
    result.map(|()| report)
}

/// Builds the core and starts the daemon until `/healthz` answers, three
/// times; keeps the last daemon.
fn setup(report: &mut Report) -> Result<(Server, Arc<ServeCore>), String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let mut times = Vec::new();
    let mut speed = Speed::default();
    let mut running = None;
    for _ in 0..SETUPS {
        if let Some((server, _)) = running.take() {
            stop(server);
        }
        speed.sample();
        let start = Instant::now();
        let core = Arc::new(ServeCore::build(&config.core));
        let server = Server::start_with_core(config.clone(), Arc::clone(&core))
            .map_err(|e| format!("daemon start: {e}"))?;
        wait_healthy(server.addr())?;
        times.push(start.elapsed().as_secs_f64());
        speed.sample();
        running = Some((server, core));
    }
    let setup = stats::median(&times).unwrap_or(0.0);
    report.timing("setup_measured_s", setup, "s", SETUPS);
    report.timing(
        "host.kernel_ms",
        speed.kernel_s() * 1e3,
        "ms",
        speed.samples(),
    );
    report.timing("setup_s", speed.at_reference(setup), "s", SETUPS);
    running.ok_or_else(|| "no daemon started".to_string())
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(10) {
        if let Ok((200, _)) = vaesa_serve::http_request(&addr.to_string(), "GET", "/healthz", None)
        {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("daemon never answered /healthz".to_string())
}

fn stop(server: Server) {
    let _ = vaesa_serve::http_request(&server.addr().to_string(), "POST", "/shutdown", None);
    server.join();
}

/// `/predict` tasks at Poisson arrivals over `span`.
fn predict_tasks(rng: &mut ChaCha8Rng, rate: f64, span: Duration, deadline: Duration) -> Vec<Task> {
    let space = DesignSpace::paper();
    loadgen::poisson(rng, rate, span)
        .into_iter()
        .map(|due| {
            let rows = if rng.gen_bool(BATCH_SHARE) { 16 } else { 1 };
            let points: Vec<Vec<f64>> = (0..rows)
                .map(|_| space.raw_features(&space.random(rng)).to_vec())
                .collect();
            Task {
                due,
                deadline,
                kind: Kind::Predict { rows },
                raw: loadgen::request("POST", "/predict", &points_body(&points)),
            }
        })
        .collect()
}

fn points_body(points: &[Vec<f64>]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            let cells: Vec<String> = p.iter().map(f64::to_string).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("{{\"points\":[{}]}}", rows.join(","))
}

/// Checks an outcome: `Err((wrong_output, why))` when it failed.
fn verdict(o: &Outcome) -> Result<(), (bool, String)> {
    let reply = match &o.reply {
        Err(e) => return Err((false, e.clone())),
        Ok(r) if !(200..300).contains(&r.status) => {
            return Err((false, format!("HTTP {}: {}", r.status, r.body)))
        }
        Ok(r) => r,
    };
    let body = serde_json::parse_value(&reply.body)
        .map_err(|e| (true, format!("unparsable body: {e}")))?;
    let wrong = |why: String| Err((true, why));
    match &o.task.kind {
        Kind::Predict { rows } => {
            let Some(Value::Seq(preds)) = body.get("predictions") else {
                return wrong("no predictions".to_string());
            };
            if preds.len() != *rows {
                return wrong(format!("{} predictions for {rows} rows", preds.len()));
            }
            let fields = [
                "latency",
                "energy",
                "edp",
                "gp_log_edp_mean",
                "gp_log_edp_std",
            ];
            let finite = preds.iter().all(|p| {
                fields
                    .iter()
                    .all(|f| p.get(f).and_then(Value::as_f64).is_some_and(f64::is_finite))
            });
            if !finite {
                return wrong("a prediction is missing or not finite".to_string());
            }
        }
        Kind::Decode => {
            let Some(Value::Seq(designs)) = body.get("designs") else {
                return wrong("no designs".to_string());
            };
            if designs.len() != 1 || !matches!(designs[0].get("arch"), Some(Value::Map(_))) {
                return wrong("decode did not return one arch".to_string());
            }
        }
        Kind::Submit { .. } => {
            if body.get("job").and_then(Value::as_u64).is_none() {
                return wrong("search submission without a job id".to_string());
            }
        }
        Kind::Poll { budget, .. } => match job_status(&body) {
            Some("done") => {
                let evals = body
                    .get("result")
                    .and_then(|r| r.get("evals"))
                    .and_then(Value::as_u64);
                if evals != Some(*budget) {
                    return wrong(format!("job finished {evals:?} evals of {budget}"));
                }
            }
            Some("queued" | "running") => {}
            other => return wrong(format!("job status {other:?}")),
        },
    }
    Ok(())
}

/// Counts every outcome as attempted and records its failure, if any.
fn tally(outcomes: &[Outcome], report: &mut Report) {
    for o in outcomes {
        report.attempted += 1;
        match verdict(o) {
            Ok(()) => {}
            Err((true, why)) => report.mismatch(why),
            Err((false, why)) => report.fail(why),
        }
    }
}

/// Latencies (ms) of the answered, valid outcomes `pick` selects.
fn latencies(outcomes: &[Outcome], pick: impl Fn(&Kind) -> bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| pick(&o.task.kind) && verdict(o).is_ok())
        .map(|o| ms(o.latency()))
        .collect()
}

/// Reports the median and the highest supported tail of `xs` as
/// `<prefix>_p50_ms` and `<prefix>_p<NN>_ms`.
fn timings(report: &mut Report, prefix: &str, xs: &[f64]) {
    if let Some(p50) = stats::median(xs) {
        report.timing(&format!("{prefix}_p50_ms"), p50, "ms", xs.len());
    }
    if let Some((q, label)) = stats::tail(xs.len()) {
        let v = stats::nearest_rank(xs, q).unwrap_or(0.0);
        report.timing(&format!("{prefix}_{label}_ms"), v, "ms", xs.len());
    }
}

fn record_phase(report: &mut Report, phase: &str, outcomes: &[Outcome]) {
    let s = loadgen::phase_stats(outcomes);
    report.metric(
        &format!("loadgen.{phase}.scheduled"),
        s.scheduled as f64,
        "count",
    );
    report.metric(&format!("loadgen.{phase}.sent"), s.sent as f64, "count");
    report.metric(&format!("loadgen.{phase}.late_p99_ms"), s.late_p99_ms, "ms");
}

fn no_follow(_: &Outcome) -> Option<Task> {
    None
}

fn run_predict(
    ctx: &Ctx,
    addr: SocketAddr,
    core: &ServeCore,
    report: &mut Report,
) -> Result<(), String> {
    let total = ctx.seconds.as_secs_f64();
    let sweep_span = Duration::from_secs_f64(total * 0.4);
    // The traced run splits phase A: an untraced half as the reference for
    // the tracing overhead, then a traced half for the per-layer numbers.
    let halves: &[bool] = if ctx.trace { &[false, true] } else { &[false] };
    let a_span = Duration::from_secs_f64(total * 0.6 / halves.len() as f64);
    let mut p50 = Vec::new();
    let mut main = Vec::new();
    for (i, &traced) in halves.iter().enumerate() {
        let tasks = predict_tasks(
            &mut rng(ctx.seed, i as u64),
            PREDICT_RATE,
            a_span,
            a_span + Duration::from_secs(1),
        );
        let probe = Probe::before(core);
        ctx.tracer.set(traced);
        let outcomes = loadgen::run(addr, Instant::now(), tasks, &ctx.tracer, &no_follow);
        ctx.tracer.set(false);
        tally(&outcomes, report);
        let lat = latencies(&outcomes, |_| true);
        p50.push(stats::median(&lat).unwrap_or(0.0));
        if traced {
            probe.after(ctx, addr, core, &outcomes, report);
        } else {
            timings(report, "predict", &lat);
            report.timing("latency_p50_ms", p50[0], "ms", lat.len());
        }
        main = outcomes;
    }
    record_phase(report, "main", &main);

    // Phase B: every step runs; a request unsent at step end is a miss.
    ctx.tracer.set(ctx.trace);
    let step_span = sweep_span / SWEEP.len() as u32;
    let mut steps = Vec::new();
    let mut sweep = Vec::new();
    for (k, rate) in SWEEP.into_iter().enumerate() {
        let tasks = predict_tasks(
            &mut rng(ctx.seed, 100 + k as u64),
            rate,
            step_span,
            step_span,
        );
        let outcomes = loadgen::run(addr, Instant::now(), tasks, &ctx.tracer, &no_follow);
        let step = Step::judge(rate, step_span, &outcomes, |o| verdict(o).is_ok());
        report.metric(
            &format!("sweep.{rate}rps.within_frac"),
            step.within as f64 / step.scheduled.max(1) as f64,
            "ratio",
        );
        steps.push(step);
        sweep.extend(outcomes);
    }
    ctx.tracer.set(false);
    let max_rps = loadgen::max_rate(&steps);
    report.metric("predict_max_rps", max_rps, "req/s");
    report.metric("loadgen.max_rps", max_rps, "req/s");
    record_phase(report, "sweep", &sweep);
    if ctx.trace {
        report.metric("trace_overhead_frac", p50[1] / p50[0] - 1.0, "ratio");
        replays(ctx, core, &main, report);
        attribute(report);
    }
    Ok(())
}

fn run_mixed(
    ctx: &Ctx,
    addr: SocketAddr,
    core: &ServeCore,
    report: &mut Report,
) -> Result<(), String> {
    let halves: &[bool] = if ctx.trace { &[false, true] } else { &[false] };
    let span = ctx.seconds / halves.len() as u32;
    let hot = latent_rows(&mut rng(ctx.seed, 50), core.latent_dim(), HOT_ROWS);
    let mut p50 = Vec::new();
    for (i, &traced) in halves.iter().enumerate() {
        let tasks = mixed_tasks(ctx.seed, i as u64, span, core.latent_dim(), &hot);
        let grace = span + Duration::from_secs(10);
        let follow = move |o: &Outcome| poll_after(o, grace);
        let probe = Probe::before(core);
        ctx.tracer.set(traced);
        let outcomes = loadgen::run(addr, Instant::now(), tasks, &ctx.tracer, &follow);
        ctx.tracer.set(false);
        tally(&outcomes, report);
        let requests = latencies(&outcomes, |k| {
            matches!(k, Kind::Predict { .. } | Kind::Decode)
        });
        p50.push(stats::median(&requests).unwrap_or(0.0));
        // A job is done at the first poll that sees it done.
        let jobs: Vec<(&'static str, f64)> = outcomes
            .iter()
            .filter(|o| verdict(o).is_ok())
            .filter_map(|o| match (&o.task.kind, reply_status(o).as_deref()) {
                (
                    Kind::Poll {
                        engine, submitted, ..
                    },
                    Some("done"),
                ) => Some((*engine, o.done.saturating_sub(*submitted).as_secs_f64())),
                _ => None,
            })
            .collect();
        record_phase(report, "main", &outcomes);
        if traced {
            probe.after(ctx, addr, core, &outcomes, report);
            mixed_replays(ctx, core, &hot, &jobs, report);
            replays(ctx, core, &outcomes, report);
        } else {
            report.timing("latency_p50_ms", p50[0], "ms", requests.len());
            timings(
                report,
                "predict",
                &latencies(&outcomes, |k| matches!(k, Kind::Predict { .. })),
            );
            timings(
                report,
                "decode",
                &latencies(&outcomes, |k| matches!(k, Kind::Decode)),
            );
            let times: Vec<f64> = jobs.iter().map(|j| j.1).collect();
            if let Some(p) = stats::median(&times) {
                report.timing("search_job_p50_s", p, "s", times.len());
            }
        }
    }
    if ctx.trace {
        report.metric("trace_overhead_frac", p50[1] / p50[0] - 1.0, "ratio");
    }
    Ok(())
}

fn latent_rows(rng: &mut ChaCha8Rng, dim: usize, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.5..1.5)).collect())
        .collect()
}

/// `serve_mixed` traffic over `span`: Poisson `/predict` and `/decode`
/// arrivals plus one `/search` every [`SEARCH_EVERY`].
fn mixed_tasks(seed: u64, half: u64, span: Duration, dim: usize, hot: &[Vec<f64>]) -> Vec<Task> {
    let deadline = span + Duration::from_secs(1);
    let mut tasks = predict_tasks(&mut rng(seed, 10 + half), MIXED_RATE, span, deadline);
    let mut r = rng(seed, 20 + half);
    for due in loadgen::poisson(&mut r, MIXED_RATE, span) {
        let row = if r.gen_bool(0.5) {
            hot[r.gen_range(0..hot.len())].clone()
        } else {
            latent_rows(&mut r, dim, 1).remove(0)
        };
        tasks.push(Task {
            due,
            deadline,
            kind: Kind::Decode,
            raw: loadgen::request("POST", "/decode", &points_body(&[row])),
        });
    }
    let mut due = SEARCH_EVERY / 2;
    let mut n = 0;
    while due < span {
        let engine = ENGINES[n % ENGINES.len()];
        let body = format!(
            "{{\"engine\":\"{engine}\",\"mode\":\"latent\",\"budget\":{SEARCH_BUDGET},\"seed\":{}}}",
            seed * 1000 + half * 100 + n as u64
        );
        tasks.push(Task {
            due,
            deadline,
            kind: Kind::Submit {
                engine,
                budget: SEARCH_BUDGET,
            },
            raw: loadgen::request("POST", "/search", &body),
        });
        due += SEARCH_EVERY;
        n += 1;
    }
    tasks.sort_by_key(|t| t.due);
    tasks
}

/// A job's `status` field.
fn job_status(body: &Value) -> Option<&str> {
    match body.get("status") {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// The `status` field of a 2xx JSON reply.
fn reply_status(o: &Outcome) -> Option<String> {
    let body = serde_json::parse_value(&o.success()?.body).ok()?;
    job_status(&body).map(str::to_string)
}

/// The next `/jobs/<id>` poll after a submission or an unfinished poll.
fn poll_after(o: &Outcome, deadline: Duration) -> Option<Task> {
    let (job, engine, budget, submitted) = match &o.task.kind {
        Kind::Submit { engine, budget } => {
            let body = serde_json::parse_value(&o.success()?.body).ok()?;
            (body.get("job")?.as_u64()?, *engine, *budget, o.task.due)
        }
        Kind::Poll {
            job,
            engine,
            budget,
            submitted,
        } => match reply_status(o).as_deref() {
            Some("queued" | "running") => (*job, *engine, *budget, *submitted),
            _ => return None,
        },
        _ => return None,
    };
    Some(Task {
        due: o.task.due + POLL_EVERY,
        deadline,
        kind: Kind::Poll {
            job,
            engine,
            budget,
            submitted,
        },
        raw: loadgen::request("GET", &format!("/jobs/{job}"), ""),
    })
}

/// The daemon-side instruments read around a traced phase.
struct Probe {
    queue_wait_ns: u64,
    queue_waits: u64,
    batch_rows: f64,
    batches: u64,
    scheduler: vaesa_cosa::CacheStats,
    counters: [u64; 3],
}

const PROBE_COUNTERS: [(&str, &str); 3] = [
    ("dse.evals", "dse.evals"),
    ("dse.decodes", "dse.decodes"),
    ("dse.gp_fits", "dse.gp.fits"),
];

impl Probe {
    fn before(core: &ServeCore) -> Probe {
        let registry = vaesa_obs::global();
        let wait = registry.latency_histogram("serve.coalesce.predict.queue_wait_ns");
        let sizes = registry.histogram("serve.coalesce.predict.batch_size");
        let summary = sizes.summary();
        Probe {
            queue_wait_ns: wait.sum_ns(),
            queue_waits: wait.count(),
            batch_rows: summary.map_or(0.0, |s| s.mean * s.count as f64),
            batches: sizes.count(),
            scheduler: core.scheduler().cache_stats(),
            counters: PROBE_COUNTERS.map(|(_, c)| registry.counter(c).get()),
        }
    }

    /// Records the per-layer numbers of the phase that produced `outcomes`.
    fn after(
        &self,
        ctx: &Ctx,
        addr: SocketAddr,
        core: &ServeCore,
        outcomes: &[Outcome],
        report: &mut Report,
    ) {
        let now = Probe::before(core);
        let waits = (now.queue_waits - self.queue_waits).max(1);
        report.metric(
            "serve.coalesce_wait_ms",
            (now.queue_wait_ns - self.queue_wait_ns) as f64 / waits as f64 * 1e-6,
            "ms",
        );
        let batches = (now.batches - self.batches).max(1);
        report.metric(
            "serve.batch_rows",
            (now.batch_rows - self.batch_rows) / batches as f64,
            "rows",
        );
        let (s0, s1) = (self.scheduler, now.scheduler);
        let (hits, misses) = (s1.hits - s0.hits, s1.misses - s0.misses);
        report.metric("cosa.hits", hits as f64, "count");
        report.metric("cosa.misses", misses as f64, "count");
        report.metric(
            "cosa.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        report.metric(
            "cosa.evictions",
            (s1.evictions - s0.evictions) as f64,
            "count",
        );
        for (i, (metric, _)) in PROBE_COUNTERS.iter().enumerate() {
            report.metric(metric, (now.counters[i] - self.counters[i]) as f64, "count");
        }

        let requests: Vec<&Outcome> = outcomes
            .iter()
            .filter(|o| matches!(o.task.kind, Kind::Predict { .. } | Kind::Decode))
            .filter(|o| verdict(o).is_ok())
            .collect();
        let pick = |f: &dyn Fn(&Outcome) -> f64| -> f64 {
            let xs: Vec<f64> = requests.iter().map(|o| f(o)).collect();
            stats::median(&xs).unwrap_or(0.0)
        };
        report.metric(
            "serve.connect_us",
            pick(&|o| o.connect.as_secs_f64() * 1e6),
            "us",
        );
        report.metric("serve.ttfb_ms", pick(&|o| ms(o.ttfb)), "ms");
        let (handler, accept_wait) = server_view(ctx, addr, &requests);
        report.timing(
            "serve.handler_ms",
            stats::median(&handler).unwrap_or(0.0),
            "ms",
            handler.len(),
        );
        report.timing(
            "serve.accept_wait_ms",
            stats::median(&accept_wait).unwrap_or(0.0),
            "ms",
            accept_wait.len(),
        );
        report.metric("traced.latency_p50_ms", pick(&|o| ms(o.latency())), "ms");
    }
}

/// The daemon's own duration for every [`LOOKUP_EVERY`]th of the most
/// recent answered requests (its span-tree ring keeps the last 256 of all
/// requests, polls included), and the client's wait beyond it:
/// `(handler ms, ttfb − handler ms)`.
fn server_view(ctx: &Ctx, addr: SocketAddr, requests: &[&Outcome]) -> (Vec<f64>, Vec<f64>) {
    let recent = &requests[requests.len().saturating_sub(150)..];
    let mut handler = Vec::new();
    let mut accept_wait = Vec::new();
    for o in recent.iter().step_by(LOOKUP_EVERY) {
        let Some(id) = o.success().and_then(|r| r.request_id.as_deref()) else {
            continue;
        };
        let path = format!("/metrics/requests/{id}");
        let reply = ctx.tracer.time("bench/lookup", || {
            vaesa_serve::http_request(&addr.to_string(), "GET", &path, None)
        });
        let Ok((200, body)) = reply else { continue };
        let Some(ns) = serde_json::parse_value(&body)
            .ok()
            .and_then(|v| v.get("dur_ns").and_then(Value::as_f64))
        else {
            continue;
        };
        handler.push(ns * 1e-6);
        accept_wait.push(ms(o.ttfb) - ns * 1e-6);
    }
    (handler, accept_wait)
}

/// Replays of the request path, at the sizes the benchmark sent.
fn replays(ctx: &Ctx, core: &ServeCore, outcomes: &[Outcome], report: &mut Report) {
    let space = DesignSpace::paper();
    let mut r = rng(ctx.seed, 60);
    let rows = |n: usize, r: &mut ChaCha8Rng| -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| space.raw_features(&space.random(r)).to_vec())
            .collect()
    };
    let one = rows(1, &mut r);
    let sixteen = rows(16, &mut r);
    let t = &ctx.tracer;
    report.metric(
        "serve.predict_compute_us.rows1",
        replay::predict_compute_us(t, core, &one),
        "us",
    );
    report.metric(
        "serve.predict_compute_us.rows16",
        replay::predict_compute_us(t, core, &sixteen),
        "us",
    );
    let raws: Vec<Vec<u8>> = outcomes
        .iter()
        .take(64)
        .map(|o| o.task.raw.clone())
        .collect();
    if !raws.is_empty() {
        report.metric("serve.http_parse_us", replay::http_parse_us(t, &raws), "us");
    }
    report.metric("serve.respond_us", replay::respond_us(t, core, &one), "us");
    report.metric(
        "obs.request_telemetry_us",
        replay::request_telemetry_us(t),
        "us",
    );
}

/// Replays of the decode and search paths, and each job's wait beyond its
/// replayed compute.
fn mixed_replays(
    ctx: &Ctx,
    core: &ServeCore,
    hot: &[Vec<f64>],
    jobs: &[(&str, f64)],
    report: &mut Report,
) {
    let t = &ctx.tracer;
    let fresh = latent_rows(&mut rng(ctx.seed, 70), core.latent_dim(), 200);
    report.metric(
        "serve.decode_compute_us.hot",
        replay::decode_compute_us(t, core, hot, true),
        "us",
    );
    report.metric(
        "serve.decode_compute_us.fresh",
        replay::decode_compute_us(t, core, &fresh, false),
        "us",
    );
    report.metric(
        "cosa.schedule_miss_us",
        replay::schedule_miss_us(t, ctx.seed, core.layers()),
        "us",
    );
    let mut compute = std::collections::BTreeMap::new();
    for engine in ENGINES {
        let spec = SearchSpec {
            engine: engine.to_string(),
            mode: "latent".to_string(),
            budget: SEARCH_BUDGET as usize,
            seed: ctx.seed * 1000 + 999,
        };
        let s = replay::search_compute_s(t, core, &spec);
        report.metric(&format!("serve.search_compute_s.{engine}"), s, "s");
        compute.insert(engine, s);
    }
    let waits: Vec<f64> = jobs.iter().map(|(e, s)| s - compute[e]).collect();
    report.timing(
        "serve.job_wait_s",
        stats::median(&waits).unwrap_or(0.0),
        "s",
        waits.len(),
    );
}

/// How much of the traced `/predict` median the daemon's admission path
/// explains: accept wait plus coalescing wait, against the median latency.
fn attribute(report: &mut Report) {
    let get = |n: &str| report.get(n).unwrap_or(0.0);
    let p50 = get("traced.latency_p50_ms");
    let waiting = get("serve.accept_wait_ms") + get("serve.coalesce_wait_ms");
    report.metric(
        "predict_p50_attributed_to_waits",
        waiting / p50.max(f64::MIN_POSITIVE),
        "ratio",
    );
}
