//! `vaesa-serve`: DSE-as-a-service over the trained VAESA latent space.
//!
//! A dependency-free daemon on [`std::net::TcpListener`] speaking just
//! enough HTTP/1.1 ([`http`]) to serve JSON endpoints:
//!
//! | Endpoint          | Method | Purpose                                          |
//! |-------------------|--------|--------------------------------------------------|
//! | `/healthz`        | GET    | Liveness + served dimensions                     |
//! | `/metrics`        | GET    | Prometheus text (default) or `?format=manifest`  |
//! | `/metrics/requests` | GET  | Recently finished request ids                    |
//! | `/metrics/requests/<id>` | GET | Span tree for one finished request          |
//! | `/predict`        | POST   | Head + GP batch prediction for raw hardware rows |
//! | `/decode`         | POST   | Latent rows → snapped designs + true EDP         |
//! | `/search`         | POST   | Enqueue an async [`DseDriver`] search job        |
//! | `/jobs/<id>`      | GET    | Poll a search job                                |
//! | `/shutdown`       | POST   | Graceful stop (finishes queued searches)         |
//!
//! Concurrent `/predict` and `/decode` requests are coalesced by the
//! admission queue ([`coalesce::Batcher`]) into single batched-model
//! invocations; `/search` jobs run on a bounded [`WorkerPool`].
//! All true evaluations funnel through one [`CachedScheduler`], so a
//! schedule computed for any tenant is a memo hit for every later one.
//!
//! The accept loop blocks in `accept()` and hands each connection to its
//! own handler thread, at most [`MAX_HANDLERS`] at once; a connection
//! past the cap is answered `503` with `Retry-After: 1` on the accept
//! thread and closed. Handlers give a stalled client 10 s per read or
//! write. `POST /shutdown` sets the stop flag and then connects
//! once to the daemon's own port (loopback when bound to a wildcard
//! address), which wakes the blocked accept into the graceful stop.
//!
//! Every connection is traced through a [`Telemetry`] hub: deterministic
//! request ids (echoed as `X-Request-Id`), per-endpoint latency
//! histograms and 60 s sliding windows, status-code counters, a JSONL
//! access log, and bounded span-tree retention — see `DESIGN.md` §2.13.
//!
//! [`DseDriver`]: vaesa::DseDriver
//! [`CachedScheduler`]: vaesa_cosa::CachedScheduler

pub mod cli;
pub mod client;
mod coalesce;
mod core;
pub mod http;
mod jobs;
pub mod telemetry;

pub use coalesce::{BatchInfo, Batcher, BatcherStats};
pub use core::{CoreConfig, Decoded, Prediction, ServeCore};
pub use jobs::{Job, JobStatus, JobTable, SearchSpec, SearchSummary, WorkerPool};
pub use telemetry::Telemetry;

use http::{read_request, Request, Response};
use serde::Value;
use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use vaesa_obs::RequestCtx;

/// Most connection handlers alive at once. The accept thread answers a
/// connection past the cap with `503` instead of spawning for it, so a
/// flood of stalled clients cannot grow threads without bound.
pub const MAX_HANDLERS: usize = 64;

/// How long a handler waits on a stalled client for one read or write.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Daemon configuration: bind address, concurrency, and the startup build
/// sizing ([`CoreConfig`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (reported by [`Server::addr`]).
    pub addr: String,
    /// Search worker threads.
    pub workers: usize,
    /// Coalescing window for `/predict` and `/decode` admission.
    pub window: Duration,
    /// Maximum jobs tracked at once (running + finished history).
    pub job_capacity: usize,
    /// JSONL access-log path (`None` disables access logging).
    pub access_log: Option<PathBuf>,
    /// Model/dataset build sizing.
    pub core: CoreConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8737".to_string(),
            workers: 2,
            window: Duration::from_millis(5),
            job_capacity: 64,
            access_log: None,
            core: CoreConfig::default(),
        }
    }
}

/// Everything a connection handler needs, shared behind one `Arc`.
struct ServeState {
    core: Arc<ServeCore>,
    predict: Batcher<Vec<f64>, Prediction>,
    decode: Batcher<Vec<f64>, Decoded>,
    jobs: Arc<JobTable>,
    pool: WorkerPool,
    telemetry: Telemetry,
    stop: AtomicBool,
    /// Where `/shutdown` connects to wake the blocked accept.
    wake: SocketAddr,
    /// Live connection handlers, counted by [`HandlerSlot`].
    handlers: AtomicUsize,
}

impl ServeState {
    fn new(core: Arc<ServeCore>, config: &ServeConfig, wake: SocketAddr) -> io::Result<Self> {
        let jobs = Arc::new(JobTable::new(config.job_capacity));
        let predict_core = Arc::clone(&core);
        let decode_core = Arc::clone(&core);
        let worker_core = Arc::clone(&core);
        // Request ids reuse the core seed, so a daemon restarted with the
        // same configuration mints the same id sequence.
        let telemetry = Telemetry::new(config.core.seed, config.access_log.as_deref())?;
        Ok(ServeState {
            predict: Batcher::named(config.window, "predict", move |rows| {
                predict_core.predict(rows)
            }),
            decode: Batcher::named(config.window, "decode", move |rows| {
                decode_core.decode(rows)
            }),
            pool: WorkerPool::spawn(config.workers, Arc::clone(&jobs), move |spec| {
                let _span = vaesa_obs::global().span("serve/job");
                worker_core.run_search(spec)
            }),
            core,
            jobs,
            telemetry,
            stop: AtomicBool::new(false),
            wake,
            handlers: AtomicUsize::new(0),
        })
    }

    /// Stops the daemon: sets the flag, then connects once so the accept
    /// loop, blocked in `accept()`, wakes up and sees it.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Err(e) = TcpStream::connect(self.wake) {
            // The loop still stops at the next connection it accepts.
            eprintln!("vaesa-serve: shutdown wake-up connect failed: {e}");
        }
    }
}

/// One live connection handler. Holding it counts toward
/// [`MAX_HANDLERS`]; dropping it, also while a panicking handler
/// unwinds, frees the slot.
struct HandlerSlot {
    state: Arc<ServeState>,
}

impl HandlerSlot {
    /// A slot, or `None` when [`MAX_HANDLERS`] handlers are already live.
    fn acquire(state: &Arc<ServeState>) -> Option<HandlerSlot> {
        if state.handlers.fetch_add(1, Ordering::SeqCst) >= MAX_HANDLERS {
            state.handlers.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(HandlerSlot {
            state: Arc::clone(state),
        })
    }
}

impl Drop for HandlerSlot {
    fn drop(&mut self) {
        self.state.handlers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The address that reaches a listener bound to `bound`: a wildcard IP
/// (`0.0.0.0`, `::`) becomes loopback of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Bounds how long a stalled client can hold a handler on one read or
/// one write.
fn set_io_timeouts(stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))
}

/// A running daemon: the accept loop on its own thread, blocked in
/// `accept()`, and up to [`MAX_HANDLERS`] handlers, one thread per
/// connection. `POST /shutdown` wakes the accept loop with a loopback
/// connection; [`Server::join`] then returns once queued searches have
/// finished.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds the served state (dataset, model, GP — the slow part), binds
    /// the listener, and starts accepting.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let core = Arc::new(ServeCore::build(&config.core));
        Self::start_with_core(config, core)
    }

    /// Starts a server around an already-built core (lets tests reuse one
    /// build across restart cycles).
    pub fn start_with_core(config: ServeConfig, core: Arc<ServeCore>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServeState::new(core, &config, wake_addr(addr))?);
        // Periodic sampler: refreshes point-in-time gauges (peak RSS,
        // in-flight, windowed rate/p99) so scrapes see fresh readings.
        // The Weak handle keeps the sampler from pinning the state alive
        // past shutdown.
        let sampler_state = Arc::downgrade(&state);
        std::thread::Builder::new()
            .name("vaesa-serve-sampler".to_string())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(250));
                let Some(state) = sampler_state.upgrade() else {
                    break;
                };
                if state.stop.load(Ordering::SeqCst) {
                    break;
                }
                state.telemetry.sample();
            })?;
        let handle = std::thread::Builder::new()
            .name("vaesa-serve-accept".to_string())
            .spawn(move || accept_loop(listener, state))?;
        Ok(Server {
            addr,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon stops (via `POST /shutdown`).
    pub fn join(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServeState>) {
    vaesa_obs::progress!("serve: listening");
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // After `/shutdown` this is its wake-up connection (or a client
            // that raced it): drop it and stop.
            Ok(_) if state.stop.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                vaesa_obs::counter("serve.connections").incr();
                let Some(slot) = HandlerSlot::acquire(&state) else {
                    shed(stream);
                    continue;
                };
                // One thread per connection: handlers must run concurrently
                // for the admission queue to have anything to coalesce.
                let spawned = std::thread::Builder::new()
                    .name("vaesa-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &slot.state));
                if let Err(e) = spawned {
                    eprintln!("vaesa-serve: failed to spawn handler: {e}");
                }
            }
            Err(e) => {
                eprintln!("vaesa-serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    // Graceful stop: finish queued searches, then flush the access log.
    let mut state = state;
    loop {
        match Arc::try_unwrap(state) {
            Ok(mut owned) => {
                owned.pool.shutdown();
                owned.telemetry.flush();
                break;
            }
            Err(shared) => {
                // In-flight connection handlers still hold clones; give
                // them a beat to finish writing their responses.
                state = shared;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    vaesa_obs::progress!("serve: stopped");
}

/// Answers a connection over [`MAX_HANDLERS`] with `503` on the accept
/// thread, without blocking it, and closes the connection.
fn shed(mut stream: TcpStream) {
    vaesa_obs::counter("serve.http.shed").incr();
    // A fresh socket's send buffer takes the few hundred bytes at once.
    let _ = stream.set_nonblocking(true);
    let _ = Response::error(503, "server busy: too many open connections")
        .with_header("Retry-After", "1")
        .write_to(&mut stream);
    // Closing with unread request bytes would send a reset that can beat
    // the 503 to the client: send FIN first, then drain what has already
    // arrived (a bounded amount, so a client that keeps sending cannot
    // hold the accept thread).
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServeState) {
    let _ = set_io_timeouts(&stream);
    let ctx = state.telemetry.begin();
    let (response, method) = match read_request(&mut stream) {
        Ok(request) => {
            let response = route(&request, state, &ctx);
            (response, request.method)
        }
        Err(error) => match error.into_response() {
            Some(response) => (response, "-".to_string()),
            None => {
                // Connection-level I/O error: nothing to say to the peer,
                // but the request still closes out of the telemetry (499 —
                // the de-facto "client closed" status).
                state.telemetry.finish(ctx, "-", 499);
                return;
            }
        },
    };
    let status = response.status;
    let response = response.with_header("X-Request-Id", ctx.id());
    if let Err(e) = response.write_to(&mut stream) {
        eprintln!("vaesa-serve: response write failed: {e}");
    }
    state.telemetry.finish(ctx, &method, status);
}

fn route(request: &Request, state: &ServeState, ctx: &RequestCtx<'static>) -> Response {
    let path = request.path_only();
    let endpoint = telemetry::endpoint_for_path(path);
    ctx.set_endpoint(endpoint);
    let span = ctx.span(&format!("serve/{endpoint}"));
    let response = match (request.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/metrics") => handle_metrics(request, state),
        ("GET", "/metrics/requests") => {
            Response::json(200, state.telemetry.recent_requests_json(32))
        }
        ("GET", path) if path.starts_with("/metrics/requests/") => {
            let id = &path["/metrics/requests/".len()..];
            match state.telemetry.request_tree_json(id) {
                Some(body) => Response::json(200, body),
                None => Response::error(404, "no such request (it may have been evicted)"),
            }
        }
        ("POST", "/predict") => handle_predict(request, state, ctx),
        ("POST", "/decode") => handle_decode(request, state, ctx),
        ("POST", "/search") => handle_search(request, state),
        ("GET", path) if path.starts_with("/jobs/") => handle_job(path, state),
        ("POST", "/shutdown") => {
            state.request_stop();
            Response::json(200, "{\"status\":\"stopping\"}")
        }
        (_, "/healthz" | "/metrics" | "/predict" | "/decode" | "/search" | "/shutdown") => {
            Response::error(405, "method not allowed for this path")
        }
        _ => Response::error(404, "no such endpoint"),
    };
    span.finish();
    response
}

fn handle_healthz(state: &ServeState) -> Response {
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"latent_dim\":{},\"layers\":{}}}",
            state.core.latent_dim(),
            state.core.layers().len(),
        ),
    )
}

fn handle_metrics(request: &Request, state: &ServeState) -> Response {
    let registry = vaesa_obs::global();
    state.core.scheduler().publish_stats(registry, "scheduler");
    let predict = state.predict.stats();
    let decode = state.decode.stats();
    registry
        .gauge("serve.coalesce.predict.submits")
        .set(predict.submits as f64);
    registry
        .gauge("serve.coalesce.predict.batches")
        .set(predict.batches as f64);
    registry
        .gauge("serve.coalesce.decode.submits")
        .set(decode.submits as f64);
    registry
        .gauge("serve.coalesce.decode.batches")
        .set(decode.batches as f64);
    registry
        .gauge("serve.jobs.tracked")
        .set(state.jobs.len() as f64);
    state.telemetry.sample();
    match request.query_param("format").unwrap_or("prometheus") {
        "prometheus" | "prom" => Response::text(200, vaesa_obs::prometheus_string(registry)),
        "manifest" => {
            let manifest = vaesa_obs::manifest_string(registry);
            match request.query_param("name") {
                // Server-side filter: stream only the matching records (plus
                // the run header) instead of the full snapshot.
                Some(name) => {
                    let needle = format!("\"name\":{}", telemetry::json_str(name));
                    let filtered: String = manifest
                        .lines()
                        .filter(|line| {
                            line.contains("\"record\":\"run\"") || line.contains(&needle)
                        })
                        .flat_map(|line| [line, "\n"])
                        .collect();
                    Response::text(200, filtered)
                }
                None => Response::text(200, manifest),
            }
        }
        other => Response::error(400, &format!("unknown metrics format {other:?}")),
    }
}

/// Extracts `"points": [[f64, ...], ...]` rows of exactly `width` columns.
fn parse_points(body: &str, width: usize) -> Result<Vec<Vec<f64>>, String> {
    let value: Value =
        serde_json::parse_value(body).map_err(|e| format!("malformed JSON body: {e}"))?;
    let points = value
        .get("points")
        .ok_or_else(|| "missing \"points\" field".to_string())?;
    let Value::Seq(rows) = points else {
        return Err("\"points\" must be an array of rows".to_string());
    };
    if rows.is_empty() {
        return Err("\"points\" is empty".to_string());
    }
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let Value::Seq(cells) = row else {
                return Err(format!("points[{i}] is not an array"));
            };
            if cells.len() != width {
                return Err(format!(
                    "points[{i}] has {} values, expected {width}",
                    cells.len()
                ));
            }
            cells
                .iter()
                .enumerate()
                .map(|(j, cell)| {
                    cell.as_f64()
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| format!("points[{i}][{j}] is not a finite number"))
                })
                .collect()
        })
        .collect()
}

/// Attaches a coalesced batch's identity to the submitting request: the
/// leader's record carries the full membership (follower request ids),
/// followers carry just the batch id and size.
fn note_batch(ctx: &RequestCtx<'static>, info: &BatchInfo) {
    ctx.note("batch.id", info.batch_id);
    ctx.note("batch.size", info.size);
    ctx.note("batch.leader", info.leader);
    if info.leader && !info.members.is_empty() {
        ctx.note("batch.members", info.members.join(","));
    }
}

fn handle_predict(request: &Request, state: &ServeState, ctx: &RequestCtx<'static>) -> Response {
    let rows = match parse_points(&request.body, vaesa::HW_FEATURES) {
        Ok(rows) => rows,
        Err(message) => return Response::error(400, &message),
    };
    // The normalizer is log-space: zero or negative features are outside
    // the model's domain and would panic inside the batch.
    if let Some(bad) = rows.iter().position(|r| r.iter().any(|&v| v <= 0.0)) {
        return Response::error(400, &format!("points[{bad}] has a non-positive feature"));
    }
    vaesa_obs::counter("serve.predict.rows").add(rows.len() as u64);
    ctx.note("rows", rows.len());
    let submit_span = ctx.span("serve/predict/submit");
    let submitted = state.predict.submit_tagged(rows, Some(ctx.id()));
    submit_span.finish();
    let (predictions, batch) = match submitted {
        Ok(done) => done,
        Err(message) => return Response::error(500, &message),
    };
    note_batch(ctx, &batch);
    match serde_json::to_string(&predictions) {
        Ok(body) => Response::json(200, format!("{{\"predictions\":{body}}}")),
        Err(e) => Response::error(500, &format!("serialization failed: {e}")),
    }
}

fn handle_decode(request: &Request, state: &ServeState, ctx: &RequestCtx<'static>) -> Response {
    let rows = match parse_points(&request.body, state.core.latent_dim()) {
        Ok(rows) => rows,
        Err(message) => return Response::error(400, &message),
    };
    vaesa_obs::counter("serve.decode.rows").add(rows.len() as u64);
    ctx.note("rows", rows.len());
    let hits_before = state.core.scheduler().cache_stats().hits;
    let submit_span = ctx.span("serve/decode/submit");
    let submitted = state.decode.submit_tagged(rows, Some(ctx.id()));
    submit_span.finish();
    let (designs, batch) = match submitted {
        Ok(done) => done,
        Err(message) => return Response::error(500, &message),
    };
    note_batch(ctx, &batch);
    // Scheduler-cache hits observed while this request's batch ran; an
    // approximation under concurrency, but exact for the common
    // single-tenant case.
    let hits_after = state.core.scheduler().cache_stats().hits;
    ctx.note("cache.hits_delta", hits_after.saturating_sub(hits_before));
    match serde_json::to_string(&designs) {
        Ok(body) => Response::json(200, format!("{{\"designs\":{body}}}")),
        Err(e) => Response::error(500, &format!("serialization failed: {e}")),
    }
}

fn handle_search(request: &Request, state: &ServeState) -> Response {
    let value: Value = match serde_json::parse_value(&request.body) {
        Ok(value) => value,
        Err(e) => return Response::error(400, &format!("malformed JSON body: {e}")),
    };
    let engine = match value.get("engine") {
        Some(Value::Str(s)) => s.clone(),
        Some(_) => return Response::error(400, "\"engine\" must be a string"),
        None => return Response::error(400, "missing \"engine\" field"),
    };
    let mode = match value.get("mode") {
        Some(Value::Str(s)) => s.clone(),
        Some(_) => return Response::error(400, "\"mode\" must be a string"),
        None => "latent".to_string(),
    };
    let budget = match value.get("budget") {
        Some(v) => match v.as_u64() {
            Some(b) => b as usize,
            None => return Response::error(400, "\"budget\" must be a non-negative integer"),
        },
        None => 24,
    };
    let seed = match value.get("seed") {
        Some(v) => match v.as_u64() {
            Some(s) => s,
            None => return Response::error(400, "\"seed\" must be a non-negative integer"),
        },
        None => 0,
    };
    let spec = SearchSpec {
        engine,
        mode,
        budget,
        seed,
    };
    if let Err(message) = state.core.validate_spec(&spec) {
        return Response::error(400, &message);
    }
    match state.jobs.submit(spec) {
        Ok(id) => {
            state.pool.enqueue(id);
            Response::json(202, format!("{{\"job\":{id},\"status\":\"queued\"}}"))
        }
        Err(message) => Response::error(429, &message),
    }
}

fn handle_job(path: &str, state: &ServeState) -> Response {
    let id = match path["/jobs/".len()..].parse::<u64>() {
        Ok(id) => id,
        Err(_) => return Response::error(400, "job id must be an integer"),
    };
    let Some(job) = state.jobs.get(id) else {
        return Response::error(404, "no such job (it may have been evicted)");
    };
    let mut body = format!(
        "{{\"job\":{},\"status\":\"{}\",\"engine\":\"{}\",\"mode\":\"{}\",\"budget\":{},\"seed\":{}",
        job.id,
        job.status.name(),
        job.spec.engine,
        job.spec.mode,
        job.spec.budget,
        job.spec.seed
    );
    match &job.status {
        JobStatus::Done(summary) => match serde_json::to_string(summary) {
            Ok(json) => body.push_str(&format!(",\"result\":{json}")),
            Err(e) => return Response::error(500, &format!("serialization failed: {e}")),
        },
        JobStatus::Failed(message) => match serde_json::to_string(message) {
            Ok(json) => body.push_str(&format!(",\"error\":{json}")),
            Err(e) => return Response::error(500, &format!("serialization failed: {e}")),
        },
        JobStatus::Queued | JobStatus::Running => {}
    }
    body.push('}');
    Response::json(200, body)
}

// Re-exported so integration tests and the CLI share the request helper.
pub use http::http_request;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_points_validates_shape_and_values() {
        assert_eq!(
            parse_points("{\"points\":[[1.0,2.0],[3,4]]}", 2).unwrap(),
            vec![vec![1.0, 2.0], vec![3.0, 4.0]]
        );
        assert!(parse_points("not json", 2)
            .unwrap_err()
            .contains("malformed"));
        assert!(parse_points("{\"rows\":[[1,2]]}", 2)
            .unwrap_err()
            .contains("points"));
        assert!(parse_points("{\"points\":[]}", 2)
            .unwrap_err()
            .contains("empty"));
        assert!(parse_points("{\"points\":[[1]]}", 2)
            .unwrap_err()
            .contains("expected 2"));
        for bad in ["\"x\"", "1e999", "-1e999"] {
            assert!(parse_points(&format!("{{\"points\":[[1,{bad}]]}}"), 2)
                .unwrap_err()
                .contains("finite"));
        }
        assert!(parse_points("{\"points\":[5]}", 2)
            .unwrap_err()
            .contains("not an array"));
    }

    #[test]
    fn accepted_streams_time_out_reads_and_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        set_io_timeouts(&stream).unwrap();
        assert_eq!(
            stream.read_timeout().unwrap(),
            Some(Duration::from_secs(10))
        );
        assert_eq!(
            stream.write_timeout().unwrap(),
            Some(Duration::from_secs(10))
        );
    }

    #[test]
    fn wake_addr_replaces_wildcards_with_loopback() {
        let wake = |s: &str| wake_addr(s.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:8737"), "127.0.0.1:8737");
        assert_eq!(wake("[::]:8737"), "[::1]:8737");
        assert_eq!(wake("127.0.0.1:9"), "127.0.0.1:9");
        assert_eq!(wake("10.1.2.3:9"), "10.1.2.3:9");
    }
}
