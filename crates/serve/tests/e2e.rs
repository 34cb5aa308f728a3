//! End-to-end daemon tests over real TCP.
//!
//! The main test boots the server on an ephemeral port, drives every
//! endpoint and shuts down cleanly. The connection-lifecycle tests
//! (shutdown wake-up, stalled clients, the handler cap) share one core.
//!
//! Every test holds [`REGISTRY_LOCK`]: each daemon publishes its
//! scheduler's counters as `scheduler.*` gauges into the process-global
//! metrics registry whenever `/metrics` is read, so two daemons running at
//! once would overwrite each other's values.

use serde::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vaesa_serve::{http_request, CoreConfig, ServeConfig, ServeCore, Server, MAX_HANDLERS};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock leaves no state behind.
    REGISTRY_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny_config(addr: &str, seed: u64) -> ServeConfig {
    ServeConfig {
        addr: addr.to_string(),
        workers: 1,
        window: Duration::from_millis(10),
        job_capacity: 8,
        access_log: None,
        core: CoreConfig {
            n_configs: 24,
            epochs: 2,
            latent_dim: 3,
            n_layers: 2,
            seed,
            gp_cap: 32,
        },
    }
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http_request(addr, "GET", path, None).expect("GET")
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    http_request(addr, "POST", path, Some(body)).expect("POST")
}

fn json(body: &str) -> Value {
    serde_json::parse_value(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

/// Reads one numeric metric out of a `/metrics?format=manifest` snapshot.
fn metric(manifest: &str, name: &str) -> Option<f64> {
    manifest.lines().find_map(|line| {
        let record = serde_json::parse_value(line).ok()?;
        match record.get("name") {
            Some(Value::Str(n)) if n == name => record.get("value")?.as_f64(),
            _ => None,
        }
    })
}

/// The daemon's `scheduler.hits` gauge, published fresh by this scrape.
fn scheduler_hits(addr: &str) -> f64 {
    let (status, manifest) = get(addr, "/metrics?format=manifest&name=scheduler.hits");
    assert_eq!(status, 200, "{manifest}");
    metric(&manifest, "scheduler.hits").expect("scheduler.hits gauge")
}

fn poll_job_done(addr: &str, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "job poll failed: {body}");
        let job = json(&body);
        match job.get("status") {
            Some(Value::Str(s)) if s == "done" => return job,
            Some(Value::Str(s)) if s == "failed" => panic!("job failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} did not finish");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs `f` on its own thread and returns its result, failing the test
/// if it takes longer than `limit` instead of hanging it.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|e| panic!("{what} did not finish within {limit:?}: {e}"))
}

/// Shuts `server` down through `addr` and joins it, failing after 5 s
/// instead of hanging.
fn shutdown_and_join(addr: &str, server: Server) {
    let (status, body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    within(Duration::from_secs(5), "join after /shutdown", move || {
        server.join()
    });
}

#[test]
fn shutdown_wakes_the_blocked_accept() {
    let _registry = registry_lock();
    let core = Arc::new(ServeCore::build(&tiny_config("127.0.0.1:0", 5).core));
    for cycle in 0..5 {
        let server = Server::start_with_core(tiny_config("127.0.0.1:0", 5), Arc::clone(&core))
            .unwrap_or_else(|e| panic!("start {cycle}: {e}"));
        let addr = server.addr().to_string();
        let (status, _) = get(&addr, "/healthz");
        assert_eq!(status, 200, "cycle {cycle}");
        shutdown_and_join(&addr, server);
    }
    // Bound to the wildcard address, the wake-up connect goes to loopback.
    let server = Server::start_with_core(tiny_config("0.0.0.0:0", 5), core).expect("start");
    let addr = format!("127.0.0.1:{}", server.addr().port());
    let (status, _) = get(&addr, "/healthz");
    assert_eq!(status, 200);
    shutdown_and_join(&addr, server);
}

#[test]
fn stalled_clients_do_not_block_others_and_the_cap_sheds_with_503() {
    let _registry = registry_lock();
    let core = Arc::new(ServeCore::build(&tiny_config("127.0.0.1:0", 6).core));
    let server = Server::start_with_core(tiny_config("127.0.0.1:0", 6), core).expect("start");
    let addr = server.addr().to_string();

    // One client connects and sends nothing; another is answered at once.
    let stalled = TcpStream::connect(&addr).expect("connect");
    let (status, _) = within(Duration::from_secs(5), "healthz beside a stalled client", {
        let addr = addr.clone();
        move || get(&addr, "/healthz")
    });
    assert_eq!(status, 200);

    // Fill every handler slot with idle clients. The accept loop takes
    // connections in order, so the next one finds the cap reached.
    let mut idle = vec![stalled];
    while idle.len() < MAX_HANDLERS {
        idle.push(TcpStream::connect(&addr).expect("connect"));
    }
    let raw = within(Duration::from_secs(5), "a request over the cap", {
        let addr = addr.clone();
        move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .expect("write");
            let mut raw = String::new();
            // A reset instead of an answer fails here.
            stream.read_to_string(&mut raw).expect("read the 503");
            raw
        }
    });
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(raw.contains("\r\nRetry-After: 1\r\n"), "{raw}");

    // Once the idle clients hang up, their slots free and service resumes.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _) = get(&addr, "/healthz");
        if status == 200 {
            break;
        }
        assert_eq!(status, 503);
        assert!(Instant::now() < deadline, "handler slots were not freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, manifest) = get(&addr, "/metrics?format=manifest&name=serve.http.shed");
    assert_eq!(status, 200);
    assert!(metric(&manifest, "serve.http.shed").unwrap_or(0.0) >= 1.0);
    shutdown_and_join(&addr, server);
}

#[test]
fn daemon_serves_all_endpoints_and_repeated_searches_hit_the_memo() {
    let _registry = registry_lock();
    let server = Server::start(tiny_config("127.0.0.1:0", 11)).expect("start");
    let addr = server.addr().to_string();

    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let health = json(&body);
    assert_eq!(health.get("latent_dim").and_then(Value::as_u64), Some(3));

    // Concurrent predicts from several clients; the admission queue must
    // route every caller its own row back.
    let predict_threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let scale = 1.0 + i as f64;
                let body = format!(
                    "{{\"points\":[[{},4.0,128.0,4096.0,8192.0,65536.0]]}}",
                    16.0 * scale
                );
                post(&addr, "/predict", &body)
            })
        })
        .collect();
    for t in predict_threads {
        let (status, body) = t.join().expect("predict thread");
        assert_eq!(status, 200, "{body}");
        let predictions = match json(&body).get("predictions") {
            Some(Value::Seq(rows)) => rows.clone(),
            other => panic!("bad predictions: {other:?}"),
        };
        assert_eq!(predictions.len(), 1);
        let row = &predictions[0];
        assert!(row.get("latency").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(row.get("gp_log_edp_std").and_then(Value::as_f64).unwrap() >= 0.0);
    }

    let (status, body) = post(
        &addr,
        "/decode",
        "{\"points\":[[0.0,0.0,0.0],[0.3,-0.2,0.1]]}",
    );
    assert_eq!(status, 200, "{body}");
    match json(&body).get("designs") {
        Some(Value::Seq(designs)) => {
            assert_eq!(designs.len(), 2);
            assert!(designs[0]
                .get("arch")
                .and_then(|a| a.get("pe_count"))
                .and_then(Value::as_u64)
                .is_some());
        }
        other => panic!("bad designs: {other:?}"),
    }

    // Error paths: malformed JSON, wrong row width, a feature that
    // underflows to zero, bad engine, bad route.
    let (status, _) = post(&addr, "/predict", "{nope");
    assert_eq!(status, 400);
    let (status, _) = post(&addr, "/predict", "{\"points\":[[1.0,2.0]]}");
    assert_eq!(status, 400);
    let (status, body) = post(
        &addr,
        "/predict",
        "{\"points\":[[64,768,11520,93696,91264,1e-400]]}",
    );
    assert_eq!(status, 400);
    assert!(body.contains("non-positive feature"), "{body}");
    let (status, _) = post(&addr, "/search", "{\"engine\":\"quantum\"}");
    assert_eq!(status, 400);
    let (status, _) = post(&addr, "/search", "{\"engine\":\"gd\",\"mode\":\"direct\"}");
    assert_eq!(status, 400);
    let (status, _) = get(&addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = post(&addr, "/healthz", "{}");
    assert_eq!(status, 405);

    // Async search: enqueue, poll to completion, check the summary.
    let (status, body) = post(
        &addr,
        "/search",
        "{\"engine\":\"random\",\"mode\":\"latent\",\"budget\":5,\"seed\":3}",
    );
    assert_eq!(status, 202, "{body}");
    let id = json(&body)
        .get("job")
        .and_then(Value::as_u64)
        .expect("job id");
    let job = poll_job_done(&addr, id);
    let result = job.get("result").expect("result");
    assert_eq!(result.get("label"), Some(&Value::Str("vae_random".into())));
    assert_eq!(result.get("evals").and_then(Value::as_u64), Some(5));

    // A second identical search replays the same evaluations: the shared
    // scheduler serves them from its memo.
    let hits_before = scheduler_hits(&addr);
    let (status, body) = post(
        &addr,
        "/search",
        "{\"engine\":\"random\",\"mode\":\"latent\",\"budget\":5,\"seed\":3}",
    );
    assert_eq!(status, 202, "{body}");
    let id2 = json(&body)
        .get("job")
        .and_then(Value::as_u64)
        .expect("job id");
    let job2 = poll_job_done(&addr, id2);
    assert_eq!(
        job2.get("result").and_then(|r| r.get("best_value")),
        job.get("result").and_then(|r| r.get("best_value")),
        "identical seeded searches must reproduce"
    );
    assert!(
        scheduler_hits(&addr) > hits_before,
        "repeated search must hit the scheduler memo"
    );

    let (status, manifest) = get(&addr, "/metrics?format=manifest");
    assert_eq!(status, 200);
    assert!(metric(&manifest, "serve.coalesce.predict.submits").unwrap_or(0.0) >= 4.0);

    // Default /metrics is now Prometheus text exposition and must parse.
    let (status, prom) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(prom.contains("# TYPE"), "missing TYPE lines: {prom}");
    let snap = vaesa_obs::parse_prometheus(&prom).expect("valid exposition");
    assert!(snap.value("serve_predict_latency_ns_count").unwrap_or(0.0) >= 4.0);
    assert!(snap
        .quantile("serve_predict_latency_ns", 0.99)
        .is_some_and(|p99| p99 > 0.0));
    let (status, _) = get(&addr, "/metrics?format=bogus");
    assert_eq!(status, 400);

    // Server-side manifest filter streams only the requested records.
    let (status, filtered) = get(&addr, "/metrics?format=manifest&name=serve.predict.rows");
    assert_eq!(status, 200);
    assert!(metric(&filtered, "serve.predict.rows").unwrap_or(0.0) >= 4.0);
    assert!(
        filtered.lines().count() <= 3,
        "filter must drop unrelated records:\n{filtered}"
    );

    // Request-scoped tracing: recent ids are listed and each span tree is
    // retrievable, with paths prefixed by the request id.
    let (status, recent) = get(&addr, "/metrics/requests");
    assert_eq!(status, 200, "{recent}");
    let ids = match json(&recent).get("requests") {
        Some(Value::Seq(rows)) => rows
            .iter()
            .filter_map(|r| match r.get("id") {
                Some(Value::Str(id)) => Some(id.clone()),
                _ => None,
            })
            .collect::<Vec<_>>(),
        other => panic!("bad recent requests: {other:?}"),
    };
    assert!(!ids.is_empty(), "no recent requests: {recent}");
    let (status, tree) = get(&addr, &format!("/metrics/requests/{}", ids[0]));
    assert_eq!(status, 200, "{tree}");
    let tree = json(&tree);
    assert_eq!(tree.get("id"), Some(&Value::Str(ids[0].clone())));
    match tree.get("spans") {
        Some(Value::Seq(spans)) => {
            assert!(!spans.is_empty());
            let prefix = format!("req/{}", ids[0]);
            for span in spans {
                match span.get("path") {
                    Some(Value::Str(p)) => assert!(p.starts_with(&prefix), "{p}"),
                    other => panic!("bad span: {other:?}"),
                }
            }
        }
        other => panic!("bad spans: {other:?}"),
    }
    let (status, _) = get(&addr, "/metrics/requests/r-unknown");
    assert_eq!(status, 404);

    shutdown_and_join(&addr, server);
}
