//! Telemetry overhead on the daemon's hot path: `/predict` with a
//! 16-row batch, bare vs fully observed.
//!
//! `predict_b16_bare` runs the coalescing batcher with no instruments
//! and no request context. `predict_b16_observed` runs the exact
//! handler-path instrumentation stack: a `RequestCtx` with spans and
//! notes, a named batcher recording queue-wait and batch-size on the
//! global registry, per-endpoint latency histogram + sliding window,
//! status counters, and span-tree publication.
//!
//! `request_telemetry_only` isolates the fixed per-request cost of that
//! stack with zero model work, so the overhead stays visible even when
//! run-to-run inference jitter exceeds it. The committed baseline
//! (`BENCH.json`; refresh with `VAESA_BENCH_JSON=BENCH.json`) pins it at
//! ~1 µs — about 1% of the ~100 µs bare batch-16 predict, inside the ≤2%
//! overhead budget. (Request spans
//! deliberately skip `process_cpu_ns`: two `/proc/self/stat` reads per
//! span cost ~10 µs and report 0 at request timescales anyway.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vaesa_serve::{Batcher, CoreConfig, ServeCore, Telemetry};

fn rows16() -> Vec<Vec<f64>> {
    (0..16)
        .map(|i| vec![32.0 + i as f64, 4.0, 128.0, 4096.0, 8192.0, 65536.0])
        .collect()
}

fn bench_predict_overhead(c: &mut Criterion) {
    let core = std::sync::Arc::new(ServeCore::build(&CoreConfig {
        n_configs: 64,
        epochs: 2,
        latent_dim: 4,
        n_layers: 2,
        seed: 7,
        gp_cap: 64,
    }));

    // Zero coalescing window: single-threaded submits close their batch
    // immediately, so both paths measure compute + the machinery under
    // test rather than admission-queue sleep.
    let bare_core = std::sync::Arc::clone(&core);
    let bare = Batcher::new(Duration::ZERO, move |rows| bare_core.predict(rows));
    c.bench_function("serve/predict_b16_bare", |b| {
        b.iter(|| bare.submit(black_box(rows16())))
    });

    let observed_core = std::sync::Arc::clone(&core);
    let observed = Batcher::named(Duration::ZERO, "bench_predict", move |rows| {
        observed_core.predict(rows)
    });
    let telemetry = Telemetry::new(7, None).expect("no access log");
    // The fixed per-request cost of the telemetry hub alone (no model
    // work): context + span + notes + histograms + counters + tracker.
    c.bench_function("serve/request_telemetry_only", |b| {
        b.iter(|| {
            let ctx = telemetry.begin();
            ctx.set_endpoint("predict");
            ctx.note("rows", 16);
            let span = ctx.span("serve/predict/submit");
            span.finish();
            ctx.note("batch.id", 0);
            ctx.note("batch.size", 16);
            telemetry.finish(ctx, "POST", 200);
        })
    });
    c.bench_function("serve/predict_b16_observed", |b| {
        b.iter(|| {
            let ctx = telemetry.begin();
            ctx.set_endpoint("predict");
            ctx.note("rows", 16);
            let span = ctx.span("serve/predict/submit");
            let (predictions, batch) = observed
                .submit_tagged(black_box(rows16()), Some(ctx.id()))
                .expect("predict batch");
            span.finish();
            ctx.note("batch.id", batch.batch_id);
            ctx.note("batch.size", batch.size);
            telemetry.finish(ctx, "POST", 200);
            predictions
        })
    });
}

criterion_group!(benches, bench_predict_overhead);
criterion_main!(benches);
