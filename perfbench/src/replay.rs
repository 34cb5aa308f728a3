//! Single layer calls replayed in isolation, at the shapes the workloads
//! drive them with. They give each layer a unit cost, which the ledger
//! multiplies by the call counts a run reports. Replays run only in the
//! traced run, after the measured window.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

use vaesa::{TrainConfig, Trainer, VaesaConfig, VaesaModel};
use vaesa_accel::{workloads, ArchDescription, DesignSpace, LayerShape};
use vaesa_bench::{Args, Setup};
use vaesa_cosa::Scheduler;
use vaesa_dse::GpRegressor;
use vaesa_serve::http::{read_request, Response};
use vaesa_serve::{SearchSpec, ServeCore, Telemetry};
use vaesa_timeloop::{CostModel, Mapping};

use crate::tracer::Tracer;

/// Wall time each per-call replay spends, at least.
const BUDGET: Duration = Duration::from_millis(150);

/// Mean wall time of one `f` call, calling it for at least [`BUDGET`] and
/// `min_calls` times.
fn per_call(min_calls: u32, mut f: impl FnMut(u32)) -> Duration {
    let start = Instant::now();
    let mut calls = 0;
    while calls < min_calls || start.elapsed() < BUDGET {
        f(calls);
        calls += 1;
    }
    start.elapsed() / calls
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `CostModel::evaluate` on a conv layer, as in `benches/cost_model.rs`: ns.
pub fn evaluate_ns(tracer: &Tracer) -> f64 {
    let model = CostModel::default();
    let arch = ArchDescription {
        pe_count: 16,
        macs_per_pe: 1024,
        accum_buf_bytes: 32 * 1024,
        weight_buf_bytes: 512 * 1024,
        input_buf_bytes: 64 * 1024,
        global_buf_bytes: 128 * 1024,
    };
    let layer = LayerShape::new("conv", 3, 3, 28, 28, 128, 128, 1, 1);
    let mapping = Mapping {
        spatial_k: 16,
        spatial_c: 64,
        p0: 7,
        q0: 7,
        c0: 2,
        k0: 8,
        p1: 2,
        q1: 2,
        ..Mapping::unit()
    };
    let per = tracer.time("bench/replay/timeloop.evaluate", || {
        // Batches of 1000 keep the loop overhead out of a ~50 ns call.
        per_call(10, |_| {
            for _ in 0..1000 {
                let _ = black_box(model.evaluate(
                    black_box(&arch),
                    black_box(&layer),
                    black_box(&mapping),
                ));
            }
        })
    });
    per.as_secs_f64() * 1e9 / 1000.0
}

/// An uncached schedule of a random Table II design for one of `layers`: µs.
pub fn schedule_miss_us(tracer: &Tracer, seed: u64, layers: &[LayerShape]) -> f64 {
    let space = DesignSpace::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5c4e);
    let keys: Vec<(ArchDescription, &LayerShape)> = (0..64)
        .map(|_| {
            let arch = space.describe(&space.random(&mut rng));
            (arch, &layers[rng.gen_range(0..layers.len())])
        })
        .collect();
    let scheduler = Scheduler::default();
    let per = tracer.time("bench/replay/cosa.schedule", || {
        per_call(1, |_| {
            for (arch, layer) in &keys {
                let _ = black_box(scheduler.schedule(arch, layer));
            }
        })
    });
    us(per) / keys.len() as f64
}

/// One `Trainer::train_vae` epoch on the `--fast` pipeline dataset at this
/// seed: `(ms per epoch, Adam steps per epoch)`.
pub fn epoch_ms(tracer: &Tracer, seed: u64) -> (f64, f64) {
    let args = Args {
        seed,
        scale: 0,
        ..Args::default()
    };
    let dataset = Setup::new().dataset(&workloads::training_layers(), 60, &args);
    let mut rng = args.rng(2_004);
    let config = VaesaConfig::paper().with_latent_dim(4).with_alpha(1e-4);
    let mut model = VaesaModel::new(config, &mut rng);
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 64,
        learning_rate: 1e-3,
    });
    let steps = vaesa_obs::counter("nn.adam.steps");
    let before = steps.get();
    let mut times = Vec::new();
    tracer.time("bench/replay/nn.epoch", || {
        for _ in 0..5 {
            let start = Instant::now();
            black_box(trainer.train_vae(&mut model, &dataset, &mut rng));
            times.push(ms(start.elapsed()));
        }
    });
    let per_epoch = (steps.get() - before) as f64 / times.len() as f64;
    (crate::stats::median(&times).unwrap_or(0.0), per_epoch)
}

/// `GpRegressor::fit` and `predict_batch` at the shapes of a `--fast`
/// Fig. 11 BO run (35 observations in 6-D, 320 candidates): ms each.
pub fn gp_ms(tracer: &Tracer, seed: u64) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6a11);
    let mut point = || -> Vec<f64> { (0..6).map(|_| rng.gen_range(0.0..1.0)).collect() };
    let xs: Vec<Vec<f64>> = (0..35).map(|_| point()).collect();
    let candidates: Vec<Vec<f64>> = (0..320).map(|_| point()).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (v * (i + 1) as f64).sin())
                .sum()
        })
        .collect();
    let mut gp = None;
    let fit = tracer.time("bench/replay/dse.gp_fit", || {
        per_call(3, |_| {
            gp = GpRegressor::fit(black_box(&xs), black_box(&ys)).ok()
        })
    });
    let Some(gp) = gp else {
        return (ms(fit), 0.0);
    };
    let predict = tracer.time("bench/replay/dse.gp_predict_batch", || {
        per_call(3, |_| {
            black_box(gp.predict_batch(black_box(&candidates)));
        })
    });
    (ms(fit), ms(predict))
}

/// `ServeCore::predict` on `rows`: µs.
pub fn predict_compute_us(tracer: &Tracer, core: &ServeCore, rows: &[Vec<f64>]) -> f64 {
    let path = format!("bench/replay/serve.predict_rows{}", rows.len());
    us(tracer.time(&path, || {
        per_call(10, |_| {
            black_box(core.predict(black_box(rows.to_vec())));
        })
    }))
}

/// `http::read_request` over recorded request bytes: µs.
pub fn http_parse_us(tracer: &Tracer, raws: &[Vec<u8>]) -> f64 {
    us(tracer.time("bench/replay/serve.http_parse", || {
        per_call(10, |i| {
            let mut raw: &[u8] = &raws[i as usize % raws.len()];
            let _ = black_box(read_request(&mut raw));
        })
    }))
}

/// Serializing a `/predict` answer for `rows` and writing the response
/// into memory: µs.
pub fn respond_us(tracer: &Tracer, core: &ServeCore, rows: &[Vec<f64>]) -> f64 {
    let predictions = core.predict(rows.to_vec());
    us(tracer.time("bench/replay/serve.respond", || {
        per_call(10, |_| {
            let body = serde_json::to_string(black_box(&predictions)).unwrap_or_default();
            let mut out = Vec::with_capacity(body.len() + 256);
            let response = Response::json(200, format!("{{\"predictions\":{body}}}"));
            let _ = black_box(response.write_to(&mut out));
        })
    }))
}

/// `ServeCore::decode` of one latent row: µs. A hot row was decoded (and
/// its schedules cached) before; each fresh row is new.
pub fn decode_compute_us(tracer: &Tracer, core: &ServeCore, rows: &[Vec<f64>], hot: bool) -> f64 {
    let label = if hot { "hot" } else { "fresh" };
    if hot {
        core.decode(rows[..1].to_vec());
    }
    let mut calls = 0;
    let start = Instant::now();
    tracer.time(&format!("bench/replay/serve.decode_{label}"), || {
        while calls < rows.len() && (calls < 5 || start.elapsed() < BUDGET) {
            let row = if hot { &rows[0] } else { &rows[calls] };
            black_box(core.decode(vec![row.clone()]));
            calls += 1;
        }
    });
    us(start.elapsed()) / calls.max(1) as f64
}

/// One `ServeCore::run_search` of `spec`: s.
pub fn search_compute_s(tracer: &Tracer, core: &ServeCore, spec: &SearchSpec) -> f64 {
    let start = Instant::now();
    tracer.time(
        &format!("bench/replay/serve.search_{}", spec.engine),
        || {
            let _ = black_box(core.run_search(spec));
        },
    );
    start.elapsed().as_secs_f64()
}

/// The daemon's fixed per-request telemetry (`Telemetry::begin` through
/// `finish`), with no model work: µs.
pub fn request_telemetry_us(tracer: &Tracer) -> f64 {
    let Ok(telemetry) = Telemetry::new(7, None) else {
        return 0.0;
    };
    us(tracer.time("bench/replay/obs.request_telemetry", || {
        per_call(100, |_| {
            let ctx = telemetry.begin();
            ctx.set_endpoint("predict");
            ctx.note("rows", 16);
            let span = ctx.span("serve/predict/submit");
            span.finish();
            ctx.note("batch.id", 0);
            ctx.note("batch.size", 16);
            telemetry.finish(ctx, "POST", 200);
        })
    }))
}
