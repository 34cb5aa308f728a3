//! Microbenchmarks for the neural-network substrate: VAE forward/backward
//! steps and deterministic encode/decode/predict inference.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vaesa::{VaesaConfig, VaesaModel};
use vaesa_nn::{randn, Adam, Graph, Tensor};

fn model() -> VaesaModel {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    VaesaModel::new(VaesaConfig::paper(), &mut rng)
}

/// Reference triple-loop matmul, for measuring the blocked kernel's speedup.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, inner) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for k in 0..inner {
            let av = a.get(i, k);
            for j in 0..n {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for n in [64usize, 128, 256] {
        let a = randn(n, n, &mut rng);
        let b = randn(n, n, &mut rng);
        c.bench_function(&format!("nn/matmul_{n}"), |bch| {
            bch.iter(|| black_box(black_box(&a).matmul(black_box(&b))))
        });
        c.bench_function(&format!("nn/matmul_naive_{n}"), |bch| {
            bch.iter(|| black_box(naive_matmul(black_box(&a), black_box(&b))))
        });
    }
    // The backward pass's fused transpose products vs. materializing the
    // transpose first (what Op::MatMul backward used to do).
    let a = randn(256, 128, &mut rng);
    let b = randn(256, 64, &mut rng);
    c.bench_function("nn/matmul_transpose_a_fused", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul_transpose_a(black_box(&b))))
    });
    c.bench_function("nn/matmul_transpose_a_materialized", |bch| {
        bch.iter(|| black_box(black_box(&a).transpose().matmul(black_box(&b))))
    });
    let c2 = randn(128, 64, &mut rng);
    let d = randn(256, 64, &mut rng);
    c.bench_function("nn/matmul_transpose_b_fused", |bch| {
        bch.iter(|| black_box(black_box(&c2).matmul_transpose_b(black_box(&d))))
    });
    c.bench_function("nn/matmul_transpose_b_materialized", |bch| {
        bch.iter(|| black_box(black_box(&c2).matmul(&black_box(&d).transpose())))
    });
}

fn bench_train_step(c: &mut Criterion) {
    let m = model();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for batch in [16usize, 64, 256] {
        let hw = Tensor::fill(batch, 6, 0.4);
        let layer = Tensor::fill(batch, 8, 0.6);
        let lat = Tensor::fill(batch, 1, 0.5);
        let en = Tensor::fill(batch, 1, 0.5);
        let eps = randn(batch, m.latent_dim(), &mut rng);
        c.bench_function(&format!("nn/train_step_fwd_bwd_b{batch}"), |b| {
            b.iter(|| {
                let mut g = Graph::new();
                let step = m.train_step(
                    &mut g,
                    hw.clone(),
                    layer.clone(),
                    eps.clone(),
                    lat.clone(),
                    en.clone(),
                );
                g.backward(step.total);
                black_box(g.value(step.total).get(0, 0))
            })
        });
    }
}

/// One steady-state training step on a graph reused across iterations,
/// as `Trainer::train_vae` runs it: `reset`, forward, backward, gradients
/// into the parameters, Adam. The `train_step_fwd_bwd` ids build a fresh
/// graph per iteration and so cannot see buffer reuse.
fn bench_train_loop(c: &mut Criterion) {
    let mut m = model();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let batch = 64;
    let mut inputs = [
        Tensor::fill(batch, 6, 0.4),
        Tensor::fill(batch, 8, 0.6),
        randn(batch, m.latent_dim(), &mut rng),
        Tensor::fill(batch, 1, 0.5),
        Tensor::fill(batch, 1, 0.5),
    ];
    let mut g = Graph::new();
    let mut adam = Adam::new(1e-3);
    c.bench_function("nn/train_loop_step_b64", |b| {
        b.iter(|| {
            g.reset();
            let [hw, layer, eps, lat, en] = inputs.each_mut().map(std::mem::take);
            let step = m.train_step(&mut g, hw, layer, eps, lat, en);
            g.backward(step.total);
            for (mlp, pass) in [
                (&mut m.encoder, &step.encoder_pass),
                (&mut m.decoder, &step.decoder_pass),
                (&mut m.latency_predictor, &step.latency_pass),
                (&mut m.energy_predictor, &step.energy_pass),
            ] {
                mlp.zero_grad();
                mlp.accumulate_grads(&g, pass);
            }
            adam.begin_step();
            for mlp in [
                &mut m.encoder,
                &mut m.decoder,
                &mut m.latency_predictor,
                &mut m.energy_predictor,
            ] {
                mlp.visit_params(&mut |p| adam.update(p));
            }
            for (buf, &leaf) in inputs.iter_mut().zip(&step.input_leaves) {
                *buf = g.take_value(leaf);
            }
            black_box(g.value(step.total).get(0, 0))
        })
    });
}

fn bench_inference(c: &mut Criterion) {
    let m = model();
    let hw = Tensor::fill(256, 6, 0.4);
    let z = Tensor::fill(256, m.latent_dim(), 0.1);
    let layer = Tensor::fill(256, 8, 0.6);

    c.bench_function("nn/encode_mean_b256", |b| {
        b.iter(|| black_box(m.encode_mean(black_box(&hw))))
    });
    c.bench_function("nn/decode_b256", |b| {
        b.iter(|| black_box(m.decode(black_box(&z))))
    });
    c.bench_function("nn/predict_b256", |b| {
        b.iter(|| black_box(m.predict(black_box(&z), black_box(&layer))))
    });
    c.bench_function("nn/predicted_edp_grad", |b| {
        b.iter(|| {
            black_box(m.predicted_edp_grad(
                black_box(&[0.1, -0.2, 0.3, 0.0]),
                black_box(&[0.5; 8]),
                1.0,
                1.0,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_train_step,
    bench_train_loop,
    bench_inference
);
criterion_main!(benches);
