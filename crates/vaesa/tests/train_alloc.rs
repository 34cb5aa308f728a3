//! A steady-state training step allocates nothing.
//!
//! The graph tape keeps every op output, gradient and scratch buffer across
//! `reset()`, the minibatch inputs cycle through the graph's leaves, and an
//! `MlpPass` is plain data. This binary installs a counting allocator (so it
//! holds this one test only) and counts the heap allocations the test
//! thread makes during batch-64 steps after warm-up: reset, forward,
//! backward, gradients into the parameters, Adam — the loop
//! `Trainer::train_vae` runs.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vaesa::{VaesaConfig, VaesaModel};
use vaesa_nn::{randn, Adam, Graph, Tensor};

struct Counting;

thread_local! {
    /// Allocations made by this thread while counting is on, or `None`.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

#[test]
fn steady_state_batch64_train_step_allocates_nothing() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut m = VaesaModel::new(VaesaConfig::paper(), &mut rng);
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
    let mut step = || {
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
        g.value(step.total).get(0, 0)
    };
    // Warm-up: the first steps size the tape's buffers and Adam's moments.
    for _ in 0..3 {
        step();
    }
    let mut loss = 0.0;
    let n = allocations(|| {
        for _ in 0..10 {
            loss = step();
        }
    });
    assert!(loss.is_finite());
    assert_eq!(n, 0, "10 steady-state steps made {n} heap allocations");
}
