//! Pins the Gaussian-process regressor's output bit for bit.
//!
//! The digest covers, through `to_bits`, the lengthscale and log marginal
//! likelihood that `fit` selects, and `predict` and `predict_batch` over a
//! seeded candidate set, before and after one incremental `add`. Point sets
//! of 40 and 100 observations take the serial and the parallel (`n >= 64`)
//! kernel fills, and the digest must read the same at one thread and at
//! four. Any change to the kernel arithmetic, the fill order, the
//! factorization or the solves moves it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vaesa_dse::GpRegressor;

/// FNV-1a over little-endian words: stable across platforms and releases.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn float(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn gp(&mut self, gp: &GpRegressor, queries: &[Vec<f64>]) {
        self.float(gp.lengthscale());
        self.float(gp.log_marginal_likelihood());
        for q in queries {
            let (mean, var) = gp.predict(q);
            self.float(mean);
            self.float(var);
        }
        for (mean, var) in gp.predict_batch(queries) {
            self.float(mean);
            self.float(var);
        }
    }
}

fn points(n: usize, dim: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect()
}

fn target(p: &[f64]) -> f64 {
    (1.3 * p[0]).sin() + 0.5 * p[1] - 0.2 * p[2] * p[2]
}

fn gp_digest() -> u64 {
    let mut d = Digest::new();
    for (seed, n) in [(7u64, 40usize), (11, 100)] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let xs = points(n, 3, &mut rng);
        let ys: Vec<f64> = xs.iter().map(|p| target(p)).collect();
        let queries = points(33, 3, &mut rng);
        let mut gp = GpRegressor::fit(&xs, &ys).expect("seeded points factor");
        d.gp(&gp, &queries);
        let x = vec![0.25, -0.5, 1.0];
        let y = target(&x);
        gp.add(x, y)
            .expect("a fresh point keeps the factor positive definite");
        d.gp(&gp, &queries);
    }
    d.0
}

#[test]
fn gp_outputs_match_pinned_digest() {
    const PINNED: u64 = 0x572f_eca0_fea4_a8d1;
    for threads in ["1", "4"] {
        std::env::set_var("VAESA_THREADS", threads);
        let got = gp_digest();
        assert_eq!(
            got, PINNED,
            "GP digest moved at {threads} thread(s): {got:#018x}"
        );
    }
}
