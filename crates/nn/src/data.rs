use crate::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// Shuffled minibatch iterator over row-aligned tensors.
///
/// Given `n` data rows, [`Batcher::epoch`] yields index batches covering a
/// random permutation of `0..n`; pair it with [`Tensor::select_rows`] to
/// materialize each batch. The final batch may be smaller than `batch_size`.
///
/// # Examples
///
/// ```
/// use vaesa_nn::{Batcher, Tensor};
/// use rand::SeedableRng;
///
/// let xs = Tensor::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0]]);
/// let batcher = Batcher::new(5, 2);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let mut seen = 0;
/// for batch in batcher.epoch(&mut rng) {
///     let xb = xs.select_rows(&batch);
///     seen += xb.rows();
/// }
/// assert_eq!(seen, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batcher {
    n: usize,
    batch_size: usize,
}

impl Batcher {
    /// Creates a batcher over `n` rows with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(n: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Batcher { n, batch_size }
    }

    /// Number of rows covered per epoch.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Produces one epoch of shuffled index batches.
    pub fn epoch(&self, rng: &mut impl Rng) -> Vec<Vec<usize>> {
        let mut idx: Vec<usize> = (0..self.n).collect();
        idx.shuffle(rng);
        idx.chunks(self.batch_size).map(<[usize]>::to_vec).collect()
    }
}

/// Draws a `rows x cols` tensor of standard-normal samples using the
/// Box–Muller transform.
///
/// Used for the VAE reparameterization trick (`z = μ + ε·σ`) and for random
/// latent starting points in gradient-descent search.
pub fn randn(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor {
    let mut out = Tensor::zeros(0, 0);
    randn_into(rows, cols, rng, &mut out);
    out
}

/// Like [`randn`], but fills `out` in place, reusing its buffer.
///
/// Draws exactly the same RNG stream as [`randn`], so swapping one for the
/// other does not perturb downstream random state.
pub fn randn_into(rows: usize, cols: usize, rng: &mut impl Rng, out: &mut Tensor) {
    out.resize_uninit(rows, cols);
    let data = out.as_mut_slice();
    let n = data.len();
    let mut i = 0;
    while i < n {
        // Box–Muller: two uniforms -> two independent standard normals.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        data[i] = r * theta.cos();
        i += 1;
        if i < n {
            data[i] = r * theta.sin();
            i += 1;
        }
    }
}

/// Draws a `rows x cols` tensor of uniform samples in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn rand_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut impl Rng) -> Tensor {
    assert!(lo < hi, "invalid uniform range [{lo}, {hi})");
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn epoch_covers_all_indices_once() {
        let b = Batcher::new(10, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let batches = b.epoch(&mut rng);
        assert_eq!(batches.len(), 4);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn epoch_shuffles_deterministically_per_seed() {
        let b = Batcher::new(32, 8);
        let e1 = b.epoch(&mut ChaCha8Rng::seed_from_u64(9));
        let e2 = b.epoch(&mut ChaCha8Rng::seed_from_u64(9));
        let e3 = b.epoch(&mut ChaCha8Rng::seed_from_u64(10));
        assert_eq!(e1, e2);
        assert_ne!(e1, e3);
    }

    #[test]
    fn last_batch_may_be_short() {
        let b = Batcher::new(5, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batches = b.epoch(&mut rng);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2].len(), 1);
    }

    #[test]
    fn randn_moments_are_plausible() {
        for seed in [3u64, 4, 5] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = randn(100, 100, &mut rng);
            let mean = t.mean();
            let var = t.map(|v| v * v).mean() - mean * mean;
            // 10k draws: std err of the mean is 0.01, so allow 3 sigma.
            assert!(mean.abs() < 0.03, "seed {seed}: mean {mean} too far from 0");
            assert!(
                (var - 1.0).abs() < 0.05,
                "seed {seed}: variance {var} too far from 1"
            );
        }
    }

    #[test]
    fn randn_into_matches_randn_stream() {
        let a = randn(7, 3, &mut ChaCha8Rng::seed_from_u64(11));
        let mut b = Tensor::zeros(2, 2);
        let ptr = {
            randn_into(7, 3, &mut ChaCha8Rng::seed_from_u64(11), &mut b);
            b.as_slice().as_ptr()
        };
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(a.shape(), b.shape());
        // Refilling with a smaller shape must keep the allocation.
        randn_into(2, 2, &mut ChaCha8Rng::seed_from_u64(12), &mut b);
        assert_eq!(ptr, b.as_slice().as_ptr(), "buffer must be reused");
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let t = rand_uniform(50, 50, -2.0, 5.0, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (-2.0..5.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let _ = Batcher::new(5, 0);
    }
}
