//! The host's current speed, measured with a fixed reference kernel.
//!
//! The benchmark host is shared: with no change in the code, CPU-bound
//! timings here moved by up to 2x between periods of a few minutes, and
//! process CPU time moved with them. A fixed kernel timed alongside the
//! workload moves the same way, so CPU-bound timings are reported at the
//! reference speed: `measured × REFERENCE_S / median(kernel samples)`.
//! Over ten minutes of `offline_bo` reps, this cut the spread of 15-rep
//! medians from 7.7% to 2.0%. The kernel is the benchmark's own code, so a
//! change to the program never changes it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// The kernel's median time on the reference host (a 2-vCPU Xeon VM, at a
/// quiet moment), in seconds.
pub const REFERENCE_S: f64 = 0.0100;

/// Times one run of the reference kernel: a small dense f64 matmul and
/// pseudo-random updates of a 256 KiB table, the two kinds of work the
/// pipelines mix (NN training; scheduler and cache lookups). Seconds.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    const N: usize = 64;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.25).collect();
    let mut c = vec![0.0f64; N * N];
    for _ in 0..40 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
    let mut table = vec![0u32; 1 << 16];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..3_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & ((1 << 16) - 1)];
        *slot = if *slot & 1 == 0 {
            slot.wrapping_add(x as u32)
        } else {
            *slot ^ 3
        };
    }
    black_box((&c, &table));
    start.elapsed().as_secs_f64()
}

/// Kernel samples taken during one run.
#[derive(Default)]
pub struct Speed {
    samples: Vec<f64>,
}

impl Speed {
    /// Times the kernel once more.
    pub fn sample(&mut self) {
        self.samples.push(kernel_s());
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The median kernel time, seconds (the reference time before any
    /// sample).
    pub fn kernel_s(&self) -> f64 {
        stats::median(&self.samples).unwrap_or(REFERENCE_S)
    }

    /// Rescales a CPU-bound timing to the reference speed.
    pub fn at_reference(&self, measured: f64) -> f64 {
        measured * REFERENCE_S / self.kernel_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_rescale_by_the_median_sample() {
        let speed = Speed {
            samples: vec![0.030, 0.020, 0.045],
        };
        assert_eq!(speed.kernel_s(), 0.030);
        assert!((speed.at_reference(3.0) - 100.0 * REFERENCE_S).abs() < 1e-12);
        assert_eq!(Speed::default().at_reference(2.0), 2.0);
    }
}
