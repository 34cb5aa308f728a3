//! Offline stand-in for `criterion`: a minimal wall-clock benchmark
//! harness with the same calling convention (`criterion_group!`,
//! `criterion_main!`, `Criterion::bench_function`, `Bencher::iter`,
//! `Bencher::iter_batched`).
//!
//! Each benchmark is auto-calibrated (iterations per batch sized to
//! ~`BATCH_TARGET_MS`), run for several batches, and reported as the
//! *median* ns/iter on stdout. Set `VAESA_BENCH_JSON=<path>` to also
//! append one JSON line per benchmark — the repo's `BENCH_*.json`
//! baselines are produced that way. `VAESA_BENCH_MS` overrides the
//! per-benchmark measurement budget (milliseconds).
//!
//! As in criterion, the first positional argument filters benchmarks by
//! substring: `cargo bench --bench nn_training -- nn/train_loop_step_b64`
//! runs only the ids containing it, and the others neither run nor print.

use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a value (re-export of the
/// standard hint; kept for criterion API compatibility).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup; the shim sizes batches itself, so
/// the variants only exist for API compatibility.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small routine inputs (criterion's default guidance).
    SmallInput,
    /// Large routine inputs.
    LargeInput,
    /// One setup per routine invocation.
    PerIteration,
}

/// Target wall-clock per timed batch, in milliseconds.
const BATCH_TARGET_MS: u64 = 25;

/// Timed batches per benchmark (median over these is reported).
const BATCHES: usize = 9;

/// Measurement driver handed to the benchmark closure.
pub struct Bencher {
    /// Median nanoseconds per iteration, filled by `iter`/`iter_batched`.
    median_ns: f64,
}

impl Bencher {
    fn measurement_budget() -> Duration {
        let ms = std::env::var("VAESA_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(BATCH_TARGET_MS * BATCHES as u64);
        Duration::from_millis(ms.max(1))
    }

    /// Times `f`, auto-calibrating iterations per batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: grow the per-batch iteration count until one batch
        // costs at least BATCH_TARGET_MS (or a single call already does).
        let target = Duration::from_millis(BATCH_TARGET_MS);
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= target || iters >= 1 << 30 {
                break;
            }
            // Aim directly for the target from the observed rate.
            let scale = (target.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).ceil();
            iters = (iters as f64 * scale.clamp(2.0, 100.0)) as u64;
        }

        let budget = Self::measurement_budget();
        let bench_start = Instant::now();
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(start.elapsed().as_secs_f64() / iters as f64);
            if bench_start.elapsed() >= budget {
                break;
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        self.median_ns = samples[samples.len() / 2] * 1e9;
    }

    /// Times `routine` over inputs produced by `setup`, excluding setup
    /// cost from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let target = Duration::from_millis(BATCH_TARGET_MS);
        let mut iters: u64 = 1;
        loop {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let elapsed = start.elapsed();
            if elapsed >= target || iters >= 1 << 24 {
                break;
            }
            let scale = (target.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).ceil();
            iters = (iters as f64 * scale.clamp(2.0, 100.0)) as u64;
        }

        let budget = Self::measurement_budget();
        let bench_start = Instant::now();
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            samples.push(start.elapsed().as_secs_f64() / iters as f64);
            if bench_start.elapsed() >= budget {
                break;
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        self.median_ns = samples[samples.len() / 2] * 1e9;
    }
}

/// The benchmark registry/driver (shim of `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    /// Only ids containing this substring run.
    filter: Option<String>,
}

impl Criterion {
    /// A driver configured from the bench binary's arguments (without the
    /// program name): the first one not starting with `-` is the id filter.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        Criterion {
            filter: args.into_iter().find(|a| !a.starts_with('-')),
        }
    }

    /// Runs one named benchmark and reports its median ns/iter; skipped
    /// silently when `id` does not match the filter.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        if self.filter.as_ref().is_some_and(|want| !id.contains(want.as_str())) {
            return self;
        }
        let mut bencher = Bencher { median_ns: f64::NAN };
        f(&mut bencher);
        let ns = bencher.median_ns;
        let human = if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.1} ns")
        };
        println!("bench: {id:<50} {human}/iter");
        if let Ok(path) = std::env::var("VAESA_BENCH_JSON") {
            upsert_json_line(&path, id, ns);
        }
        self
    }
}

/// Writes one `{"id": ..., "ns_per_iter": ...}` line for `id`, replacing
/// any earlier line for the same id so re-running a benchmark updates its
/// baseline instead of accumulating conflicting entries.
fn upsert_json_line(path: &str, id: &str, ns: f64) {
    // Ids never contain quotes, so the quoted form matches exactly.
    let needle = format!("\"id\":\"{id}\"");
    let mut lines: Vec<String> = std::fs::read_to_string(path)
        .map(|s| {
            s.lines()
                .filter(|l| !l.trim().is_empty() && !l.contains(&needle))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    lines.push(format!("{{\"id\":\"{id}\",\"ns_per_iter\":{ns:.1}}}"));
    let mut out = lines.join("\n");
    out.push('\n');
    let _ = std::fs::write(path, out);
}

/// Declares a benchmark group function that drives each target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::from_args(std::env::args().skip(1));
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Match criterion's CLI loosely: `--bench` etc. are accepted
            // and ignored, `--list` prints nothing and exits, and the first
            // positional argument filters ids (see `Criterion::from_args`).
            if std::env::args().any(|a| a == "--list") {
                return;
            }
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_finite_median() {
        std::env::set_var("VAESA_BENCH_MS", "10");
        let mut c = Criterion::default();
        let mut observed = f64::NAN;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
            observed = b.median_ns;
        });
        assert!(observed.is_finite() && observed > 0.0);
    }

    #[test]
    fn json_upsert_keeps_one_line_per_id() {
        let path = std::env::temp_dir().join("criterion_shim_upsert_test.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        upsert_json_line(path, "grp/alpha", 10.0);
        upsert_json_line(path, "grp/beta", 20.0);
        upsert_json_line(path, "grp/alpha", 30.0); // re-run: overwrite, not append
        let content = std::fs::read_to_string(path).unwrap();
        let alpha: Vec<&str> = content
            .lines()
            .filter(|l| l.contains("\"id\":\"grp/alpha\""))
            .collect();
        assert_eq!(alpha, vec!["{\"id\":\"grp/alpha\",\"ns_per_iter\":30.0}"]);
        assert_eq!(
            content
                .lines()
                .filter(|l| l.contains("\"id\":\"grp/beta\""))
                .count(),
            1
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn positional_filter_runs_only_matching_ids() {
        std::env::set_var("VAESA_BENCH_MS", "10");
        let args = ["--bench", "train_loop", "ignored"].map(String::from);
        let mut c = Criterion::from_args(args);
        let mut ran = Vec::new();
        for id in ["nn/train_loop_step_b64", "nn/matmul_naive_256"] {
            c.bench_function(id, |b| {
                ran.push(id);
                b.iter(|| 1u64);
            });
        }
        assert_eq!(ran, ["nn/train_loop_step_b64"]);
        // No positional argument: every id runs.
        let mut c = Criterion::from_args(["--bench".to_string()]);
        let mut count = 0;
        c.bench_function("any/id", |b| {
            count += 1;
            b.iter(|| 1u64);
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn iter_batched_runs_setup_per_input() {
        std::env::set_var("VAESA_BENCH_MS", "10");
        let mut c = Criterion::default();
        c.bench_function("shim/batched", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.into_iter().sum::<u64>(),
                BatchSize::SmallInput,
            );
            assert!(b.median_ns.is_finite());
        });
    }
}
