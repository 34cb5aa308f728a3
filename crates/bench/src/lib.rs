#![deny(missing_docs)]
//! Experiment harness that regenerates every figure and table of the
//! VAESA paper.
//!
//! Each experiment is a named pipeline in [`pipelines`] (see the
//! experiment index in `DESIGN.md`), run with `vaesa-cli flow run <name>`:
//! it builds the dataset, trains the models, runs the searches, prints a
//! paper-shaped summary to stdout, and writes CSV/SVG series into
//! `results/` for plotting. This crate holds what the pipelines share:
//! [`Args`], the [`Setup`] of design space, scheduler and training, and
//! the run-manifest writer.
//!
//! The harness keeps every run deterministic (seeded `ChaCha8Rng`
//! everywhere) and scales sample counts with the `--fast`/`--full` flags so
//! the whole suite finishes on a laptop while preserving the paper's
//! qualitative shapes.

pub mod pipelines;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs;
use std::path::{Path, PathBuf};
use vaesa::{Dataset, DatasetBuilder, History, TrainConfig, Trainer, VaesaConfig, VaesaModel};
use vaesa_accel::{DesignSpace, LayerShape};
use vaesa_cosa::CachedScheduler;

/// Command-line arguments shared by all experiment pipelines.
///
/// Recognized flags: `--seed <u64>`, `--budget <n>`, `--fast`, `--full`,
/// `--out <dir>`. Unknown or malformed flags are parse errors, which
/// `vaesa-cli flow run` prints with [`USAGE`].
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Base RNG seed (default 0; multi-seed experiments offset from it).
    pub seed: u64,
    /// Search budget override (per-experiment default when `None`).
    pub budget: Option<usize>,
    /// Scale factor: 0 = fast (CI-sized), 1 = default, 2 = full.
    pub scale: u8,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 0,
            budget: None,
            scale: 1,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// The usage line `vaesa-cli flow run` prints with a flag parse error.
pub const USAGE: &str =
    "usage: vaesa-cli flow run NAME [--seed N] [--budget N] [--fast|--full] [--out DIR]";

impl Args {
    /// Parses an argument list such as the flags after `flow run NAME`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed or unknown flag.
    pub fn parse_from<I>(argv: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut args = Args::default();
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_ref() {
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.as_ref().parse().ok())
                        .ok_or("--seed needs an integer")?
                }
                "--budget" => {
                    args.budget = Some(
                        it.next()
                            .and_then(|v| v.as_ref().parse().ok())
                            .ok_or("--budget needs an integer")?,
                    )
                }
                "--fast" => args.scale = 0,
                "--full" => args.scale = 2,
                "--out" => {
                    args.out_dir = it
                        .next()
                        .map(|v| PathBuf::from(v.as_ref()))
                        .ok_or("--out needs a path")?
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    /// Picks a size by scale: `(fast, default, full)`.
    pub fn pick(&self, fast: usize, default: usize, full: usize) -> usize {
        match self.scale {
            0 => fast,
            1 => default,
            _ => full,
        }
    }

    /// A seeded RNG offset by `stream` so sub-experiments are independent
    /// but reproducible.
    pub fn rng(&self, stream: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream))
    }
}

/// Seeds the global observability registry with one run's context: the
/// pipeline name, a deterministic run id, the RNG seed, scale, budget
/// override, worker-pool size, detected CPU SIMD features, and (when
/// available) the git revision.
///
/// [`pipelines::run`] calls this first, so the `run` record of the
/// manifest it writes on exit identifies the run completely.
pub fn init_run_meta(bin: &str, args: &Args) {
    vaesa_obs::set_meta("bin", bin);
    vaesa_obs::set_meta(
        "run_id",
        format!("{bin}-seed{}-scale{}", args.seed, args.scale),
    );
    vaesa_obs::set_meta("seed", args.seed);
    vaesa_obs::set_meta("scale", args.scale);
    vaesa_obs::set_meta("cpu_features", vaesa_linalg::cpu_features());
    if let Some(budget) = args.budget {
        vaesa_obs::set_meta("budget", budget);
    }
    vaesa_obs::set_meta("threads", vaesa_par::num_threads());
    if let Some(rev) = vaesa_obs::git_rev() {
        vaesa_obs::set_meta("git_rev", rev);
    }
}

/// Writes the global registry's run manifest to `<out_dir>/manifest.jsonl`,
/// publishing `scheduler` gauges first when a scheduler is given.
/// [`pipelines::run`] calls this as its last step.
///
/// Also publishes the process's peak RSS as the `process.peak_rss_bytes`
/// gauge, and — when tracing is enabled (`VAESA_TRACE=1`) — exports the
/// recorded timeline as `<out_dir>/trace.json` (Chrome `trace_event`
/// JSON) and its flamegraph as `<out_dir>/flame.svg`.
///
/// # Panics
///
/// Panics on I/O failure — experiments should fail loudly.
pub fn write_run_manifest(out_dir: &Path, scheduler: Option<&CachedScheduler>) -> PathBuf {
    let registry = vaesa_obs::global();
    if let Some(scheduler) = scheduler {
        scheduler.publish_stats(registry, "scheduler");
    }
    if let Some(rss) = vaesa_obs::peak_rss_bytes() {
        registry.gauge("process.peak_rss_bytes").set(rss as f64);
    }
    let path = out_dir.join("manifest.jsonl");
    vaesa_obs::write_manifest(registry, &path).expect("write manifest");
    if registry.tracing_enabled() {
        // The manifest is already on disk, so these notices go straight to
        // stderr instead of through `progress!` (whose event would be lost).
        let trace_path = out_dir.join("trace.json");
        vaesa_obs::write_chrome_trace(registry, &trace_path).expect("write trace");
        eprintln!("wrote {}", trace_path.display());
        let title = registry
            .meta("run_id")
            .or_else(|| registry.meta("bin"))
            .unwrap_or_else(|| "trace".to_string());
        let mut flame = vaesa_plot::FlameGraph::new(format!("{title} spans"));
        for event in registry.trace_events() {
            flame.add(&event.path, event.dur_ns);
        }
        if flame.is_empty() {
            eprintln!("tracing enabled but no spans recorded; skipping flame.svg");
        } else {
            let flame_path = write_svg(out_dir, "flame.svg", &flame.render());
            eprintln!("wrote {}", flame_path.display());
        }
    }
    path
}

/// Writes an SVG figure into the output directory.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_svg(dir: &Path, name: &str, svg: &str) -> PathBuf {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    fs::write(&path, svg).expect("write svg");
    path
}

/// The standard experiment setup: paper design space, cached scheduler, and
/// the Table III training-layer pool.
#[derive(Debug)]
pub struct Setup {
    /// The full Table II design space.
    pub space: DesignSpace,
    /// Shared (memoizing) scheduler.
    pub scheduler: CachedScheduler,
}

impl Setup {
    /// Creates the standard setup with an empty in-memory scheduler memo.
    pub fn new() -> Self {
        Setup {
            space: DesignSpace::paper(),
            scheduler: CachedScheduler::default(),
        }
    }

    /// Builds the training dataset over the given layers with `n_configs`
    /// random design points (plus a 2-per-axis seeding grid).
    pub fn dataset(&self, layers: &[LayerShape], n_configs: usize, args: &Args) -> Dataset {
        let mut rng = args.rng(1_000);
        DatasetBuilder::new(&self.space, layers.to_vec())
            .random_configs(n_configs)
            .grid_per_axis(2)
            .build(&self.scheduler, &mut rng)
    }

    /// Trains a VAESA model with the given latent dimension and α.
    pub fn train(
        &self,
        dataset: &Dataset,
        latent_dim: usize,
        alpha: f64,
        epochs: usize,
        args: &Args,
    ) -> (VaesaModel, History) {
        let mut rng = args.rng(2_000 + latent_dim as u64);
        let config = VaesaConfig::paper()
            .with_latent_dim(latent_dim)
            .with_alpha(alpha);
        let mut model = VaesaModel::new(config, &mut rng);
        let train_cfg = TrainConfig {
            epochs,
            batch_size: 64,
            learning_rate: 1e-3,
        };
        let history = Trainer::new(train_cfg).train_vae(&mut model, dataset, &mut rng);
        (model, history)
    }
}

impl Default for Setup {
    fn default() -> Self {
        Setup::new()
    }
}

/// Reports the scheduler cache's hit/miss summary (stderr + manifest
/// event); the DSE pipelines call this last so the memoization payoff of
/// each run is visible.
pub fn report_cache_stats(scheduler: &CachedScheduler) {
    vaesa_obs::progress!("scheduler cache: {}", scheduler.cache_stats());
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaesa_accel::workloads;

    #[test]
    fn args_parse_defaults_and_all_flags() {
        assert_eq!(
            Args::parse_from(Vec::<String>::new()).unwrap(),
            Args::default()
        );
        let args =
            Args::parse_from(["--seed", "7", "--budget", "12", "--fast", "--out", "x/y"]).unwrap();
        assert_eq!(
            args,
            Args {
                seed: 7,
                budget: Some(12),
                scale: 0,
                out_dir: PathBuf::from("x/y"),
            }
        );
        // Flag order is free; later scale flags win.
        let args = Args::parse_from(["--fast", "--full", "--seed", "3"]).unwrap();
        assert_eq!(args.scale, 2);
        assert_eq!(args.seed, 3);
        assert_eq!(args.budget, None);
        let args = Args::parse_from(["--out", "results2", "--budget", "1"]).unwrap();
        assert_eq!(args.out_dir, PathBuf::from("results2"));
        assert_eq!(args.budget, Some(1));
        assert_eq!(args.scale, 1);
    }

    #[test]
    fn args_parse_rejects_malformed_input() {
        assert!(Args::parse_from(["--wat"])
            .unwrap_err()
            .contains("unknown flag --wat"));
        assert!(Args::parse_from(["--seed"])
            .unwrap_err()
            .contains("--seed needs an integer"));
        assert!(Args::parse_from(["--seed", "abc"])
            .unwrap_err()
            .contains("--seed needs an integer"));
        assert!(Args::parse_from(["--budget"])
            .unwrap_err()
            .contains("--budget needs an integer"));
        assert!(Args::parse_from(["--budget", "-2"])
            .unwrap_err()
            .contains("--budget needs an integer"));
        assert!(Args::parse_from(["--out"])
            .unwrap_err()
            .contains("--out needs a path"));
        // Positional arguments are rejected like unknown flags.
        assert!(Args::parse_from(["fig11"])
            .unwrap_err()
            .contains("unknown flag fig11"));
    }

    #[test]
    fn args_pick_scales() {
        for (scale, want) in [(0u8, 1usize), (1, 2), (2, 3)] {
            let a = Args {
                scale,
                ..Args::default()
            };
            assert_eq!(a.pick(1, 2, 3), want);
        }
    }

    #[test]
    fn rng_streams_are_independent_and_reproducible() {
        let a = Args::default();
        use rand::RngCore;
        let mut r1 = a.rng(1);
        let mut r2 = a.rng(1);
        let mut r3 = a.rng(2);
        assert_eq!(r1.next_u64(), r2.next_u64());
        let mut r1b = a.rng(1);
        assert_ne!(r1b.next_u64(), r3.next_u64());
    }

    #[test]
    fn svg_writer_produces_files() {
        let dir = std::env::temp_dir().join("vaesa_bench_test_svg");
        let p = write_svg(&dir, "t.svg", "<svg></svg>");
        assert_eq!(std::fs::read_to_string(p).unwrap(), "<svg></svg>");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn setup_builds_small_dataset() {
        let setup = Setup::new();
        let args = Args::default();
        let layers = vec![workloads::alexnet()[2].clone()];
        let ds = setup.dataset(&layers, 10, &args);
        assert!(ds.len() >= 10);
    }
}
