//! Declarative pipeline specs for every experiment.
//!
//! Each of the 16 figure/ablation experiments is a named [`vaesa_flow`]
//! pipeline here: a [`FlowGraph`] of dataset → train → search →
//! render/CSV/report nodes whose artifacts are content-hash cached under
//! `results/cache/flow/`. `vaesa-cli flow run <name>` parses [`Args`] and
//! calls [`run`]; it is the one way to run an experiment.
//!
//! Every node keeps the RNG stream of the experiment it was ported from,
//! so a pipeline writes byte-identical CSV/SVG artifacts to its pre-flow
//! predecessor at the same seed and scale.
//! `fig12_fast_artifacts_match_pinned_digests` in `tests.rs` pins the
//! seed-0 Fig. 12 artifacts; the benchmark in `perfbench/` pins Fig. 12
//! and Fig. 11 at their `--fast` budgets.
//!
//! Node conventions:
//!
//! - every node draws its randomness from its own historical RNG stream
//!   (`Args::rng`) and shares only order-free state — the memoizing
//!   scheduler (whose results depend on the key alone) and commutative
//!   counters — so independent nodes (the `train`/`input_preds` pair, the
//!   per-layer or per-network searches) overlap on the `vaesa-par` pool.
//!   Their `train.*`/`dse.*` series land in per-node observability scopes
//!   that the runner commits in declaration order, exactly the state a
//!   straight-line run leaves.
//! - dataset/train outputs are in-memory ([`Value::mem`]) and use
//!   [`CachePolicy::Stamp`]; search/report/CSV/SVG outputs are encodable
//!   and persist, which is what lets a warm re-run rebuild every artifact
//!   without recomputing anything.
//! - CSV nodes format through [`vaesa_flow::format_csv`] /
//!   [`vaesa_flow::format_labeled_csv`], the single shared CSV writer.

pub(crate) mod util;

mod ablations;
mod fig01;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod pareto;
mod space;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{init_run_meta, report_cache_stats, write_run_manifest, Args, Setup};
use vaesa::{Dataset, History, VaesaModel};
use vaesa_accel::workloads;
use vaesa_flow::{CachePolicy, FlowGraph, FlowRunner, NodeSpec, RunConfig, StageKind, Value};

/// The trained-model artifact a `train` node carries.
pub(crate) type TrainArtifact = (VaesaModel, History);

/// Shared state every node closure captures: the parsed CLI arguments,
/// the paper design space with its memoizing scheduler, and the running
/// total of driver evaluations the executed search nodes will perform
/// (published as the `dse.expected_evals` meta for the metrics gate).
pub struct PipelineEnv {
    /// Parsed CLI arguments.
    pub args: Args,
    /// Design space + shared memoizing scheduler.
    pub setup: Setup,
    /// Driver evaluations the executed search nodes account for.
    pub expected_evals: AtomicU64,
}

impl PipelineEnv {
    /// Builds the environment for one run.
    pub fn new(args: Args) -> Arc<Self> {
        Arc::new(PipelineEnv {
            args,
            setup: Setup::new(),
            expected_evals: AtomicU64::new(0),
        })
    }

    /// Records that an executed search node performs `n` driver
    /// evaluations (only the gated figure pipelines call this).
    pub(crate) fn expect_evals(&self, n: usize) {
        self.expected_evals.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// What the pipeline writes into `manifest.jsonl` on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestMode {
    /// Manifest without scheduler gauges.
    Plain,
    /// Manifest with scheduler gauges.
    Scheduler,
    /// Scheduler cache summary (stderr + event) and scheduler gauges.
    SchedulerStats,
}

/// One named pipeline in the registry.
pub struct PipelineSpec {
    /// Registry name, as `vaesa-cli flow run` takes it.
    pub name: &'static str,
    /// One-line description for `flow list`.
    pub summary: &'static str,
    /// Builds the graph for a run.
    pub build: fn(&Arc<PipelineEnv>) -> Result<FlowGraph, String>,
    /// Manifest finalization mode.
    pub manifest: ManifestMode,
}

/// Every experiment pipeline, in the order of the experiment index.
pub fn registry() -> Vec<PipelineSpec> {
    vec![
        PipelineSpec {
            name: "fig01_landscape",
            summary: "EDP landscape slice of the design space (Fig. 1)",
            build: fig01::build,
            manifest: ManifestMode::Plain,
        },
        PipelineSpec {
            name: "fig04_latent_viz",
            summary: "latent-space visualization colored by EDP (Fig. 4)",
            build: space::build_fig04,
            manifest: ManifestMode::Scheduler,
        },
        PipelineSpec {
            name: "fig05_predictor_surface",
            summary: "predicted-EDP surface over the latent plane (Fig. 5)",
            build: space::build_fig05,
            manifest: ManifestMode::Scheduler,
        },
        PipelineSpec {
            name: "fig07_interpolation",
            summary: "latent interpolation smoothness (Fig. 7)",
            build: space::build_fig07,
            manifest: ManifestMode::Scheduler,
        },
        PipelineSpec {
            name: "fig09_alpha_ablation",
            summary: "KL weight ablation over the latent layout (Fig. 9)",
            build: space::build_fig09,
            manifest: ManifestMode::Scheduler,
        },
        PipelineSpec {
            name: "fig10_latent_dim",
            summary: "reconstruction loss vs latent dimension (Fig. 10)",
            build: fig10::build,
            manifest: ManifestMode::Scheduler,
        },
        PipelineSpec {
            name: "fig11_table5_bo",
            summary: "BO with/without the latent space; Table V metrics (Fig. 11)",
            build: fig11::build,
            manifest: ManifestMode::SchedulerStats,
        },
        PipelineSpec {
            name: "fig12_gd",
            summary: "gradient descent over unseen layers (Fig. 12)",
            build: fig12::build,
            manifest: ManifestMode::SchedulerStats,
        },
        PipelineSpec {
            name: "fig13_gd_steps",
            summary: "predictor-descent trajectories (Fig. 13)",
            build: fig13::build,
            manifest: ManifestMode::SchedulerStats,
        },
        PipelineSpec {
            name: "pareto_front",
            summary: "latency-energy Pareto front of explored designs (§IV-A2)",
            build: pareto::build,
            manifest: ManifestMode::SchedulerStats,
        },
        PipelineSpec {
            name: "ablation_search_engines",
            summary: "search-engine zoo ablation over both spaces",
            build: ablations::build_engines,
            manifest: ManifestMode::SchedulerStats,
        },
        PipelineSpec {
            name: "ablation_latent_box",
            summary: "latent search-box sizing ablation",
            build: ablations::build_latent_box,
            manifest: ManifestMode::SchedulerStats,
        },
        PipelineSpec {
            name: "ablation_finetune",
            summary: "frozen vs fine-tuned predictor across DSE rounds",
            build: ablations::build_finetune,
            manifest: ManifestMode::SchedulerStats,
        },
        PipelineSpec {
            name: "ablation_noc",
            summary: "NoC bandwidth sensitivity sweep",
            build: ablations::build_noc,
            manifest: ManifestMode::Plain,
        },
        PipelineSpec {
            name: "ablation_scheduler",
            summary: "greedy scheduler vs random mappings",
            build: ablations::build_scheduler,
            manifest: ManifestMode::Scheduler,
        },
        PipelineSpec {
            name: "ablation_dataflow",
            summary: "dataflow/loop-order sensitivity on a fixed architecture",
            build: ablations::build_dataflow,
            manifest: ManifestMode::Plain,
        },
    ]
}

/// Looks a pipeline up by name.
///
/// # Errors
///
/// Returns a message listing the known names.
pub fn find(name: &str) -> Result<PipelineSpec, String> {
    let mut names = Vec::new();
    for spec in registry() {
        if spec.name == name {
            return Ok(spec);
        }
        names.push(spec.name);
    }
    Err(format!(
        "unknown pipeline '{name}' (known: {})",
        names.join(", ")
    ))
}

/// Runs a named pipeline end to end: seeds the run meta, builds the
/// graph, executes it under the flow cache, publishes the
/// `dse.expected_evals` meta accumulated by executed search nodes, and
/// writes the run manifest.
///
/// # Errors
///
/// Returns the first node failure or cache/emit I/O error.
pub fn run(name: &str, args: Args) -> Result<(), String> {
    let spec = find(name)?;
    init_run_meta(name, &args);
    let env = PipelineEnv::new(args);
    let graph = (spec.build)(&env)?;
    let config = RunConfig {
        seed: env.args.seed,
        cache_root: vaesa_flow::default_cache_root(),
        out_dir: env.args.out_dir.clone(),
    };
    let report = FlowRunner::new(graph, config).run()?;
    let expected = env.expected_evals.load(Ordering::Relaxed);
    if expected > 0 {
        vaesa_obs::set_meta("dse.expected_evals", expected);
    }
    vaesa_obs::progress!("flow {name}: {}", report.summary());
    match spec.manifest {
        ManifestMode::Plain => {
            write_run_manifest(&env.args.out_dir, None);
        }
        ManifestMode::Scheduler => {
            write_run_manifest(&env.args.out_dir, Some(&env.setup.scheduler));
        }
        ManifestMode::SchedulerStats => {
            report_cache_stats(&env.setup.scheduler);
            write_run_manifest(&env.args.out_dir, Some(&env.setup.scheduler));
        }
    }
    Ok(())
}

/// The standard dataset node: Table III layer pool, `n_configs` random
/// points plus the 2-per-axis grid, historical RNG stream 1 000.
pub(crate) fn dataset_node(env: &Arc<PipelineEnv>, n_configs: usize) -> NodeSpec {
    let env = Arc::clone(env);
    NodeSpec::new("dataset", StageKind::Dataset)
        .param("pool", "table3")
        .param("n_configs", n_configs)
        .policy(CachePolicy::Stamp)
        .runs(move |_| {
            vaesa_obs::progress!("building dataset ({n_configs} configs)...");
            let pool = workloads::training_layers();
            let dataset = {
                let _span = vaesa_obs::span("bench/dataset");
                env.setup.dataset(&pool, n_configs, &env.args)
            };
            Ok(Value::mem(dataset))
        })
}

/// A standard train node (`id` defaults to `train`): VAESA with the given
/// latent dimension, KL weight α, and epoch budget, historical RNG stream
/// `2000 + latent_dim`.
pub(crate) fn train_node(
    env: &Arc<PipelineEnv>,
    id: &str,
    latent_dim: usize,
    alpha: f64,
    epochs: usize,
) -> NodeSpec {
    let env = Arc::clone(env);
    NodeSpec::new(id, StageKind::Train)
        .dep("dataset")
        .param("latent_dim", latent_dim)
        .param("alpha", alpha)
        .param("epochs", epochs)
        .policy(CachePolicy::Stamp)
        .runs(move |deps| {
            let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
            vaesa_obs::progress!("training {latent_dim}-D VAESA ({epochs} epochs)...");
            let trained = {
                let _span = vaesa_obs::span("bench/train");
                env.setup
                    .train(&dataset, latent_dim, alpha, epochs, &env.args)
            };
            Ok(Value::mem::<TrainArtifact>(trained))
        })
}

#[cfg(test)]
mod tests;
