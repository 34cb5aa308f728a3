//! The `vaesa-cli` command-line tool: dataset generation, training, and
//! latent-space design-space exploration from the shell.
//!
//! ```text
//! vaesa-cli dataset --configs 400 --out dataset.json
//! vaesa-cli train   --dataset dataset.json --latent 4 --alpha 1e-4 --out model.json
//! vaesa-cli search  --model model.json --dataset dataset.json \
//!                   --workload resnet50 --method vae_bo --budget 200
//! vaesa-cli eval    --pe 16 --macs 1024 --accum 32768 --weight 524288 \
//!                   --input 65536 --global 131072 --workload alexnet
//! ```
//!
//! All commands are deterministic under `--seed` and print human-readable
//! summaries; artifacts are JSON.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::process::ExitCode;
use vaesa_repro::accel::{workloads, ArchDescription, DesignSpace, LayerShape, Network};
use vaesa_repro::core::flows::{decode_to_config, HardwareEvaluator};
use vaesa_repro::core::{
    Convergence, Dataset, DatasetBuilder, DseDriver, ModelCheckpoint, SpaceMode, TrainConfig,
    Trainer, VaesaConfig, VaesaModel,
};
use vaesa_repro::cosa::CachedScheduler;
use vaesa_repro::dse::{engine_by_name, SearchOutcome};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `flow` has its own positional grammar (`flow run <name> [flags]`),
    // which the --key/value Flags parser can't express.
    if command == "flow" {
        return match cmd_flow(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // `serve` and `client` likewise have their own grammars (client has
    // positional subcommands); both live in the vaesa-serve crate.
    if command == "serve" || command == "client" {
        let result = match command.as_str() {
            "serve" => vaesa_repro::serve::cli::run_serve(rest),
            _ => vaesa_repro::serve::cli::run_client_command(rest),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let flags = match Flags::parse(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "dataset" => cmd_dataset(&flags),
        "train" => cmd_train(&flags),
        "search" => cmd_search(&flags),
        "eval" => cmd_eval(&flags),
        "obs-report" => cmd_obs_report(&flags),
        "obs-flame" => cmd_obs_flame(&flags),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: vaesa-cli <command> [flags]

commands:
  dataset   build a labeled dataset          --configs N --grid N --workload W --seed S --out PATH
  train     train the VAE + predictors       --dataset PATH --latent N --alpha F
                                             (--epochs N | --converge) --seed S --out PATH
  search    explore the design space         --model PATH --dataset PATH --workload W
                                             --method (vae_bo|vae_gd|vae_evo|vae_sa|bo|evo|sa|cd|random)
                                             --budget N --seed S
  eval      score one design on a workload   --pe N --macs N --accum B --weight B
                                             --input B --global B --workload W
  obs-report  summarize or diff run manifests  --manifest PATH [--diff PATH]
  obs-flame   render a trace.json flamegraph    --trace PATH [--out flame.svg]
  flow      run declarative experiment pipelines
            flow list                       every registered pipeline
            flow run NAME [--seed N --budget N --fast|--full --out DIR]
            flow graph NAME [--mermaid]     print the DAG (Graphviz DOT default)
  serve     run the DSE daemon              --addr HOST:PORT --workers N --configs N
                                            --epochs N --latent-dim N --layers N --seed S
                                            --access-log PATH
  client    query a running daemon          client [--addr HOST:PORT] <healthz|metrics
                                            |requests|request|predict|decode|search|job
                                            |shutdown> [flags]

workloads: alexnet, resnet50, resnext50, deepbench, vgg16, mobilenet,
           bert, all (the Table III training pool)";

/// Minimal `--key value` flag map.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected a --flag, got `{key}`"));
            };
            if name == "converge" {
                map.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn str(&self, name: &str, default: &str) -> String {
        self.0
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn required(&self, name: &str) -> Result<String, String> {
        self.0
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name} has invalid value `{v}`")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// The `flow` command family: list, run, and render the declarative
/// experiment pipelines registered in `vaesa_bench::pipelines`.
fn cmd_flow(rest: &[String]) -> Result<(), String> {
    use vaesa_bench::pipelines;

    let Some((sub, tail)) = rest.split_first() else {
        return Err("flow needs a subcommand: list, run NAME, or graph NAME (see --help)".into());
    };
    match sub.as_str() {
        "list" => {
            for spec in pipelines::registry() {
                println!("{:<24} {}", spec.name, spec.summary);
            }
            Ok(())
        }
        "run" => {
            let Some((name, argv)) = tail.split_first() else {
                return Err("flow run needs a pipeline name (try `flow list`)".into());
            };
            let args = vaesa_bench::Args::parse_from(argv.iter().cloned())
                .map_err(|e| format!("{e}\n{}", vaesa_bench::USAGE))?;
            pipelines::run(name, args)
        }
        "graph" => {
            let Some((name, argv)) = tail.split_first() else {
                return Err("flow graph needs a pipeline name (try `flow list`)".into());
            };
            let mut mermaid = false;
            let mut bench_argv: Vec<String> = Vec::new();
            for arg in argv {
                match arg.as_str() {
                    "--mermaid" => mermaid = true,
                    "--dot" => mermaid = false,
                    other => bench_argv.push(other.to_string()),
                }
            }
            let args = vaesa_bench::Args::parse_from(bench_argv)
                .map_err(|e| format!("{e}\n{}", vaesa_bench::USAGE))?;
            let spec = pipelines::find(name)?;
            let env = pipelines::PipelineEnv::new(args);
            let graph = (spec.build)(&env)?;
            if mermaid {
                print!("{}", graph.mermaid(name));
            } else {
                print!("{}", graph.dot(name));
            }
            Ok(())
        }
        other => Err(format!(
            "unknown flow subcommand `{other}` (expected list, run, or graph)"
        )),
    }
}

fn workload_layers(name: &str) -> Result<Vec<LayerShape>, String> {
    match name {
        "alexnet" => Ok(Network::AlexNet.layers()),
        "resnet50" => Ok(Network::ResNet50.layers()),
        "resnext50" => Ok(Network::ResNext50.layers()),
        "deepbench" => Ok(Network::DeepBench.layers()),
        "vgg16" => Ok(workloads::vgg16()),
        "mobilenet" => Ok(workloads::mobilenet_v1()),
        "bert" => Ok(workloads::bert_base_gemms()),
        "all" => Ok(workloads::training_layers()),
        other => Err(format!("unknown workload `{other}` (see --help)")),
    }
}

fn cmd_dataset(flags: &Flags) -> Result<(), String> {
    let configs: usize = flags.num("configs", 400)?;
    let grid: usize = flags.num("grid", 2)?;
    let seed: u64 = flags.num("seed", 0)?;
    let out = flags.str("out", "dataset.json");
    let layers = workload_layers(&flags.str("workload", "all"))?;

    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    println!(
        "sampling {configs} random configs (+{grid}-per-axis grid) over {} layers...",
        layers.len()
    );
    let dataset = DatasetBuilder::new(&space, layers)
        .random_configs(configs)
        .grid_per_axis(grid)
        .build(&scheduler, &mut rng);
    println!("built {} labeled samples", dataset.len());

    let json = serde_json::to_string(&dataset).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read dataset {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("cannot parse dataset {path}: {e}"))
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let dataset = load_dataset(&flags.required("dataset")?)?;
    let latent: usize = flags.num("latent", 4)?;
    let alpha: f64 = flags.num("alpha", 1e-4)?;
    let seed: u64 = flags.num("seed", 0)?;
    let out = flags.str("out", "model.json");

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = VaesaConfig::paper()
        .with_latent_dim(latent)
        .with_alpha(alpha);
    let mut model = VaesaModel::new(config, &mut rng);
    let trainer = Trainer::new(TrainConfig {
        epochs: flags.num("epochs", 60)?,
        batch_size: flags.num("batch", 64)?,
        learning_rate: flags.num("lr", 1e-3)?,
    });

    println!(
        "training {latent}-D VAESA (alpha {alpha:e}) on {} samples...",
        dataset.len()
    );
    let history = if flags.has("converge") {
        trainer.train_vae_until_converged(&mut model, &dataset, Convergence::default(), &mut rng)
    } else {
        trainer.train_vae(&mut model, &dataset, &mut rng)
    };
    let last = history.last();
    println!(
        "done after {} epochs: recon {:.4}, kld {:.2}, latency {:.4}, energy {:.4}",
        history.epochs.len(),
        last.recon,
        last.kld,
        last.latency,
        last.energy
    );

    ModelCheckpoint::new(&model, &dataset)
        .save(&out)
        .map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_search(flags: &Flags) -> Result<(), String> {
    let ckpt = ModelCheckpoint::load(flags.required("model")?).map_err(|e| e.to_string())?;
    let dataset = load_dataset(&flags.required("dataset")?)?;
    let (model, _) = ckpt.into_model();
    let layers = workload_layers(&flags.str("workload", "resnet50"))?;
    let method = flags.str("method", "vae_bo");
    let budget: usize = flags.num("budget", 200)?;
    let seed: u64 = flags.num("seed", 0)?;

    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let evaluator = HardwareEvaluator::new(&space, &scheduler, &layers);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // A `vae_` prefix selects the latent space; the rest names the engine.
    let (engine_name, mode) = match method.strip_prefix("vae_") {
        Some(rest) => (rest, SpaceMode::Latent),
        None => (method.as_str(), SpaceMode::Direct),
    };
    if engine_name == "gd" && mode == SpaceMode::Direct {
        return Err("method `gd` needs trained input-space predictors; use `vae_gd`".into());
    }
    let engine = engine_by_name(engine_name).ok_or_else(|| format!("unknown method `{method}`"))?;
    // The first workload layer drives the differentiable proxy for `vae_gd`;
    // the evaluator scores the full workload either way.
    let driver = DseDriver::new(&evaluator, &dataset)
        .with_model(&model)
        .with_gd_layer(&layers[0]);

    println!("running {method} for {budget} samples (seed {seed})...");
    let trace = driver.run(engine.as_ref(), mode, budget, &mut rng);

    let outcome = SearchOutcome::of(&trace);
    let best = outcome
        .best_value
        .ok_or("no valid design found within the budget")?;
    let point = outcome.best_point.as_deref().expect("best point recorded");
    let config = match mode {
        SpaceMode::Latent => decode_to_config(&model, point, &dataset.hw_norm, &evaluator),
        SpaceMode::Direct => evaluator.snap(point, &dataset.hw_norm),
    };
    let arch = space.describe(&config);
    println!("\nbest EDP: {best:.4e} cycles*pJ");
    println!("design:   {arch}");
    if let Some(n) = outcome.samples_to_best_3pct {
        println!("reached within 3% of its best after {n} samples");
    }
    Ok(())
}

fn cmd_obs_report(flags: &Flags) -> Result<(), String> {
    use std::path::Path;
    use vaesa_xtask::manifest::Manifest;
    use vaesa_xtask::report;

    let manifest = Manifest::load(Path::new(&flags.required("manifest")?))?;
    match flags.0.get("diff") {
        None => print!("{}", report::summarize(&manifest)),
        Some(other_path) => {
            let other = Manifest::load(Path::new(other_path))?;
            match report::diff(&manifest, &other) {
                None => println!("manifests are identical"),
                Some(d) => print!("{d}"),
            }
        }
    }
    Ok(())
}

fn cmd_obs_flame(flags: &Flags) -> Result<(), String> {
    use std::path::Path;
    use vaesa_xtask::trace::ChromeTrace;

    let trace_path = flags.required("trace")?;
    let out = flags.str("out", "flame.svg");
    let trace = ChromeTrace::load(Path::new(&trace_path))?;
    trace.validate()?;
    let folded = trace.fold();
    if folded.is_empty() {
        return Err(format!("{trace_path} contains no timed spans"));
    }
    let title = Path::new(&trace_path)
        .parent()
        .and_then(|p| p.file_name())
        .map(|n| format!("{} spans", n.to_string_lossy()))
        .unwrap_or_else(|| "trace spans".to_string());
    let flame =
        vaesa_plot::FlameGraph::from_folded(title, folded.iter().map(|(k, &v)| (k.as_str(), v)));
    std::fs::write(&out, flame.render()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out} ({} span paths)", folded.len());
    Ok(())
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let arch = ArchDescription {
        pe_count: flags.num("pe", 16u64)?,
        macs_per_pe: flags.num("macs", 1024u64)?,
        accum_buf_bytes: flags.num("accum", 32768u64)?,
        weight_buf_bytes: flags.num("weight", 524288u64)?,
        input_buf_bytes: flags.num("input", 65536u64)?,
        global_buf_bytes: flags.num("global", 131072u64)?,
    };
    let layers = workload_layers(&flags.str("workload", "resnet50"))?;
    let scheduler = CachedScheduler::default();
    let w = scheduler
        .schedule_workload(&arch, &layers)
        .map_err(|e| e.to_string())?;
    println!("architecture: {arch}");
    println!("latency: {:.4e} cycles", w.total_latency_cycles);
    println!("energy:  {:.4e} pJ", w.total_energy_pj);
    println!("EDP:     {:.4e}", w.edp());
    Ok(())
}
