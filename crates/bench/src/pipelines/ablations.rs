//! Ablation pipelines: search engines, latent search box, fine-tuning,
//! NoC modeling, scheduler quality, and dataflow freedom.
//!
//! The model-dependent ablations share the standard `dataset`/`train`
//! nodes (and therefore their cache entries) with the figure pipelines;
//! the cost-model ablations (`noc`, `scheduler`, `dataflow`) are a single
//! sweep node feeding csv/report sinks.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::util;
use super::{dataset_node, train_node, PipelineEnv, TrainArtifact};
use vaesa::flows::{decode_to_config, latent_box, HardwareEvaluator};
use vaesa::{Dataset, DseDriver, Record, SpaceMode, TrainConfig, Trainer, VaesaModel};
use vaesa_accel::{workloads, ArchDescription};
use vaesa_cosa::{random_mapping, Scheduler};
use vaesa_dse::{engine_by_name, BayesOpt, BoEngine, BoxSpace, FnObjective};
use vaesa_flow::{format_csv, format_labeled_csv, FlowGraph, NodeSpec, StageKind, Value};
use vaesa_linalg::stats;
use vaesa_timeloop::{CostModel, Mapping, NocModel};

// ------------------------------------------------------- search engines

/// `(label, engine, latent?)` — every run goes through the one DSE driver.
const ENGINES: [(&str, &str, bool); 8] = [
    ("random", "random", false),
    ("bo", "bo", false),
    ("evo", "evo", false),
    ("sa", "sa", false),
    ("cd", "cd", false),
    ("vae_bo", "bo", true),
    ("vae_evo", "evo", true),
    ("vae_sa", "sa", true),
];

pub(super) fn build_engines(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let budget = args.budget.unwrap_or(args.pick(60, 300, 1000));
    let seeds = args.pick(2, 3, 5);

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 4, 1e-4, epochs),
    ];

    let mut search_ids = Vec::new();
    for (label, engine_name, latent) in ENGINES {
        let id = format!("search_{label}");
        search_ids.push(id.clone());
        let env2 = Arc::clone(env);
        nodes.push(
            NodeSpec::new(&id, StageKind::Engine(engine_name.into()))
                .dep("dataset")
                .dep("train")
                .param("space", if latent { "latent" } else { "direct" })
                .param("budget", budget)
                .param("seeds", seeds)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[1]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    let resnet = workloads::resnet50();
                    let evaluator =
                        HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &resnet);
                    let driver = DseDriver::new(&evaluator, &dataset).with_model(&trained.0);
                    let engine = engine_by_name(engine_name)
                        .ok_or_else(|| format!("unknown engine '{engine_name}'"))?;
                    let mode = if latent {
                        SpaceMode::Latent
                    } else {
                        SpaceMode::Direct
                    };
                    let mut bests = Vec::new();
                    for seed in 0..seeds {
                        let mut rng = env2.args.rng(60_000 + seed as u64 * 13);
                        let trace = driver.run(engine.as_ref(), mode, budget, &mut rng);
                        bests.push(trace.best_value().unwrap_or(f64::NAN));
                    }
                    Ok(Value::floats(bests))
                }),
        );
    }

    let mean_std = |dep: &Value| -> Result<(f64, f64), String> {
        let bests = dep.to_floats().ok_or("search artifact not floats")?;
        Ok((
            stats::mean(&bests).unwrap_or(f64::NAN),
            stats::std_dev(&bests).unwrap_or(f64::NAN),
        ))
    };

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .deps(search_ids.clone())
            .emit("ablation_search_engines.csv")
            .runs(move |deps| {
                let rows: Vec<(String, Vec<f64>)> = ENGINES
                    .iter()
                    .zip(deps)
                    .map(|((label, _, _), dep)| {
                        let (mean, std) = mean_std(dep)?;
                        Ok((label.to_string(), vec![mean, std]))
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Value::Str(format_labeled_csv(
                    "engine,best_edp_mean,best_edp_std",
                    &rows,
                )))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .deps(search_ids)
            .print()
            .runs(move |deps| {
                let mut text =
                    format!("{budget} samples x {seeds} seeds per engine on ResNet-50:\n\n");
                for ((label, _, _), dep) in ENGINES.iter().zip(deps) {
                    let (mean, std) = mean_std(dep)?;
                    text.push_str(&format!("  {label:>8}: best EDP {mean:.4e} ± {std:.2e}\n"));
                }
                text.push_str("expected: each engine improves when moved to the latent space.\n");
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}

// ----------------------------------------------------------- latent box

const BOXES: [(&str, f64); 4] = [
    ("prior_pm1", 1.0),
    ("prior_pm3", 3.0),
    ("prior_pm6", 6.0),
    ("data_box", f64::NAN), // derived from the encoded training data
];

pub(super) fn build_latent_box(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let budget = args.budget.unwrap_or(args.pick(60, 300, 1000));
    let seeds = args.pick(2, 3, 5);

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 4, 1e-4, epochs),
    ];

    let mut search_ids = Vec::new();
    for (name, half) in BOXES {
        let id = format!("search_{name}");
        search_ids.push(id.clone());
        let env2 = Arc::clone(env);
        nodes.push(
            NodeSpec::new(&id, StageKind::Engine("bo".into()))
                .dep("dataset")
                .dep("train")
                .param("box", name)
                .param("budget", budget)
                .param("seeds", seeds)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[1]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    let model = &trained.0;
                    let resnet = workloads::resnet50();
                    let evaluator =
                        HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &resnet);
                    let (space, line) = if half.is_nan() {
                        let b = latent_box(model, &dataset);
                        let line =
                            format!("data-derived box: lo {:?}, hi {:?}\n", b.lower(), b.upper());
                        (b, line)
                    } else {
                        (BoxSpace::symmetric(4, half), String::new())
                    };
                    let mut bests = Vec::new();
                    for seed in 0..seeds {
                        let mut objective = FnObjective::new(4, |z: &[f64]| {
                            let config = decode_to_config(model, z, &dataset.hw_norm, &evaluator);
                            evaluator.edp_of_config(&config)
                        });
                        let mut rng = env2.args.rng(40_000 + seed as u64 * 17);
                        let trace =
                            BayesOpt::new(space.clone()).run(&mut objective, budget, &mut rng);
                        bests.push(trace.best_value().unwrap_or(f64::NAN));
                    }
                    let mut m = BTreeMap::new();
                    m.insert("bests".to_string(), Value::floats(bests));
                    m.insert("line".to_string(), Value::Str(line));
                    Ok(Value::Map(m))
                }),
        );
    }

    let mean_std = |dep: &Value| -> Result<(f64, f64), String> {
        let bests = dep
            .get("bests")
            .and_then(Value::to_floats)
            .ok_or("search artifact missing bests")?;
        Ok((
            stats::mean(&bests).unwrap_or(f64::NAN),
            stats::std_dev(&bests).unwrap_or(f64::NAN),
        ))
    };

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .deps(search_ids.clone())
            .emit("ablation_latent_box.csv")
            .runs(move |deps| {
                let rows: Vec<(String, Vec<f64>)> = BOXES
                    .iter()
                    .zip(deps)
                    .map(|((name, _), dep)| {
                        let (mean, std) = mean_std(dep)?;
                        Ok((name.to_string(), vec![mean, std]))
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Value::Str(format_labeled_csv(
                    "box,best_edp_mean,best_edp_std",
                    &rows,
                )))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .deps(search_ids)
            .print()
            .runs(move |deps| {
                // The data-box description line prints first, as in the
                // original binary.
                let mut text = deps
                    .last()
                    .and_then(|d| d.get("line"))
                    .and_then(Value::as_str)
                    .ok_or("data_box artifact missing line")?
                    .to_string();
                text.push_str(&format!("\n{budget} samples x {seeds} seeds per box:\n"));
                for ((name, _), dep) in BOXES.iter().zip(deps) {
                    let (mean, std) = mean_std(dep)?;
                    text.push_str(&format!(
                        "  {name:>10}: best ResNet-50 EDP {mean:.4e} ± {std:.2e}\n"
                    ));
                }
                text.push_str(
                    "expected: the data-derived box matches or beats every fixed prior box.\n",
                );
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}

// ------------------------------------------------------------ fine-tune

pub(super) fn build_finetune(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let round = args.budget.unwrap_or(args.pick(40, 150, 500));
    let seeds = args.pick(2, 3, 5);

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 4, 1e-4, epochs),
    ];

    let mut seed_ids = Vec::new();
    for seed in 0..seeds {
        let id = format!("seed_{seed}");
        seed_ids.push(id.clone());
        let env2 = Arc::clone(env);
        nodes.push(
            NodeSpec::new(&id, StageKind::Engine("vae_bo".into()))
                .dep("dataset")
                .dep("train")
                .param("seed_index", seed)
                .param("round", round)
                .param("finetune_epochs", epochs / 4)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[1]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    let model = &trained.0;
                    let resnet = workloads::resnet50();
                    let evaluator =
                        HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &resnet);
                    let vae_bo = |model: &VaesaModel, dataset: &Dataset, rng: &mut ChaCha8Rng| {
                        DseDriver::new(&evaluator, dataset).with_model(model).run(
                            &BoEngine::default(),
                            SpaceMode::Latent,
                            round,
                            rng,
                        )
                    };

                    // Round 1 (shared): explore with the freshly trained
                    // model.
                    let mut rng = env2.args.rng(70_000 + seed as u64);
                    let round1 = vae_bo(model, &dataset, &mut rng);

                    // Fold the evaluated designs back into the dataset as
                    // per-layer records.
                    let mut new_records = Vec::new();
                    for sample in round1.samples() {
                        let config =
                            decode_to_config(model, &sample.x, &dataset.hw_norm, &evaluator);
                        let Some(w) = evaluator.workload_eval(&config) else {
                            continue;
                        };
                        let hw_raw = env2.setup.space.raw_features(&config);
                        for (layer, sched) in resnet.iter().zip(&w.layers) {
                            new_records.push(Record {
                                config,
                                hw_raw,
                                layer_raw: layer.features(),
                                latency: sched.latency_cycles,
                                energy: sched.energy_pj,
                            });
                        }
                    }
                    let line = format!(
                        "seed {seed}: round 1 best {:.4e}, {} new records\n",
                        round1.best_value().unwrap_or(f64::NAN),
                        new_records.len()
                    );

                    // Branch A: continue with the frozen model.
                    let mut rng = env2.args.rng(71_000 + seed as u64);
                    let frozen = vae_bo(model, &dataset, &mut rng);
                    let frozen_best = frozen
                        .best_value()
                        .unwrap_or(f64::NAN)
                        .min(round1.best_value().unwrap_or(f64::NAN));

                    // Branch B: extend + fine-tune (low LR, few epochs),
                    // then search.
                    let extended = dataset.extended(new_records);
                    let mut tuned = model.clone();
                    let mut rng = env2.args.rng(72_000 + seed as u64);
                    Trainer::new(TrainConfig {
                        epochs: epochs / 4,
                        batch_size: 64,
                        learning_rate: 2e-4,
                    })
                    .train_vae(&mut tuned, &extended, &mut rng);
                    let mut rng = env2.args.rng(71_000 + seed as u64); // same budget RNG as branch A
                    let fine = vae_bo(&tuned, &extended, &mut rng);
                    let finetuned_best = fine
                        .best_value()
                        .unwrap_or(f64::NAN)
                        .min(round1.best_value().unwrap_or(f64::NAN));

                    let mut m = BTreeMap::new();
                    m.insert("frozen".to_string(), Value::F64(frozen_best));
                    m.insert("finetuned".to_string(), Value::F64(finetuned_best));
                    m.insert("line".to_string(), Value::Str(line));
                    Ok(Value::Map(m))
                }),
        );
    }

    let means = |deps: &[std::sync::Arc<Value>]| -> Result<(f64, f64), String> {
        let mut frozen = Vec::new();
        let mut finetuned = Vec::new();
        for dep in deps {
            frozen.push(
                dep.get("frozen")
                    .and_then(Value::as_f64)
                    .ok_or("seed artifact missing frozen")?,
            );
            finetuned.push(
                dep.get("finetuned")
                    .and_then(Value::as_f64)
                    .ok_or("seed artifact missing finetuned")?,
            );
        }
        Ok((
            stats::mean(&frozen).unwrap_or(f64::NAN),
            stats::mean(&finetuned).unwrap_or(f64::NAN),
        ))
    };

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .deps(seed_ids.clone())
            .emit("ablation_finetune.csv")
            .runs(move |deps| {
                let (fm, tm) = means(deps)?;
                let rows = vec![
                    ("frozen".to_string(), vec![fm]),
                    ("finetuned".to_string(), vec![tm]),
                ];
                Ok(Value::Str(format_labeled_csv(
                    "strategy,best_edp_mean",
                    &rows,
                )))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .deps(seed_ids)
            .print()
            .runs(move |deps| {
                let mut text = String::new();
                for dep in deps {
                    text.push_str(
                        dep.get("line")
                            .and_then(Value::as_str)
                            .ok_or("seed artifact missing line")?,
                    );
                }
                let (fm, tm) = means(deps)?;
                text.push_str(&format!(
                    "\nbest ResNet-50 EDP after two rounds ({round} samples each, {seeds} seeds):\n"
                ));
                text.push_str(&format!("  frozen model:     {fm:.4e}\n"));
                text.push_str(&format!("  fine-tuned model: {tm:.4e}\n"));
                text.push_str(&format!(
                    "  fine-tuning is {}\n",
                    if tm <= fm * 1.001 {
                        "at least as good (matches the paper's expectation)"
                    } else {
                        "not better at this scale"
                    }
                ));
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}

// ------------------------------------------------------------------ NoC

pub(super) fn build_noc(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let n_archs = env.args.pick(20, 100, 400);

    let mut nodes = Vec::new();
    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("sweep", StageKind::Custom("noc".into()))
            .param("n_archs", n_archs)
            .runs(move |_| {
                let space = vaesa_accel::DesignSpace::paper();
                let layers = workloads::resnet50();
                let base = Scheduler::new(CostModel::default());
                let meshy = Scheduler::new(CostModel::default().with_noc(NocModel::nm40()));
                let mut rng = ChaCha8Rng::seed_from_u64(env2.args.seed.wrapping_add(90_000));

                let mut rows = Vec::new();
                let mut ratio_logs = Vec::new();
                let mut base_best = (f64::INFINITY, None);
                let mut noc_best = (f64::INFINITY, None);
                let mut evaluated = 0;
                while evaluated < n_archs {
                    let config = space.random(&mut rng);
                    let arch = space.describe(&config);
                    let (Ok(b), Ok(n)) = (
                        base.schedule_workload(&arch, &layers),
                        meshy.schedule_workload(&arch, &layers),
                    ) else {
                        continue;
                    };
                    evaluated += 1;
                    let (be, ne) = (b.edp(), n.edp());
                    ratio_logs.push((ne / be).ln());
                    rows.push(vec![arch.pe_count as f64, arch.macs_per_pe as f64, be, ne]);
                    if be < base_best.0 {
                        base_best = (be, Some(arch));
                    }
                    if ne < noc_best.0 {
                        noc_best = (ne, Some(arch));
                    }
                }

                let geo_ratio = stats::mean(&ratio_logs).map(f64::exp).unwrap_or(f64::NAN);
                let mut text = format!("\n{evaluated} random architectures on ResNet-50:\n");
                text.push_str(&format!(
                    "geometric-mean EDP inflation from the NoC: {geo_ratio:.3}x\n"
                ));
                let base_arch = base_best.1.ok_or("no valid architecture found")?;
                let noc_arch = noc_best.1.ok_or("no valid architecture found")?;
                text.push_str(&format!(
                    "best design without NoC: EDP {:.4e} at {}\n",
                    base_best.0, base_arch
                ));
                text.push_str(&format!(
                    "best design with NoC:    EDP {:.4e} at {}\n",
                    noc_best.0, noc_arch
                ));
                text.push_str(&format!(
                    "winner {}\n",
                    if base_arch == noc_arch {
                        "unchanged - the NoC shifts costs but not the ranking at this sample size"
                    } else {
                        "changed - wide spatial mappings pay a mesh penalty, shifting the optimum"
                    }
                ));

                let mut m = BTreeMap::new();
                m.insert("rows".to_string(), Value::table(&rows));
                m.insert("report".to_string(), Value::Str(text));
                Ok(Value::Map(m))
            }),
    );

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .dep("sweep")
            .emit("ablation_noc.csv")
            .runs(|deps| {
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("sweep artifact missing rows")?;
                Ok(Value::Str(format_csv(
                    "pe_count,macs_per_pe,edp_base,edp_with_noc",
                    &rows,
                )))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .dep("sweep")
            .print()
            .runs(|deps| {
                Ok(Value::Str(
                    deps[0]
                        .get("report")
                        .and_then(Value::as_str)
                        .ok_or("sweep artifact missing report")?
                        .to_string(),
                ))
            }),
    );

    FlowGraph::new(nodes)
}

// ------------------------------------------------------------ scheduler

const MAPPERS: [&str; 3] = ["unit", "random_valid", "greedy"];

pub(super) fn build_scheduler(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_archs = args.pick(10, 40, 100);
    let n_random_mappings = args.pick(20, 100, 400);

    let mut nodes = Vec::new();
    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("mappers", StageKind::Custom("mappers".into()))
            .param("n_archs", n_archs)
            .param("n_random_mappings", n_random_mappings)
            .runs(move |_| {
                let layers = workloads::resnet50();
                // A plain (uncached) scheduler: this ablation measures the
                // mapper itself, not the memoization layer.
                let scheduler = Scheduler::default();
                let model = scheduler.model();
                let mut rng = env2.args.rng(50_000);

                // Per-mapper geometric-mean EDP across (arch, layer) pairs.
                let mut logs: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
                let mut archs_used = 0;
                while archs_used < n_archs {
                    let config = env2.setup.space.random(&mut rng);
                    let arch = env2.setup.space.describe(&config);
                    let Ok(greedy) = scheduler.schedule_workload(&arch, &layers) else {
                        continue;
                    };
                    archs_used += 1;

                    for (li, layer) in layers.iter().enumerate() {
                        let prepared = model.prepare(&arch, layer);
                        let unit = prepared
                            .evaluate(&Mapping::unit())
                            .map_err(|e| format!("unit mapping rejected: {e}"))?;
                        logs[0].push(unit.edp().ln());

                        let mut best_random = f64::INFINITY;
                        for _ in 0..n_random_mappings {
                            let m = random_mapping(&arch, layer, &mut rng);
                            if let Ok(e) = prepared.evaluate(&m) {
                                best_random = best_random.min(e.edp());
                            }
                        }
                        if best_random.is_finite() {
                            logs[1].push(best_random.ln());
                        }

                        logs[2].push(greedy.layers[li].edp().ln());
                    }
                }

                let geo: Vec<f64> = logs
                    .iter()
                    .map(|l| stats::mean(l).map(f64::exp).unwrap_or(f64::NAN))
                    .collect();
                let mut m = BTreeMap::new();
                m.insert("geo".to_string(), Value::floats(geo));
                m.insert("archs_used".to_string(), Value::Int(archs_used as i64));
                Ok(Value::Map(m))
            }),
    );

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .dep("mappers")
            .emit("ablation_scheduler.csv")
            .runs(|deps| {
                let geo = deps[0]
                    .get("geo")
                    .and_then(Value::to_floats)
                    .ok_or("mappers artifact missing geo")?;
                let rows: Vec<(String, Vec<f64>)> = MAPPERS
                    .iter()
                    .zip(&geo)
                    .map(|(name, g)| (name.to_string(), vec![*g]))
                    .collect();
                Ok(Value::Str(format_labeled_csv("mapper,geomean_edp", &rows)))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .dep("mappers")
            .print()
            .runs(move |deps| {
                let geo = deps[0]
                    .get("geo")
                    .and_then(Value::to_floats)
                    .ok_or("mappers artifact missing geo")?;
                let archs_used = deps[0]
                    .get("archs_used")
                    .and_then(Value::as_int)
                    .ok_or("mappers artifact missing archs_used")?;
                let mut text = format!(
                    "geometric-mean per-layer EDP over {archs_used} random architectures:\n"
                );
                for (name, g) in MAPPERS.iter().zip(&geo) {
                    text.push_str(&format!("  {name:>13}: {g:.4e}\n"));
                }
                text.push_str(&format!(
                    "\ngreedy improves on best-of-{n_random_mappings} random mappings by {:.1}x \
                     and on the unit mapping by {:.0}x\n",
                    geo[1] / geo[2],
                    geo[0] / geo[2]
                ));
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}

// ------------------------------------------------------------- dataflow

pub(super) fn build_dataflow(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let n_pools: usize = if env.args.scale == 0 { 2 } else { 4 };

    let mut nodes = Vec::new();
    nodes.push(
        NodeSpec::new("sweep", StageKind::Custom("dataflow".into()))
            .param("pools", n_pools)
            .runs(move |_| {
                let scheduler = Scheduler::default();
                let arch = ArchDescription {
                    pe_count: 16,
                    macs_per_pe: 1024,
                    accum_buf_bytes: 32 * 1024,
                    weight_buf_bytes: 512 * 1024,
                    input_buf_bytes: 64 * 1024,
                    global_buf_bytes: 128 * 1024,
                };

                let mut pools: Vec<(&str, Vec<vaesa_accel::LayerShape>)> = vec![
                    ("resnet50", workloads::resnet50()),
                    ("alexnet", workloads::alexnet()),
                    ("mobilenet_v1", workloads::mobilenet_v1()),
                    ("bert_gemms", workloads::bert_base_gemms()),
                ];
                pools.truncate(n_pools);

                let mut wins: HashMap<&'static str, usize> = HashMap::new();
                let mut improvement_logs = Vec::new();
                let mut rows = Vec::new();
                let mut text = format!("per-layer dataflow selection on {arch}\n\n");
                text.push_str(&format!(
                    "{:<14} {:>8} {:>10} {:>22}\n",
                    "workload", "layers", "geo gain", "dataflow wins (WS/OS/IS)"
                ));
                for (name, layers) in &pools {
                    let mut logs = Vec::new();
                    let mut local = [0usize; 3];
                    for layer in layers {
                        let (Ok(ws), Ok(best)) = (
                            scheduler.schedule(&arch, layer),
                            scheduler.schedule_with_dataflows(&arch, layer),
                        ) else {
                            continue;
                        };
                        let gain = ws.evaluation.edp() / best.evaluation.edp();
                        logs.push(gain.ln());
                        improvement_logs.push(gain.ln());
                        let df = best.mapping.dataflow.name();
                        *wins.entry(df).or_default() += 1;
                        match df {
                            "WS" => local[0] += 1,
                            "OS" => local[1] += 1,
                            _ => local[2] += 1,
                        }
                    }
                    let geo = stats::mean(&logs).map(f64::exp).unwrap_or(f64::NAN);
                    text.push_str(&format!(
                        "{name:<14} {:>8} {:>9.3}x {:>13}/{}/{}\n",
                        layers.len(),
                        geo,
                        local[0],
                        local[1],
                        local[2]
                    ));
                    rows.push((
                        name.to_string(),
                        vec![geo, local[0] as f64, local[1] as f64, local[2] as f64],
                    ));
                }

                let overall = stats::mean(&improvement_logs)
                    .map(f64::exp)
                    .unwrap_or(f64::NAN);
                text.push_str(&format!(
                    "\noverall geometric-mean EDP gain from dataflow freedom: {overall:.3}x\n"
                ));
                text.push_str(&format!(
                    "dataflow wins: WS {} | OS {} | IS {}\n",
                    wins.get("WS").copied().unwrap_or(0),
                    wins.get("OS").copied().unwrap_or(0),
                    wins.get("IS").copied().unwrap_or(0)
                ));

                let mut m = BTreeMap::new();
                m.insert("rows".to_string(), util::labeled_rows_value(&rows));
                m.insert("report".to_string(), Value::Str(text));
                Ok(Value::Map(m))
            }),
    );

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .dep("sweep")
            .emit("ablation_dataflow.csv")
            .runs(|deps| {
                let rows = util::value_labeled_rows(
                    deps[0].get("rows").ok_or("sweep artifact missing rows")?,
                )?;
                Ok(Value::Str(format_labeled_csv(
                    "workload,geo_gain,ws_wins,os_wins,is_wins",
                    &rows,
                )))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .dep("sweep")
            .print()
            .runs(|deps| {
                Ok(Value::Str(
                    deps[0]
                        .get("report")
                        .and_then(Value::as_str)
                        .ok_or("sweep artifact missing report")?
                        .to_string(),
                ))
            }),
    );

    FlowGraph::new(nodes)
}
