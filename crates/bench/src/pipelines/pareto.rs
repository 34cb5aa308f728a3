//! Pareto-front pipeline (§IV-A2): latency–energy tradeoff of the
//! designs explored by random search and `vae_bo` on ResNet-50.
//!
//! Graph shape: `dataset → train → {search_random, search_vae} → score →
//! {csv,render,report}`. The score node re-scores every visited design
//! through the shared scheduler and persists the scored rows plus the
//! rendered report text.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::util;
use super::{dataset_node, train_node, PipelineEnv, TrainArtifact};
use vaesa::flows::{decode_to_config, run_random, run_vae_bo, HardwareEvaluator};
use vaesa::pareto::{pareto_front, summarize_front, ScoredDesign};
use vaesa::Dataset;
use vaesa_accel::workloads;
use vaesa_flow::{format_csv, FlowGraph, NodeSpec, StageKind, Value};
use vaesa_plot::ScatterChart;

const CSV_HEADER: &str = "method,latency_cycles,energy_pj,edp,on_front";

pub(super) fn build(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let budget = args.budget.unwrap_or(args.pick(60, 300, 1000));
    vaesa_obs::progress!("searching ({budget} samples per method)...");

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 4, 1e-4, epochs),
    ];

    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("search_random", StageKind::Engine("random".into()))
            .dep("dataset")
            .param("network", "resnet50")
            .param("budget", budget)
            .runs(move |deps| {
                let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                let resnet = workloads::resnet50();
                let evaluator =
                    HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &resnet);
                let mut rng = env2.args.rng(80_000);
                let trace = run_random(&evaluator, &dataset.hw_norm, budget, &mut rng);
                Ok(util::trace_value(&trace))
            }),
    );

    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("search_vae", StageKind::Engine("vae_bo".into()))
            .dep("dataset")
            .dep("train")
            .param("network", "resnet50")
            .param("budget", budget)
            .runs(move |deps| {
                let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                let trained = deps[1]
                    .as_mem::<TrainArtifact>()
                    .ok_or("model unavailable")?;
                let resnet = workloads::resnet50();
                let evaluator =
                    HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &resnet);
                let mut rng = env2.args.rng(80_001);
                let trace = run_vae_bo(&evaluator, &trained.0, &dataset, budget, &mut rng);
                Ok(util::trace_value(&trace))
            }),
    );

    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("score", StageKind::Custom("pareto".into()))
            .dep("search_random")
            .dep("search_vae")
            .dep("dataset")
            .dep("train")
            .runs(move |deps| {
                let random_trace = util::value_trace(&deps[0])?;
                let vae_trace = util::value_trace(&deps[1])?;
                let dataset = deps[2].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                let trained = deps[3]
                    .as_mem::<TrainArtifact>()
                    .ok_or("model unavailable")?;
                let resnet = workloads::resnet50();
                let evaluator =
                    HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &resnet);
                let score = |config: &vaesa_accel::ArchConfig| -> Option<ScoredDesign> {
                    evaluator.workload_eval(config).map(|w| ScoredDesign {
                        config: *config,
                        latency: w.total_latency_cycles,
                        energy: w.total_energy_pj,
                    })
                };

                let mut scored: Vec<(u8, ScoredDesign)> = Vec::new();
                for s in random_trace.samples() {
                    let config = evaluator.snap(&s.x, &dataset.hw_norm);
                    if let Some(d) = score(&config) {
                        scored.push((0, d));
                    }
                }
                for s in vae_trace.samples() {
                    let config = decode_to_config(&trained.0, &s.x, &dataset.hw_norm, &evaluator);
                    if let Some(d) = score(&config) {
                        scored.push((1, d));
                    }
                }

                let designs: Vec<ScoredDesign> = scored.iter().map(|(_, d)| *d).collect();
                let front = pareto_front(&designs);
                let summary = summarize_front(&designs);

                let mut rows = Vec::new();
                for (i, (method, d)) in scored.iter().enumerate() {
                    rows.push(vec![
                        *method as f64,
                        d.latency,
                        d.energy,
                        d.edp(),
                        front.contains(&i) as u8 as f64,
                    ]);
                }

                let from_vae = front.iter().filter(|&&i| scored[i].0 == 1).count();
                let mut text = format!(
                    "\njoint Pareto front: {} points ({} contributed by vae_bo, {} by random)\n",
                    summary.size,
                    from_vae,
                    summary.size - from_vae
                );
                let best = &designs[summary.edp_optimal];
                text.push_str(&format!(
                    "EDP-optimal front member: latency {:.3e}, energy {:.3e}, EDP {:.3e} (found by {})\n",
                    best.latency,
                    best.energy,
                    best.edp(),
                    if scored[summary.edp_optimal].0 == 1 {
                        "vae_bo"
                    } else {
                        "random"
                    },
                ));
                let lat_best = &designs[summary.latency_optimal];
                let en_best = &designs[summary.energy_optimal];
                text.push_str(&format!(
                    "front extremes: min latency {:.3e} cyc, min energy {:.3e} pJ\n",
                    lat_best.latency, en_best.energy
                ));

                let mut m = BTreeMap::new();
                m.insert("rows".to_string(), Value::table(&rows));
                m.insert("report".to_string(), Value::Str(text));
                Ok(Value::Map(m))
            }),
    );

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .dep("score")
            .emit("pareto_front.csv")
            .runs(|deps| {
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("score artifact missing rows")?;
                Ok(Value::Str(format_csv(CSV_HEADER, &rows)))
            }),
    );

    nodes.push(
        NodeSpec::new("render", StageKind::Render)
            .dep("score")
            .emit("pareto_front.svg")
            .runs(|deps| {
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("score artifact missing rows")?;
                let mut chart = ScatterChart::new(
                    "latency-energy tradeoff of explored ResNet-50 designs",
                    "latency (cycles)",
                    "energy (pJ)",
                    "EDP",
                );
                chart.log_color();
                chart.points(rows.iter().map(|r| (r[1], r[2], r[3])));
                Ok(Value::Str(chart.render()))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .dep("score")
            .print()
            .runs(|deps| {
                let text = deps[0]
                    .get("report")
                    .and_then(Value::as_str)
                    .ok_or("score artifact missing report")?;
                Ok(Value::Str(text.to_string()))
            }),
    );

    FlowGraph::new(nodes)
}
