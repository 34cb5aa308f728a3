//! Figure 12 pipeline: average EDP of `vae_gd` vs `gd` vs `random` over
//! the 12 unseen Table IV layers at small sample budgets.
//!
//! Graph shape: `dataset → {train, input_preds} → search_l<li> (one per
//! unseen layer) → agg → {csv,render,report}`. Each search node persists
//! its layer's normalized best-so-far curves, so adding a layer or
//! tweaking the plot re-runs only what changed.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::util;
use super::{dataset_node, train_node, PipelineEnv, TrainArtifact};
use vaesa::flows::{run_gd, run_random_layer, run_vae_gd, HardwareEvaluator};
use vaesa::{Dataset, InputPredictors, TrainConfig, Trainer};
use vaesa_accel::workloads;
use vaesa_dse::GdConfig;
use vaesa_flow::{format_csv, CachePolicy, FlowGraph, NodeSpec, StageKind, Value};
use vaesa_linalg::stats;
use vaesa_plot::{LineChart, Series};

const METHODS: [&str; 3] = ["vae_gd", "gd", "random"];
const CSV_HEADER: &str = "sample,vae_gd_mean,vae_gd_std,gd_mean,gd_std,random_mean,random_std";

/// Decodes the `agg` artifact: per method, per sample `(mean, std)`.
fn decode_agg(value: &Value) -> Result<Vec<Vec<(f64, f64)>>, String> {
    value
        .as_list()
        .ok_or("agg artifact is not a list")?
        .iter()
        .map(|t| {
            Ok(t.to_table()
                .ok_or("agg method entry is not a table")?
                .into_iter()
                .map(|row| (row[0], row[1]))
                .collect())
        })
        .collect()
}

pub(super) fn build(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let samples = args.budget.unwrap_or(args.pick(10, 40, 60));
    let seeds = args.pick(2, 5, 5);
    let test_layers = workloads::gd_test_layers();
    vaesa_obs::progress!(
        "{samples} samples x {seeds} seeds x {} layers\n",
        test_layers.len()
    );

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 4, 1e-4, epochs),
    ];

    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("input_preds", StageKind::Train)
            .dep("dataset")
            .param("hidden", "64,32")
            .param("epochs", epochs)
            .policy(CachePolicy::Stamp)
            .runs(move |deps| {
                let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                vaesa_obs::progress!("training input-space predictors ({epochs} epochs)...");
                let mut preds = InputPredictors::new(&[64, 32], &mut env2.args.rng(3_000));
                preds.train(
                    &Trainer::new(TrainConfig {
                        epochs,
                        batch_size: 64,
                        learning_rate: 1e-3,
                    }),
                    &dataset,
                    &mut env2.args.rng(3_001),
                );
                Ok(Value::mem(preds))
            }),
    );

    let mut search_ids = Vec::new();
    for (li, layer) in test_layers.iter().enumerate() {
        let search_id = format!("search_l{li:02}");
        search_ids.push(search_id.clone());
        let env2 = Arc::clone(env);
        let layer = layer.clone();
        nodes.push(
            NodeSpec::new(&search_id, StageKind::Engine("gd".into()))
                .dep("dataset")
                .dep("train")
                .dep("input_preds")
                .param("layer", layer.name())
                .param("stream_base", li)
                .param("samples", samples)
                .param("seeds", seeds)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[1]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    let input_preds = deps[2]
                        .as_mem::<InputPredictors>()
                        .ok_or("input predictors unavailable")?;
                    env2.expect_evals(samples * seeds * 3);
                    let single = vec![layer.clone()];
                    let evaluator =
                        HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &single);
                    let gd_cfg = GdConfig::default();
                    let mut per_layer: [Vec<Vec<f64>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
                    for seed in 0..seeds {
                        let stream = |m: u64| 20_000 + (li as u64) * 100 + (seed as u64) * 10 + m;
                        let traces = [
                            run_vae_gd(
                                &evaluator,
                                &trained.0,
                                &dataset,
                                &layer,
                                samples,
                                gd_cfg,
                                &mut env2.args.rng(stream(0)),
                            ),
                            run_gd(
                                &evaluator,
                                &input_preds,
                                &dataset,
                                &layer,
                                samples,
                                gd_cfg,
                                &mut env2.args.rng(stream(1)),
                            ),
                            run_random_layer(
                                &evaluator,
                                &dataset.hw_norm,
                                samples,
                                &mut env2.args.rng(stream(2)),
                            ),
                        ];
                        for (m, t) in traces.iter().enumerate() {
                            per_layer[m].push(util::filled(t, samples));
                        }
                    }
                    // Normalize by the best value any method found on this
                    // layer, so layers with wildly different EDP scales can
                    // be averaged.
                    let best_known = per_layer
                        .iter()
                        .flatten()
                        .flatten()
                        .copied()
                        .filter(|v| v.is_finite())
                        .fold(f64::INFINITY, f64::min);
                    let curves: Vec<Value> = per_layer
                        .iter()
                        .map(|runs| {
                            let rows: Vec<Vec<f64>> = runs
                                .iter()
                                .map(|c| c.iter().map(|v| v / best_known).collect())
                                .collect();
                            Value::table(&rows)
                        })
                        .collect();
                    vaesa_obs::progress!(
                        "layer {:>4} done (best known EDP {best_known:.3e})",
                        layer.name()
                    );
                    let mut m = BTreeMap::new();
                    m.insert("curves".to_string(), Value::List(curves));
                    m.insert("best_known".to_string(), Value::F64(best_known));
                    Ok(Value::Map(m))
                }),
        );
    }

    // Pool the normalized curves across layers (in layer order) and reduce
    // to per-sample mean/std per method.
    nodes.push(
        NodeSpec::new("agg", StageKind::Custom("aggregate".into()))
            .deps(search_ids.clone())
            .runs(move |deps| {
                let mut pooled: [Vec<Vec<f64>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
                for dep in deps {
                    let curves = dep
                        .get("curves")
                        .and_then(Value::as_list)
                        .ok_or("layer artifact missing curves")?;
                    for (m, t) in curves.iter().enumerate() {
                        pooled[m].extend(t.to_table().ok_or("layer curves not a table")?);
                    }
                }
                let agg: Vec<Value> = pooled
                    .iter()
                    .map(|c| {
                        let pairs = stats::mean_std_curves(c).expect("aligned");
                        let rows: Vec<Vec<f64>> =
                            pairs.into_iter().map(|(m, s)| vec![m, s]).collect();
                        Value::table(&rows)
                    })
                    .collect();
                Ok(Value::List(agg))
            }),
    );

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .dep("agg")
            .emit("fig12_gd.csv")
            .runs(move |deps| {
                let agg = decode_agg(&deps[0])?;
                let rows: Vec<Vec<f64>> = (0..samples)
                    .map(|i| {
                        vec![
                            (i + 1) as f64,
                            agg[0][i].0,
                            agg[0][i].1,
                            agg[1][i].0,
                            agg[1][i].1,
                            agg[2][i].0,
                            agg[2][i].1,
                        ]
                    })
                    .collect();
                Ok(Value::Str(format_csv(CSV_HEADER, &rows)))
            }),
    );

    nodes.push(
        NodeSpec::new("render", StageKind::Render)
            .dep("agg")
            .emit("fig12_gd.svg")
            .runs(move |deps| {
                let agg = decode_agg(&deps[0])?;
                let mut chart = LineChart::new(
                    "average normalized best EDP over the 12 unseen layers (Fig. 12)",
                    "samples (simulator queries)",
                    "best EDP / best known",
                );
                for (m, label) in METHODS.iter().enumerate() {
                    chart.series(
                        Series::new(
                            label.to_string(),
                            agg[m]
                                .iter()
                                .enumerate()
                                .map(|(i, &(mean, _))| ((i + 1) as f64, mean))
                                .collect(),
                        )
                        .with_band(agg[m].iter().map(|&(_, std)| std).collect()),
                    );
                }
                Ok(Value::Str(chart.render()))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .dep("agg")
            .print()
            .runs(move |deps| {
                let agg = decode_agg(&deps[0])?;
                let mut text = String::from("\nmean normalized best EDP (lower is better):\n");
                text.push_str(&format!(
                    "{:>8} {:>10} {:>10} {:>10}\n",
                    "samples", "vae_gd", "gd", "random"
                ));
                let mut checkpoints = vec![5usize, 10, 20, 30, samples];
                checkpoints.sort_unstable();
                checkpoints.dedup();
                for &s in &checkpoints {
                    if s > samples {
                        continue;
                    }
                    let i = s - 1;
                    text.push_str(&format!(
                        "{s:>8} {:>10.3} {:>10.3} {:>10.3}\n",
                        agg[0][i].0, agg[1][i].0, agg[2][i].0
                    ));
                }
                let at = samples.min(10) - 1;
                let vs_random = 100.0 * (1.0 - agg[0][at].0 / agg[2][at].0);
                let vs_gd = 100.0 * (1.0 - agg[0][at].0 / agg[1][at].0);
                for (m, name) in METHODS.iter().enumerate() {
                    let final_val = agg[m][samples - 1].0;
                    text.push_str(&format!(
                        "final mean normalized EDP for {name}: {final_val:.3}\n"
                    ));
                }
                text.push_str(&format!(
                    "\nat {} samples: vae_gd is {vs_random:.1}% better than random, \
                     {vs_gd:.1}% better than gd\n",
                    at + 1
                ));
                text.push_str(
                    "(paper: vae_gd 16% lower EDP than random at 10 samples, ahead of gd throughout)\n",
                );
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}
