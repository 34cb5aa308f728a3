//! Figure 13 pipeline: EDP of decoded designs after 0/100/200
//! gradient-descent steps from random latent starts, on three unseen
//! layers.
//!
//! Graph shape: `dataset → train → gd_l<i> (one per layer) →
//! {csv,render,report}`. Each layer node persists its `(layer, start,
//! edp@0, edp@100, edp@200)` rows for the valid starts.

use std::sync::Arc;

use super::{dataset_node, train_node, PipelineEnv, TrainArtifact};
use vaesa::flows::{latent_box, vae_gd_edp_at_steps, HardwareEvaluator};
use vaesa::Dataset;
use vaesa_accel::workloads;
use vaesa_dse::GdConfig;
use vaesa_flow::{format_csv, FlowGraph, NodeSpec, StageKind, Value};
use vaesa_linalg::stats;
use vaesa_plot::Histogram;

const CSV_HEADER: &str = "layer_index,start,edp_step0,edp_step100,edp_step200";
const STEP_COUNTS: [usize; 3] = [0, 100, 200];

pub(super) fn build(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let starts = args.budget.unwrap_or(args.pick(20, 80, 200));

    // A diverse subset of the Table IV test layers.
    let test = workloads::gd_test_layers();
    let layers = [test[3].clone(), test[6].clone(), test[11].clone()];
    let layer_names: Vec<String> = layers.iter().map(|l| l.name().to_string()).collect();

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 4, 1e-4, epochs),
    ];

    let mut gd_ids = Vec::new();
    for (li, layer) in layers.iter().enumerate() {
        let gd_id = format!("gd_l{li}");
        gd_ids.push(gd_id.clone());
        let env2 = Arc::clone(env);
        let layer = layer.clone();
        nodes.push(
            NodeSpec::new(&gd_id, StageKind::Engine("vae_gd".into()))
                .dep("dataset")
                .dep("train")
                .param("layer", layer.name())
                .param("stream_base", li)
                .param("starts", starts)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[1]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    let gd_cfg = GdConfig {
                        steps: 200,
                        ..GdConfig::default()
                    };
                    let space = latent_box(&trained.0, &dataset);
                    let single = vec![layer.clone()];
                    let evaluator =
                        HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &single);
                    let mut rng = env2.args.rng(30_000 + li as u64);
                    let mut rows = Vec::new();
                    for s in 0..starts {
                        let start = space.sample(&mut rng);
                        let edps = vae_gd_edp_at_steps(
                            &evaluator,
                            &trained.0,
                            &dataset,
                            &layer,
                            &start,
                            &STEP_COUNTS,
                            gd_cfg,
                        );
                        if let (Some(e0), Some(e100), Some(e200)) = (edps[0], edps[1], edps[2]) {
                            rows.push(vec![li as f64, s as f64, e0, e100, e200]);
                        }
                    }
                    Ok(Value::table(&rows))
                }),
        );
    }

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .deps(gd_ids.clone())
            .emit("fig13_gd_steps.csv")
            .runs(|deps| {
                let mut rows = Vec::new();
                for dep in deps {
                    rows.extend(dep.to_table().ok_or("layer artifact not a table")?);
                }
                Ok(Value::Str(format_csv(CSV_HEADER, &rows)))
            }),
    );

    nodes.push(
        NodeSpec::new("render", StageKind::Render)
            .deps(gd_ids.clone())
            .emit("fig13_gd_steps.svg")
            .runs(|deps| {
                let mut hist = Histogram::new(
                    "per-start EDP improvement after 200 GD steps (Fig. 13)",
                    "EDP(start) / EDP(200 steps)",
                );
                hist.log_x();
                let mut improvements = Vec::new();
                for dep in deps {
                    for row in dep.to_table().ok_or("layer artifact not a table")? {
                        improvements.push((row[2] / row[4]).ln().exp());
                    }
                }
                hist.values(improvements);
                Ok(Value::Str(hist.render()))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .deps(gd_ids)
            .print()
            .runs(move |deps| {
                let mut text = String::new();
                let mut log_improve_100 = Vec::new();
                let mut log_improve_200 = Vec::new();
                let mut total = 0usize;
                for (li, dep) in deps.iter().enumerate() {
                    let rows = dep.to_table().ok_or("layer artifact not a table")?;
                    total += rows.len();
                    for row in &rows {
                        log_improve_100.push((row[2] / row[3]).ln());
                        log_improve_200.push((row[2] / row[4]).ln());
                    }
                    text.push_str(&format!(
                        "layer {:>4}: {total} valid starts so far\n",
                        layer_names[li]
                    ));
                }
                // Geometric-mean improvement factors (EDPs span orders of
                // magnitude).
                let geo = |logs: &[f64]| stats::mean(logs).map(f64::exp).unwrap_or(f64::NAN);
                let g100 = geo(&log_improve_100);
                let g200 = geo(&log_improve_200);
                text.push_str("\ngeometric-mean EDP improvement over the random start:\n");
                text.push_str(&format!("  after 100 steps: {g100:.2}x (paper: 306x)\n"));
                text.push_str(&format!("  after 200 steps: {g200:.2}x (paper: 390x)\n"));
                text.push_str(&format!(
                    "  monotone in steps: {}\n",
                    if g200 >= g100 * 0.98 {
                        "yes (matches paper; see EXPERIMENTS.md on the magnitude gap)"
                    } else {
                        "no"
                    }
                ));
                let improved = log_improve_200.iter().filter(|v| **v > 0.0).count();
                text.push_str(&format!(
                    "  starts improved after 200 steps: {improved}/{}\n",
                    log_improve_200.len()
                ));
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}
