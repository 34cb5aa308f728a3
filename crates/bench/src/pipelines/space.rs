//! Latent-space structure pipelines: Figs. 4, 5, 7/8, and 9.
//!
//! These share the standard dataset node and differ in which models they
//! train (2-D and/or 4-D, α sweep) and how they probe the latent space.
//! Report nodes whose historical stdout embeds an output path run under
//! [`CachePolicy::Never`] and format the path from the live `--out`
//! directory, so a warm cache never replays a stale path.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use super::{dataset_node, train_node, PipelineEnv, TrainArtifact};
use vaesa::flows::HardwareEvaluator;
use vaesa::interpolate::interpolate_worst_best;
use vaesa::Dataset;
use vaesa_accel::workloads;
use vaesa_flow::{format_csv, CachePolicy, FlowGraph, NodeSpec, StageKind, Value};
use vaesa_linalg::stats;
use vaesa_nn::Tensor;
use vaesa_plot::{Heatmap, LineChart, ScatterChart, Series};

// ---------------------------------------------------------------- Fig. 4

pub(super) fn build_fig04(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 2, 1e-4, epochs),
    ];

    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("viz", StageKind::Custom("encode".into()))
            .dep("dataset")
            .dep("train")
            .param("workload", "resnet50")
            .runs(move |deps| {
                let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                let trained = deps[1]
                    .as_mem::<TrainArtifact>()
                    .ok_or("model unavailable")?;
                let (model, history) = (&trained.0, &trained.1);
                let resnet = workloads::resnet50();
                // One point per unique architecture, colored by the
                // whole-workload (ResNet-50) EDP of that architecture — the
                // paper's "current workload".
                let mut seen = HashSet::new();
                let mut rows = Vec::new();
                for r in &dataset.records {
                    if !seen.insert(r.config) {
                        continue;
                    }
                    let arch = env2.setup.space.describe(&r.config);
                    let Ok(w) = env2.setup.scheduler.schedule_workload(&arch, &resnet) else {
                        continue;
                    };
                    let normalized = dataset.hw_norm.transform_row(&r.hw_raw);
                    let z = model.encode_mean(&Tensor::row_vector(&normalized));
                    let total_macs = r.hw_raw[0] * r.hw_raw[1];
                    rows.push(vec![
                        z.get(0, 0),
                        z.get(0, 1),
                        total_macs,
                        r.hw_raw[5], // global buffer bytes
                        w.edp(),
                    ]);
                }
                let mut m = BTreeMap::new();
                m.insert("rows".to_string(), Value::table(&rows));
                m.insert(
                    "final_losses".to_string(),
                    Value::Str(format!("{:?}", history.last())),
                );
                Ok(Value::Map(m))
            }),
    );

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .dep("viz")
            .emit("fig04_latent_viz.csv")
            .runs(|deps| {
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("viz artifact missing rows")?;
                Ok(Value::Str(format_csv(
                    "z1,z2,total_macs,global_buf_bytes,resnet50_edp",
                    &rows,
                )))
            }),
    );

    for (col, label, file) in [
        (2usize, "total MACs", "fig04a_macs.svg"),
        (3, "global buffer bytes", "fig04b_globalbuf.svg"),
        (4, "ResNet-50 EDP", "fig04c_edp.svg"),
    ] {
        nodes.push(
            NodeSpec::new(
                format!("render_{}", file.trim_end_matches(".svg")),
                StageKind::Render,
            )
            .dep("viz")
            .emit(file)
            .runs(move |deps| {
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("viz artifact missing rows")?;
                let mut chart = ScatterChart::new(
                    format!("latent encodings colored by {label} (Fig. 4)"),
                    "latent dim 1",
                    "latent dim 2",
                    label,
                );
                chart.log_color();
                chart.points(rows.iter().map(|r| (r[0], r[1], r[col])));
                Ok(Value::Str(chart.render()))
            }),
        );
    }

    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .dep("viz")
            .policy(CachePolicy::Never)
            .print()
            .runs(move |deps| {
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("viz artifact missing rows")?;
                let losses = deps[0]
                    .get("final_losses")
                    .and_then(Value::as_str)
                    .ok_or("viz artifact missing final_losses")?;
                let mut text = format!("final losses: {losses}\n");
                text.push_str(&format!(
                    "wrote {} ({} unique architectures)\n",
                    env2.args.out_dir.join("fig04_latent_viz.csv").display(),
                    rows.len()
                ));
                // Quantify "grouped by feature values": each colored
                // quantity should be predictable from the latent position.
                let z1: Vec<f64> = rows.iter().map(|r| r[0]).collect();
                let z2: Vec<f64> = rows.iter().map(|r| r[1]).collect();
                text.push_str("\nlatent-structure summary (|Spearman| vs best latent axis):\n");
                for (name, col) in [("total MACs", 2usize), ("global buffer", 3), ("EDP", 4)] {
                    let vals: Vec<f64> = rows.iter().map(|r| r[col].ln()).collect();
                    let s1 = stats::spearman(&z1, &vals).unwrap_or(0.0).abs();
                    let s2 = stats::spearman(&z2, &vals).unwrap_or(0.0).abs();
                    text.push_str(&format!("  {name:>14}: {:.3}\n", s1.max(s2)));
                }
                let macs: Vec<f64> = rows.iter().map(|r| r[2].ln()).collect();
                let edp: Vec<f64> = rows.iter().map(|r| r[4].ln()).collect();
                let corr = stats::spearman(&macs, &edp).unwrap_or(0.0);
                text.push_str(&format!(
                    "\nSpearman(log MACs, log ResNet-50 EDP) = {corr:.3} (paper: strongly negative)\n"
                ));
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}

// ---------------------------------------------------------------- Fig. 5

pub(super) fn build_fig05(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let grid_n = args.pick(9, 21, 31);
    let half = 2.5;

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 2, 1e-4, epochs),
    ];

    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("grid", StageKind::Custom("grid".into()))
            .dep("dataset")
            .dep("train")
            .param("grid_n", grid_n)
            .param("half", half)
            .runs(move |deps| {
                let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                let trained = deps[1]
                    .as_mem::<TrainArtifact>()
                    .ok_or("model unavailable")?;
                let model = &trained.0;
                let resnet = workloads::resnet50();
                let evaluator =
                    HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &resnet);
                vaesa_obs::progress!(
                    "probing a {grid_n}x{grid_n} latent grid over [-{half}, {half}]^2 ..."
                );
                let mut rows = Vec::new();
                for iy in 0..grid_n {
                    for ix in 0..grid_n {
                        let z1 = -half + 2.0 * half * ix as f64 / (grid_n - 1) as f64;
                        let z2 = -half + 2.0 * half * iy as f64 / (grid_n - 1) as f64;
                        let z = Tensor::row_vector(&[z1, z2]);

                        // Predicted whole-network latency/energy: sum the
                        // denormalized per-layer predictions (§IV-D).
                        let mut pred_lat = 0.0;
                        let mut pred_en = 0.0;
                        for layer in &resnet {
                            let ln = dataset.layer_norm.transform_row(&layer.features());
                            let (l, e) = model.predict(&z, &Tensor::row_vector(&ln));
                            pred_lat += dataset.latency_norm.inverse_row(&[l.get(0, 0)])[0];
                            pred_en += dataset.energy_norm.inverse_row(&[e.get(0, 0)])[0];
                        }

                        // Real surface: decode, snap, schedule.
                        let config = vaesa::flows::decode_to_config(
                            model,
                            &[z1, z2],
                            &dataset.hw_norm,
                            &evaluator,
                        );
                        let arch = env2.setup.space.describe(&config);
                        let (real_lat, real_en) =
                            match env2.setup.scheduler.schedule_workload(&arch, &resnet) {
                                Ok(w) => (w.total_latency_cycles, w.total_energy_pj),
                                Err(_) => (f64::NAN, f64::NAN),
                            };
                        rows.push(vec![z1, z2, pred_lat, pred_en, real_lat, real_en]);
                    }
                }
                Ok(Value::table(&rows))
            }),
    );

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .dep("grid")
            .emit("fig05_predictor_surface.csv")
            .runs(|deps| {
                let rows = deps[0].to_table().ok_or("grid artifact not a table")?;
                Ok(Value::Str(format_csv(
                    "z1,z2,pred_latency,pred_energy,real_latency,real_energy",
                    &rows,
                )))
            }),
    );

    for (col, label, file) in [
        (2usize, "predicted latency", "fig05a_pred_latency.svg"),
        (4, "real latency", "fig05b_real_latency.svg"),
        (3, "predicted energy", "fig05c_pred_energy.svg"),
        (5, "real energy", "fig05d_real_energy.svg"),
    ] {
        nodes.push(
            NodeSpec::new(
                format!("render_{}", file.trim_end_matches(".svg")),
                StageKind::Render,
            )
            .dep("grid")
            .emit(file)
            .runs(move |deps| {
                let rows = deps[0].to_table().ok_or("grid artifact not a table")?;
                let mut hm = Heatmap::new(
                    format!("{label} over the latent space (Fig. 5)"),
                    "latent dim 1",
                    "latent dim 2",
                    label,
                );
                hm.log_color();
                hm.cells(
                    rows.iter()
                        .filter(|r| r[col].is_finite() && r[col] > 0.0)
                        .map(|r| (r[0], r[1], r[col])),
                );
                Ok(Value::Str(hm.render()))
            }),
        );
    }

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .dep("grid")
            .print()
            .runs(|deps| {
                let rows = deps[0].to_table().ok_or("grid artifact not a table")?;
                let mut text = String::new();
                // Quantify surface agreement, inside and outside the data
                // region.
                let inside = |r: &Vec<f64>| (r[0] * r[0] + r[1] * r[1]).sqrt() <= 1.5;
                for (region, filter) in [("inside r<=1.5", true), ("outside r>1.5", false)] {
                    let sel: Vec<&Vec<f64>> = rows
                        .iter()
                        .filter(|r| inside(r) == filter && r[4].is_finite())
                        .collect();
                    if sel.len() < 4 {
                        continue;
                    }
                    let pl: Vec<f64> = sel.iter().map(|r| r[2].ln()).collect();
                    let rl: Vec<f64> = sel.iter().map(|r| r[4].ln()).collect();
                    let pe: Vec<f64> = sel.iter().map(|r| r[3].ln()).collect();
                    let re: Vec<f64> = sel.iter().map(|r| r[5].ln()).collect();
                    text.push_str(&format!(
                        "{region}: Spearman latency {:.3}, energy {:.3} ({} points)\n",
                        stats::spearman(&pl, &rl).unwrap_or(f64::NAN),
                        stats::spearman(&pe, &re).unwrap_or(f64::NAN),
                        sel.len()
                    ));
                }
                text.push_str("(paper: accurate inside the data region, qualitative outside)\n");
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}

// ------------------------------------------------------------- Figs. 7-8

pub(super) fn build_fig07(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let n_inner = args.pick(8, 20, 40);
    let n_beyond = args.pick(3, 8, 16);

    let mut nodes = vec![dataset_node(env, n_configs)];
    let mut interp_ids = Vec::new();
    for dz in [2usize, 4] {
        let train_id = format!("train_dz{dz}");
        nodes.push(train_node(env, &train_id, dz, 1e-4, epochs));
        let interp_id = format!("interp_dz{dz}");
        nodes.push(
            NodeSpec::new(&interp_id, StageKind::Custom("interp".into()))
                .dep("dataset")
                .dep(&train_id)
                .param("layer", "resnet50[6]")
                .param("n_inner", n_inner)
                .param("n_beyond", n_beyond)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[1]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    // Probe along the axis for a representative ResNet-50
                    // layer (3x3 s2_conv3, 28x28).
                    let layer_raw = workloads::resnet50()[6].features();
                    let interp =
                        interpolate_worst_best(&trained.0, &dataset, &layer_raw, n_inner, n_beyond);
                    let mut text = format!(
                        "{dz}-D latent space: |z_best - z_worst| = {:.3} (paper: {} )\n",
                        interp.worst_best_distance(),
                        if dz == 2 { "0.96" } else { "2.58" }
                    );
                    text.push_str(&format!(
                        "monotonicity of predicted EDP along worst->best: {:.2}\n",
                        interp.monotonicity()
                    ));
                    let start = interp.points.first().expect("points").predicted_edp;
                    let at_best = interp
                        .points
                        .iter()
                        .min_by(|a, b| {
                            (a.t - 1.0)
                                .abs()
                                .partial_cmp(&(b.t - 1.0).abs())
                                .expect("finite")
                        })
                        .expect("points")
                        .predicted_edp;
                    text.push_str(&format!(
                        "predicted EDP: worst {start:.3e} -> best {at_best:.3e}\n"
                    ));
                    let rows: Vec<Vec<f64>> = interp
                        .points
                        .iter()
                        .map(|p| vec![dz as f64, p.t, p.predicted_edp])
                        .collect();
                    let mut m = BTreeMap::new();
                    m.insert("rows".to_string(), Value::table(&rows));
                    m.insert("report".to_string(), Value::Str(text));
                    Ok(Value::Map(m))
                }),
        );
        interp_ids.push(interp_id);
    }

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .deps(interp_ids.clone())
            .emit("fig07_interpolation.csv")
            .runs(|deps| {
                let mut rows = Vec::new();
                for dep in deps {
                    rows.extend(
                        dep.get("rows")
                            .and_then(Value::to_table)
                            .ok_or("interp artifact missing rows")?,
                    );
                }
                Ok(Value::Str(format_csv("latent_dim,t,predicted_edp", &rows)))
            }),
    );

    nodes.push(
        NodeSpec::new("render", StageKind::Render)
            .deps(interp_ids.clone())
            .emit("fig07_interpolation.svg")
            .runs(|deps| {
                let mut all_rows = Vec::new();
                for dep in deps {
                    all_rows.extend(
                        dep.get("rows")
                            .and_then(Value::to_table)
                            .ok_or("interp artifact missing rows")?,
                    );
                }
                let mut chart = LineChart::new(
                    "predicted EDP along the worst-to-best axis (Figs. 7-8)",
                    "interpolation t (0 = worst, 1 = best)",
                    "predicted EDP",
                );
                chart.log_y();
                for dz in [2.0f64, 4.0] {
                    chart.series(Series::new(
                        format!("{}-D latent", dz as usize),
                        all_rows
                            .iter()
                            .filter(|r| r[0] == dz)
                            .map(|r| (r[1], r[2]))
                            .collect(),
                    ));
                }
                Ok(Value::Str(chart.render()))
            }),
    );

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .deps(interp_ids)
            .print()
            .runs(|deps| {
                let mut text = String::new();
                for dep in deps {
                    text.push_str(
                        dep.get("report")
                            .and_then(Value::as_str)
                            .ok_or("interp artifact missing report")?,
                    );
                }
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}

// ---------------------------------------------------------------- Fig. 9

const ALPHAS: [f64; 3] = [0.0, 1e-4, 1e-2];

pub(super) fn build_fig09(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);

    let mut nodes = vec![dataset_node(env, n_configs)];
    let mut encode_ids = Vec::new();
    for (i, alpha) in ALPHAS.into_iter().enumerate() {
        let train_id = format!("train_alpha{i}");
        nodes.push(train_node(env, &train_id, 2, alpha, epochs));
        let encode_id = format!("encode_alpha{i}");
        nodes.push(
            NodeSpec::new(&encode_id, StageKind::Custom("encode".into()))
                .dep("dataset")
                .dep(&train_id)
                .param("alpha_index", i)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[1]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    let (model, history) = (&trained.0, &trained.1);
                    let z = model.encode_mean(&dataset.hw);
                    let z1: Vec<f64> = (0..z.rows()).map(|r| z.get(r, 0)).collect();
                    let z2: Vec<f64> = (0..z.rows()).map(|r| z.get(r, 1)).collect();
                    let spread = |v: &[f64]| {
                        stats::quantile(v, 0.99).unwrap_or(0.0)
                            - stats::quantile(v, 0.01).unwrap_or(0.0)
                    };
                    let std1 = stats::std_dev(&z1).unwrap_or(0.0);
                    let std2 = stats::std_dev(&z2).unwrap_or(0.0);
                    let recon = history.last().recon;
                    let line = format!(
                        "  encoding std = ({std1:.3}, {std2:.3}), 98% spread = ({:.2}, {:.2}), final recon loss = {recon:.5}\n",
                        spread(&z1),
                        spread(&z2),
                    );
                    let mut rows = Vec::new();
                    for r in 0..z.rows().min(3000) {
                        let macs = dataset.records[r].hw_raw[0] * dataset.records[r].hw_raw[1];
                        rows.push(vec![i as f64, z.get(r, 0), z.get(r, 1), macs]);
                    }
                    let mut m = BTreeMap::new();
                    m.insert("rows".to_string(), Value::table(&rows));
                    m.insert(
                        "summary".to_string(),
                        Value::floats([alpha, std1.max(std2), recon]),
                    );
                    m.insert("line".to_string(), Value::Str(line));
                    Ok(Value::Map(m))
                }),
        );
        encode_ids.push(encode_id);
    }

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .deps(encode_ids.clone())
            .emit("fig09_alpha_ablation.csv")
            .runs(|deps| {
                let mut rows = Vec::new();
                for dep in deps {
                    rows.extend(
                        dep.get("rows")
                            .and_then(Value::to_table)
                            .ok_or("encode artifact missing rows")?,
                    );
                }
                Ok(Value::Str(format_csv(
                    "alpha_index,z1,z2,total_macs",
                    &rows,
                )))
            }),
    );

    nodes.push(
        NodeSpec::new("render", StageKind::Render)
            .deps(encode_ids.clone())
            .emit("fig09_alpha_ablation.svg")
            .runs(|deps| {
                let mut rows = Vec::new();
                for dep in deps {
                    rows.extend(
                        dep.get("rows")
                            .and_then(Value::to_table)
                            .ok_or("encode artifact missing rows")?,
                    );
                }
                // All three encodings on one chart, colored by α index, so
                // the spread ordering reads directly.
                let mut chart = ScatterChart::new(
                    "2-D latent encodings by KL weight (Fig. 9; color: 0 => alpha 0, 1 => 1e-4, 2 => 1e-2)",
                    "latent dim 1",
                    "latent dim 2",
                    "alpha index",
                );
                chart.points(rows.iter().map(|r| (r[1], r[2], r[0])));
                Ok(Value::Str(chart.render()))
            }),
    );

    let env2 = Arc::clone(env);
    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .deps(encode_ids)
            .policy(CachePolicy::Never)
            .print()
            .runs(move |deps| {
                let mut text = String::new();
                let mut summary = Vec::new();
                for dep in deps {
                    text.push_str(
                        dep.get("line")
                            .and_then(Value::as_str)
                            .ok_or("encode artifact missing line")?,
                    );
                    let s = dep
                        .get("summary")
                        .and_then(Value::to_floats)
                        .ok_or("encode artifact missing summary")?;
                    summary.push((s[0], s[1], s[2]));
                }
                text.push_str(&format!(
                    "\nwrote {} (alpha_index: 0 => 0, 1 => 1e-4, 2 => 1e-2)\n",
                    env2.args.out_dir.join("fig09_alpha_ablation.csv").display()
                ));
                text.push_str("\nsummary (alpha, max encoding std, final recon loss):\n");
                for (alpha, spread, recon) in &summary {
                    text.push_str(&format!(
                        "  alpha={alpha:>8.0e}  std={spread:>7.3}  recon={recon:.5}\n"
                    ));
                }
                text.push_str("\nexpected shape (paper):\n");
                text.push_str("  - spread(alpha=0) > spread(1e-4) > spread(1e-2) ~ 1\n");
                text.push_str("  - recon(1e-4) < recon(1e-2); alpha=1e-2 is near-random\n");
                let s0 = summary[0].1;
                let s1 = summary[1].1;
                let s2 = summary[2].1;
                text.push_str(&format!(
                    "measured: spread ordering {}, recon(1e-4) {} recon(1e-2)\n",
                    if s0 >= s1 && s1 >= s2 {
                        "HOLDS"
                    } else {
                        "DIFFERS"
                    },
                    if summary[1].2 <= summary[2].2 {
                        "<="
                    } else {
                        ">"
                    },
                ));
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}
