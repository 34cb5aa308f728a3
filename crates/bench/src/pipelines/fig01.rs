//! Figure 1 pipeline: ResNet-50 latency/energy landscapes across the
//! accumulation-buffer share sweep.
//!
//! Graph shape: `sweep → {csv, render_latency, render_energy, report}`.
//! The sweep node persists both the numeric rows and the per-point sweep
//! log (valid and invalid points), so warm runs replay the exact stdout.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::PipelineEnv;
use vaesa_accel::{workloads, ArchDescription};
use vaesa_cosa::Scheduler;
use vaesa_flow::{format_csv, FlowGraph, NodeSpec, StageKind, Value};
use vaesa_plot::{LineChart, Series};

const CSV_HEADER: &str = "accum_pct,latency_cycles,energy_pj,edp";

pub(super) fn build(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let points = env.args.pick(16, 48, 96);

    let mut nodes = Vec::new();
    nodes.push(
        NodeSpec::new("sweep", StageKind::Custom("sweep".into()))
            .param("points", points)
            .runs(move |_| {
                let scheduler = Scheduler::default();
                let layers = workloads::resnet50();
                // 2.7 MB total buffer budget, split between the
                // accumulation buffer and the remaining buffers at fixed
                // relative proportions, as in Fig. 1.
                let total_budget: f64 = 2.7 * 1024.0 * 1024.0;
                let mut text = String::from(
                    "Figure 1: ResNet-50 latency/energy vs accumulation-buffer share\n",
                );
                text.push_str(&format!(
                    "total buffer budget: {:.1} KiB\n",
                    total_budget / 1024.0
                ));
                text.push_str(&format!(
                    "{:>8} {:>14} {:>14} {:>14}\n",
                    "accum%", "latency(cyc)", "energy(pJ)", "EDP"
                ));
                let mut rows = Vec::new();
                let pe_count = 16u64;
                for i in 1..=points {
                    // Sweep the accumulation share across (0, 90%) of the
                    // budget; the remaining bytes are split weight-heavy
                    // (as in Simba) between the weight, input, and global
                    // buffers. Per-PE buffers share the budget across all
                    // PEs.
                    let pct = i as f64 / (points + 1) as f64 * 0.90;
                    let accum_total = pct * total_budget;
                    let rest = total_budget - accum_total;
                    let accum = (accum_total / pe_count as f64) as u64;
                    let weight = (rest * 0.70 / pe_count as f64) as u64;
                    let input = (rest * 0.15 / pe_count as f64) as u64;
                    let global = (rest * 0.15) as u64;
                    let arch = ArchDescription {
                        pe_count,
                        macs_per_pe: 1024,
                        accum_buf_bytes: accum.max(64),
                        weight_buf_bytes: weight.max(256),
                        input_buf_bytes: input.max(128),
                        global_buf_bytes: global.max(256),
                    };
                    match scheduler.schedule_workload(&arch, &layers) {
                        Ok(w) => {
                            text.push_str(&format!(
                                "{:>7.1}% {:>14.4e} {:>14.4e} {:>14.4e}\n",
                                pct * 100.0,
                                w.total_latency_cycles,
                                w.total_energy_pj,
                                w.edp()
                            ));
                            rows.push(vec![
                                pct * 100.0,
                                w.total_latency_cycles,
                                w.total_energy_pj,
                                w.edp(),
                            ]);
                        }
                        Err(e) => {
                            text.push_str(&format!("{:>7.1}% invalid: {e}\n", pct * 100.0));
                        }
                    }
                }
                let mut m = BTreeMap::new();
                m.insert("rows".to_string(), Value::table(&rows));
                m.insert("text".to_string(), Value::Str(text));
                Ok(Value::Map(m))
            }),
    );

    nodes.push(
        NodeSpec::new("csv", StageKind::Csv)
            .dep("sweep")
            .emit("fig01_landscape.csv")
            .runs(|deps| {
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("sweep artifact missing rows")?;
                Ok(Value::Str(format_csv(CSV_HEADER, &rows)))
            }),
    );

    for (col, name, file) in [
        (1usize, "latency (cycles)", "fig01_latency.svg"),
        (2, "energy (pJ)", "fig01_energy.svg"),
    ] {
        nodes.push(
            NodeSpec::new(
                format!("render_{}", file.trim_end_matches(".svg")),
                StageKind::Render,
            )
            .dep("sweep")
            .emit(file)
            .runs(move |deps| {
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("sweep artifact missing rows")?;
                let mut chart = LineChart::new(
                    "ResNet-50 vs accumulation-buffer share (Fig. 1)",
                    "accum buffer (% of 2.7 MB)",
                    name,
                );
                chart.series(Series::new(
                    name,
                    rows.iter().map(|r| (r[0], r[col])).collect(),
                ));
                Ok(Value::Str(chart.render()))
            }),
        );
    }

    nodes.push(
        NodeSpec::new("report", StageKind::Report)
            .dep("sweep")
            .print()
            .runs(|deps| {
                let mut text = deps[0]
                    .get("text")
                    .and_then(Value::as_str)
                    .ok_or("sweep artifact missing text")?
                    .to_string();
                let rows = deps[0]
                    .get("rows")
                    .and_then(Value::to_table)
                    .ok_or("sweep artifact missing rows")?;
                // Quantify the paper's qualitative claim: the landscape is
                // irregular (non-monotone in both directions).
                let lat: Vec<f64> = rows.iter().map(|r| r[1]).collect();
                let en: Vec<f64> = rows.iter().map(|r| r[2]).collect();
                for (name, series) in [("latency", &lat), ("energy", &en)] {
                    let ups = series.windows(2).filter(|w| w[1] > w[0]).count();
                    let downs = series.windows(2).filter(|w| w[1] < w[0]).count();
                    text.push_str(&format!(
                        "{name}: {ups} increases, {downs} decreases across the sweep\n"
                    ));
                }
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}
