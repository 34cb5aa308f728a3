//! Figure 11 + Table V pipeline: Bayesian optimization with and without
//! the VAESA latent space, per DNN workload.
//!
//! Graph shape, per network: `dataset → search_<net>` (random and bo in
//! the input space) and `dataset, train → search_<net>_vae` (vae_bo), both
//! feeding `{csv,render,report}_<net>`; plus a final Table V node over all
//! eight searches. The input-space searches need no model, so they run
//! while `train` does. The search nodes persist their traces, so a
//! plot-only tweak re-renders without re-searching.

use std::sync::Arc;

use super::util;
use super::{dataset_node, train_node, PipelineEnv, TrainArtifact};
use vaesa::flows::{decode_to_config, HardwareEvaluator};
use vaesa::report::{Comparison, MethodRuns};
use vaesa::{Dataset, DseDriver, SpaceMode};
use vaesa_accel::Network;
use vaesa_dse::{BoEngine, RandomEngine, Trace};
use vaesa_flow::{format_csv, CachePolicy, FlowGraph, NodeSpec, StageKind, Value};
use vaesa_linalg::stats;
use vaesa_plot::{LineChart, Series};

const METHODS: [&str; 3] = ["random", "bo", "vae_bo"];
const CSV_HEADER: &str = "sample,random_mean,random_std,bo_mean,bo_std,vae_bo_mean,vae_bo_std";

fn short_name(network: Network) -> String {
    network.name().to_lowercase().replace('-', "")
}

/// Per-sample (mean, std) aggregation of the filled best-so-far curves,
/// per method.
fn aggregated(traces: &[Vec<Trace>], budget: usize) -> Vec<Vec<(f64, f64)>> {
    traces
        .iter()
        .map(|runs| {
            let curves: Vec<Vec<f64>> =
                runs.iter().map(|t| util::curve_filled(t, budget)).collect();
            stats::mean_std_curves(&curves).expect("aligned curves")
        })
        .collect()
}

/// The `[random, bo, vae_bo]` trace groups of one network, from its
/// input-space and latent-space search nodes.
fn method_traces(direct: &Value, latent: &Value) -> Result<Vec<Vec<Trace>>, String> {
    let mut traces = util::value_trace_groups(direct)?;
    traces.extend(util::value_trace_groups(latent)?);
    Ok(traces)
}

fn comparison(traces: Vec<Vec<Trace>>, budget: usize) -> Comparison {
    let mut it = traces.into_iter();
    let random_runs = MethodRuns::new("random", it.next().expect("random"));
    let bo_runs = MethodRuns::new("bo", it.next().expect("bo"));
    let vae_runs = MethodRuns::new("vae_bo", it.next().expect("vae_bo"));
    Comparison::against_random(&random_runs, &[bo_runs, vae_runs], budget)
}

pub(super) fn build(env: &Arc<PipelineEnv>) -> Result<FlowGraph, String> {
    let args = &env.args;
    let n_configs = args.pick(60, 400, 1200);
    let epochs = args.pick(10, 40, 80);
    let budget = args.budget.unwrap_or(args.pick(60, 400, 2000));
    let seeds = args.pick(2, 3, 3);
    vaesa_obs::progress!("budget: {budget} samples, {seeds} seeds per method\n");

    let mut nodes = vec![
        dataset_node(env, n_configs),
        train_node(env, "train", 4, 1e-4, epochs),
    ];

    for (w, network) in Network::ALL.into_iter().enumerate() {
        let short = short_name(network);
        let search_id = format!("search_{short}");
        let vae_id = format!("search_{short}_vae");
        // One RNG stream per (network, seed, method), whichever node runs it.
        let stream =
            move |seed: usize, method: u64| 10_000 + (w as u64) * 100 + (seed as u64) * 10 + method;

        let env2 = Arc::clone(env);
        nodes.push(
            NodeSpec::new(&search_id, StageKind::Engine("bo".into()))
                .dep("dataset")
                .param("network", network.name())
                .param("stream_base", w)
                .param("budget", budget)
                .param("seeds", seeds)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    env2.expect_evals(budget * seeds * 2);
                    let layers = network.layers();
                    let evaluator =
                        HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &layers);
                    let driver = DseDriver::new(&evaluator, &dataset);
                    let bo = BoEngine::default();
                    let mut traces: Vec<Vec<Trace>> = vec![Vec::new(); 2];
                    for seed in 0..seeds {
                        let rng = |m| env2.args.rng(stream(seed, m));
                        traces[0].push(driver.run(
                            &RandomEngine,
                            SpaceMode::Direct,
                            budget,
                            &mut rng(0),
                        ));
                        traces[1].push(driver.run(&bo, SpaceMode::Direct, budget, &mut rng(1)));
                    }
                    Ok(util::trace_groups_value(&traces))
                }),
        );

        let env2 = Arc::clone(env);
        nodes.push(
            NodeSpec::new(&vae_id, StageKind::Engine("vae_bo".into()))
                .dep("dataset")
                .dep("train")
                .param("network", network.name())
                .param("stream_base", w)
                .param("budget", budget)
                .param("seeds", seeds)
                .runs(move |deps| {
                    let dataset = deps[0].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[1]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    env2.expect_evals(budget * seeds);
                    let layers = network.layers();
                    let evaluator =
                        HardwareEvaluator::new(&env2.setup.space, &env2.setup.scheduler, &layers);
                    let driver = DseDriver::new(&evaluator, &dataset).with_model(&trained.0);
                    let bo = BoEngine::default();
                    let traces: Vec<Trace> = (0..seeds)
                        .map(|seed| {
                            let mut rng = env2.args.rng(stream(seed, 2));
                            driver.run(&bo, SpaceMode::Latent, budget, &mut rng)
                        })
                        .collect();
                    Ok(util::trace_groups_value(&[traces]))
                }),
        );

        nodes.push(
            NodeSpec::new(format!("csv_{short}"), StageKind::Csv)
                .dep(&search_id)
                .dep(&vae_id)
                .emit(format!("fig11_{short}.csv"))
                .runs(move |deps| {
                    let traces = method_traces(&deps[0], &deps[1])?;
                    let agg = aggregated(&traces, budget);
                    let rows: Vec<Vec<f64>> = (0..budget)
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
            NodeSpec::new(format!("render_{short}"), StageKind::Render)
                .dep(&search_id)
                .dep(&vae_id)
                .emit(format!("fig11_{short}.svg"))
                .runs(move |deps| {
                    let traces = method_traces(&deps[0], &deps[1])?;
                    let agg = aggregated(&traces, budget);
                    let mut chart = LineChart::new(
                        format!("{network}: best EDP vs samples (Fig. 11)"),
                        "samples",
                        "best EDP (cycles*pJ)",
                    );
                    chart.log_y();
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

        let env2 = Arc::clone(env);
        nodes.push(
            NodeSpec::new(format!("report_{short}"), StageKind::Report)
                .dep(&search_id)
                .dep(&vae_id)
                .dep("dataset")
                .dep("train")
                .print()
                .runs(move |deps| {
                    let traces = method_traces(&deps[0], &deps[1])?;
                    let dataset = deps[2].as_mem::<Dataset>().ok_or("dataset unavailable")?;
                    let trained = deps[3]
                        .as_mem::<TrainArtifact>()
                        .ok_or("model unavailable")?;
                    let layers = network.layers();
                    let evaluator = HardwareEvaluator::new(
                        &env2.setup.space,
                        &env2.setup.scheduler,
                        &layers,
                    );
                    let mut text = format!("=== {network} ({} layers) ===\n", layers.len());

                    // Re-score the overall winning design through the
                    // shared scheduler; decode/snap are deterministic, so
                    // this reproduces a config scheduled during the search.
                    let winner = traces
                        .iter()
                        .enumerate()
                        .flat_map(|(m, runs)| runs.iter().map(move |t| (m, t)))
                        .filter_map(|(m, t)| t.best_value().map(|v| (m, t, v)))
                        .min_by(|a, b| a.2.total_cmp(&b.2));
                    if let Some((m, t, _)) = winner {
                        let point = t.best_point().expect("best value implies a best point");
                        let config = if m == 2 {
                            decode_to_config(&trained.0, point, &dataset.hw_norm, &evaluator)
                        } else {
                            evaluator.snap(point, &dataset.hw_norm)
                        };
                        let edp = evaluator.edp_of_config(&config).unwrap_or(f64::NAN);
                        text.push_str(&format!(
                            "  best design ({}): {} (EDP {edp:.3e})\n",
                            METHODS[m],
                            evaluator.space().describe(&config)
                        ));
                    }

                    let cmp = comparison(traces, budget);
                    for m in &cmp.methods {
                        text.push_str(&format!(
                            "  {:>8}: SP = {:.2}, SE = {:.2} (mean best EDP {:.3e}, samples-to-3% {:.0})\n",
                            m.label,
                            m.search_performance,
                            m.sample_efficiency,
                            m.mean_best,
                            m.mean_samples_to_3pct
                        ));
                    }
                    text.push('\n');
                    Ok(Value::Str(text))
                }),
        );
    }

    let search_ids: Vec<String> = Network::ALL
        .into_iter()
        .flat_map(|n| {
            let short = short_name(n);
            [format!("search_{short}"), format!("search_{short}_vae")]
        })
        .collect();
    nodes.push(
        NodeSpec::new("table5", StageKind::Report)
            .deps(search_ids)
            .policy(CachePolicy::Persist)
            .print()
            .runs(move |deps| {
                let mut text = String::from(
                    "=== Table V (SP = search performance, SE = sample efficiency; random = 1.00) ===\n",
                );
                text.push_str(&format!(
                    "{:<12} {:>7} {:>7}   {:>7} {:>7}   {:>7} {:>7}\n",
                    "workload", "rnd SP", "rnd SE", "bo SP", "bo SE", "vae SP", "vae SE"
                ));
                for (w, network) in Network::ALL.into_iter().enumerate() {
                    let traces = method_traces(&deps[2 * w], &deps[2 * w + 1])?;
                    let cmp = comparison(traces, budget);
                    let name = network.name();
                    let (r, b, v) = (&cmp.methods[0], &cmp.methods[1], &cmp.methods[2]);
                    text.push_str(&format!(
                        "{name:<12} {:>7.2} {:>7.2}   {:>7.2} {:>7.2}   {:>7.2} {:>7.2}\n",
                        r.search_performance,
                        r.sample_efficiency,
                        b.search_performance,
                        b.sample_efficiency,
                        v.search_performance,
                        v.sample_efficiency
                    ));
                }
                text.push_str(
                    "\npaper (2000 samples): vae_bo SP 1.00-1.01, SE 1.27-4.46; \
                     bo SP 0.96-1.00, SE 0.31-1.00\n",
                );
                Ok(Value::Str(text))
            }),
    );

    FlowGraph::new(nodes)
}
