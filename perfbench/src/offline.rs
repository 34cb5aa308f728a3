//! The offline workloads: one paper-figure pipeline (`--fast`), run back to
//! back through `vaesa_bench::pipelines::run`, each rep with an empty flow
//! cache and a fresh scheduler, so every rep does the full work.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use vaesa_accel::{workloads, LayerShape, Network};
use vaesa_bench::{pipelines, Args};
use vaesa_flow::KeyHasher;

use crate::host::Speed;
use crate::report::Report;
use crate::tracer::MAIN_TID;
use crate::{fresh_dir, replay, stats, Ctx};

/// One figure pipeline and what it must write.
pub struct Pipeline {
    /// Registry name.
    pub name: &'static str,
    /// Artifacts every rep must write, byte-identical across reps.
    pub artifacts: &'static [&'static str],
    /// Digests of `artifacts` at seed 0, in the same order.
    pub pinned: &'static [&'static str],
    /// Layers its searches schedule, for the scheduler replay.
    pub search_layers: fn() -> Vec<LayerShape>,
}

/// Fig. 12: gradient descent over the 12 unseen layers.
pub const FIG12: Pipeline = Pipeline {
    name: "fig12_gd",
    artifacts: &["fig12_gd.csv", "fig12_gd.svg"],
    pinned: &[
        "da9a44095b12df12a05c33cbfd4e40d3",
        "8edc7d4f91a93fd218280e5da1d9478c",
    ],
    search_layers: workloads::gd_test_layers,
};

/// Fig. 11 / Table V: BO with and without the latent space.
pub const FIG11: Pipeline = Pipeline {
    name: "fig11_table5_bo",
    artifacts: &[
        "fig11_alexnet.csv",
        "fig11_alexnet.svg",
        "fig11_resnet50.csv",
        "fig11_resnet50.svg",
        "fig11_resnext50.csv",
        "fig11_resnext50.svg",
        "fig11_deepbench.csv",
        "fig11_deepbench.svg",
    ],
    pinned: &[
        "acd256061942be1907a2cddbd5f4c478",
        "8d850cb36edf55d7e9ba6d8e6bd7a10e",
        "d9ee92ca551364423fae3df687f3838b",
        "e72ea20b378ecb1dd301219cf27101f3",
        "c104c950ef1abed90e10625360363cf3",
        "b71e98d09e07ac2ea1bb7e35e58415c1",
        "d075cb72ca1cd4746c9fb78ab34f21a5",
        "08799e0eebd2214c3702a885eff2e7c7",
    ],
    search_layers: || Network::ALL.into_iter().flat_map(|n| n.layers()).collect(),
};

/// Program counters whose per-rep increase is reported: (metric, counter).
const COUNTERS: [(&str, &str); 4] = [
    ("dse.evals", "dse.evals"),
    ("dse.decodes", "dse.decodes"),
    ("dse.gp_fits", "dse.gp.fits"),
    ("nn.adam_steps", "nn.adam.steps"),
];

/// Scheduler gauges each run publishes for its own fresh scheduler.
const SCHEDULER: [(&str, &str); 4] = [
    ("cosa.misses", "scheduler.misses"),
    ("cosa.hits", "scheduler.hits"),
    ("cosa.hit_rate", "scheduler.hit_rate"),
    ("cosa.evictions", "scheduler.evictions"),
];

/// The flow graph's shape: node id → dependency ids.
type Graph = BTreeMap<String, Vec<String>>;

struct Rep {
    wall_s: f64,
    /// Process CPU time (user + system) the rep took.
    cpu_s: f64,
    traced: bool,
    /// Node id → seconds its closure ran.
    nodes: BTreeMap<String, f64>,
    /// Per-layer count metric → value.
    counts: BTreeMap<&'static str, f64>,
}

/// Counter and span totals on the program's registry, before or after a rep.
struct Totals {
    counters: Vec<u64>,
    nodes: BTreeMap<String, u64>,
}

impl Totals {
    fn take(graph: &Graph) -> Totals {
        let registry = vaesa_obs::global();
        Totals {
            counters: COUNTERS
                .iter()
                .map(|(_, c)| registry.counter(c).get())
                .collect(),
            nodes: graph
                .keys()
                .map(|id| {
                    let ns = registry
                        .span_stats(&format!("flow/{id}"))
                        .map_or(0, |s| s.wall_ns_total);
                    (id.clone(), ns)
                })
                .collect(),
        }
    }
}

/// What one rep needs besides the context.
struct Bench<'a> {
    ctx: &'a Ctx,
    pipeline: &'a Pipeline,
    args: Args,
    graph: Graph,
    /// Digests of the first rep's artifacts.
    reference: Option<Vec<String>>,
    /// Host speed, sampled before every rep.
    speed: Speed,
}

impl Bench<'_> {
    /// One `pipelines::run` on an empty flow cache and output directory,
    /// with its artifacts checked. `None` when the run itself failed.
    fn rep(&mut self, traced: bool, report: &mut Report) -> Result<Option<Rep>, String> {
        let (ctx, pipeline) = (self.ctx, self.pipeline);
        fresh_dir(&ctx.workdir.join("flow"))?;
        fresh_dir(&self.args.out_dir)?;
        self.speed.sample();
        let before = Totals::take(&self.graph);
        ctx.tracer.set(traced);
        let cpu0 = vaesa_obs::process_cpu_ns().unwrap_or(0);
        let t0 = Instant::now();
        let result = pipelines::run(pipeline.name, self.args.clone());
        let t1 = Instant::now();
        let cpu1 = vaesa_obs::process_cpu_ns().unwrap_or(0);
        ctx.tracer
            .span(&format!("bench/rep/{}", pipeline.name), MAIN_TID, t0, t1);
        ctx.tracer.set(false);
        report.attempted += 1;
        if let Err(e) = result {
            report.fail(format!("{} rep {}: {e}", pipeline.name, report.attempted));
            return Ok(None);
        }
        match digest_all(&self.args.out_dir, pipeline.artifacts) {
            Ok(digests) => {
                if self.reference.is_none() {
                    for (name, digest) in pipeline.artifacts.iter().zip(&digests) {
                        eprintln!("perfbench: {name} digest {digest}");
                    }
                }
                if let Some(problem) =
                    check_digests(ctx.seed, pipeline, &digests, self.reference.as_deref())
                {
                    report.mismatch(problem);
                }
                self.reference.get_or_insert(digests);
            }
            Err(e) => report.mismatch(e),
        }
        let after = Totals::take(&self.graph);
        let registry = vaesa_obs::global();
        let mut counts = BTreeMap::new();
        for (i, (metric, _)) in COUNTERS.iter().enumerate() {
            counts.insert(*metric, (after.counters[i] - before.counters[i]) as f64);
        }
        for (metric, gauge) in SCHEDULER {
            counts.insert(metric, registry.gauge(gauge).get());
        }
        Ok(Some(Rep {
            wall_s: (t1 - t0).as_secs_f64(),
            cpu_s: (cpu1 - cpu0) as f64 * 1e-9,
            traced,
            nodes: after
                .nodes
                .iter()
                .map(|(id, ns)| (id.clone(), (ns - before.nodes[id]) as f64 * 1e-9))
                .collect(),
            counts,
        }))
    }
}

/// Runs the pipeline once to warm up, then for `ctx.seconds`.
pub fn run(ctx: &Ctx, pipeline: &Pipeline) -> Result<Report, String> {
    let spec = pipelines::find(pipeline.name)?;
    if vaesa_flow::default_cache_root() != ctx.workdir.join("flow") {
        return Err("VAESA_FLOW_CACHE must point at this run's working directory".to_string());
    }
    let args = Args {
        seed: ctx.seed,
        budget: None,
        scale: 0,
        out_dir: ctx.workdir.join("out"),
    };
    let graph = (spec.build)(&pipelines::PipelineEnv::new(args.clone()))?
        .nodes()
        .iter()
        .map(|n| (n.id.clone(), n.deps.clone()))
        .collect();
    let mut bench = Bench {
        ctx,
        pipeline,
        args,
        graph,
        reference: None,
        speed: Speed::default(),
    };
    let mut report = Report::default();

    // Set-up: the process's first, cold run. It pays the one-time costs
    // (first-use initialisation, allocator growth, page faults) a user of
    // `vaesa-cli flow run` pays on every run; the timed reps after it run
    // warm. A cold run happens once per process, so this is one sample.
    let cold = bench.rep(false, &mut report)?.map_or(0.0, |r| r.wall_s);

    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < ctx.seconds {
        // The traced run alternates untraced and traced reps, so both see
        // the same machine conditions.
        let traced = ctx.trace && n % 2 == 1;
        reps.extend(bench.rep(traced, &mut report)?);
        n += 1;
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = untraced.iter().map(|r| r.cpu_s).collect();
    let wall = stats::median(&walls).ok_or("no pipeline rep succeeded")?;
    let speed = &bench.speed;
    report.metric("cold_s", cold, "s");
    report.timing("wall_s", wall, "s", walls.len());
    report.timing(
        "cpu_s",
        stats::median(&cpus).unwrap_or(0.0),
        "s",
        cpus.len(),
    );
    report.timing(
        "host.kernel_ms",
        speed.kernel_s() * 1e3,
        "ms",
        speed.samples(),
    );
    report.timing("setup_s", speed.at_reference(cold), "s", 1);
    report.timing(
        "latency_p50_ms",
        speed.at_reference(wall) * 1e3,
        "ms",
        walls.len(),
    );
    if ctx.trace {
        layers(ctx, pipeline, &bench.graph, &reps, wall, &mut report);
    }
    Ok(report)
}

/// The per-layer table, the ledger and the tracing overhead, from the
/// traced reps plus replays.
fn layers(
    ctx: &Ctx,
    pipeline: &Pipeline,
    graph: &Graph,
    reps: &[Rep],
    untraced_wall: f64,
    report: &mut Report,
) {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let med = |f: &dyn Fn(&Rep) -> f64| {
        let xs: Vec<f64> = traced.iter().map(|r| f(r)).collect();
        stats::median(&xs).unwrap_or(0.0)
    };
    let node = |r: &Rep, id: &str| r.nodes.get(id).copied().unwrap_or(0.0);
    let wall = med(&|r| r.wall_s);
    let busy = med(&|r| r.nodes.values().sum());
    report.metric(
        "flow.critical_path_s",
        med(&|r| critical_path(graph, &r.nodes)),
        "s",
    );
    report.metric("flow.busy_s", busy, "s");
    report.metric("flow.parallelism", busy / wall, "ratio");
    report.metric("vaesa.dataset_s", med(&|r| node(r, "dataset")), "s");
    report.metric("vaesa.train_s", med(&|r| node(r, "train")), "s");
    report.metric("vaesa.input_preds_s", med(&|r| node(r, "input_preds")), "s");
    report.metric(
        "dse.search_s",
        med(&|r| {
            r.nodes
                .iter()
                .filter(|(id, _)| id.starts_with("search_"))
                .map(|(_, s)| s)
                .sum()
        }),
        "s",
    );
    for metric in COUNTERS
        .iter()
        .map(|c| c.0)
        .chain(SCHEDULER.iter().map(|s| s.0))
    {
        let unit = if metric.ends_with("rate") {
            "ratio"
        } else {
            "count"
        };
        report.metric(metric, med(&|r| r.counts[metric]), unit);
    }

    let (epoch_ms, steps_per_epoch) = replay::epoch_ms(&ctx.tracer, ctx.seed);
    let (fit_ms, predict_ms) = replay::gp_ms(&ctx.tracer, ctx.seed);
    let mut layers = workloads::training_layers();
    layers.extend((pipeline.search_layers)());
    let miss_us = replay::schedule_miss_us(&ctx.tracer, ctx.seed, &layers);
    report.metric("nn.epoch_ms", epoch_ms, "ms");
    report.metric("dse.gp_fit_ms", fit_ms, "ms");
    report.metric("dse.gp_predict_batch_ms", predict_ms, "ms");
    report.metric("cosa.schedule_miss_us", miss_us, "us");
    report.metric(
        "timeloop.evaluate_ns",
        replay::evaluate_ns(&ctx.tracer),
        "ns",
    );

    // Ledger: the calls the program counts, times their replayed unit cost.
    let get = |name: &str| report.get(name).unwrap_or(0.0);
    let terms = [
        ("ledger.cosa_misses_s", get("cosa.misses") * miss_us * 1e-6),
        (
            "ledger.nn_adam_steps_s",
            get("nn.adam_steps") * epoch_ms * 1e-3 / steps_per_epoch.max(1.0),
        ),
        ("ledger.dse_gp_fits_s", get("dse.gp_fits") * fit_ms * 1e-3),
    ];
    let explained: f64 = terms.iter().map(|t| t.1).sum();
    for (name, seconds) in terms {
        report.metric(name, seconds, "s");
    }
    report.metric("ledger.explained_frac", explained / wall, "ratio");
    report.metric("trace_overhead_frac", wall / untraced_wall - 1.0, "ratio");
}

/// The longest dependency chain through the graph, weighting each node by
/// its run time.
pub fn critical_path(graph: &Graph, seconds: &BTreeMap<String, f64>) -> f64 {
    fn finish(
        id: &str,
        graph: &Graph,
        seconds: &BTreeMap<String, f64>,
        memo: &mut BTreeMap<String, f64>,
    ) -> f64 {
        if let Some(&f) = memo.get(id) {
            return f;
        }
        let ready = graph.get(id).map_or(0.0, |deps| {
            deps.iter()
                .map(|d| finish(d, graph, seconds, memo))
                .fold(0.0, f64::max)
        });
        let f = ready + seconds.get(id).copied().unwrap_or(0.0);
        memo.insert(id.to_string(), f);
        f
    }
    let mut memo = BTreeMap::new();
    graph
        .keys()
        .map(|id| finish(id, graph, seconds, &mut memo))
        .fold(0.0, f64::max)
}

fn digest_all(dir: &Path, artifacts: &[&str]) -> Result<Vec<String>, String> {
    artifacts
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("artifact {name} unreadable: {e}"))?;
            let mut h = KeyHasher::new();
            h.write_str(&text);
            Ok(h.finish().hex())
        })
        .collect()
}

/// Every rep must match the first byte for byte, and at seed 0 the pinned
/// digests too.
fn check_digests(
    seed: u64,
    pipeline: &Pipeline,
    digests: &[String],
    reference: Option<&[String]>,
) -> Option<String> {
    for (i, name) in pipeline.artifacts.iter().enumerate() {
        if let Some(first) = reference {
            if first[i] != digests[i] {
                return Some(format!("{name} differs between reps"));
            }
        } else if seed == 0 && pipeline.pinned[i] != digests[i] {
            return Some(format!(
                "{name} digest {} differs from the pinned seed-0 digest {}",
                digests[i], pipeline.pinned[i]
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_takes_the_longest_chain() {
        // a -> {b, c} -> d, plus an isolated e.
        let graph: Graph = [
            ("a", vec![]),
            ("b", vec!["a"]),
            ("c", vec!["a"]),
            ("d", vec!["b", "c"]),
            ("e", vec![]),
        ]
        .into_iter()
        .map(|(id, deps)| (id.to_string(), deps.into_iter().map(String::from).collect()))
        .collect();
        let secs = |pairs: &[(&str, f64)]| -> BTreeMap<String, f64> {
            pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        let t = secs(&[("a", 1.0), ("b", 2.0), ("c", 5.0), ("d", 1.0), ("e", 6.0)]);
        assert_eq!(critical_path(&graph, &t), 7.0);
        let t = secs(&[("a", 1.0), ("b", 2.0), ("c", 5.0), ("d", 1.0), ("e", 9.0)]);
        assert_eq!(critical_path(&graph, &t), 9.0);
        // Nodes that did not run weigh nothing.
        assert_eq!(critical_path(&graph, &secs(&[("d", 0.5)])), 0.5);
    }

    #[test]
    fn pinned_digests_cover_every_artifact() {
        for p in [&FIG12, &FIG11] {
            assert_eq!(p.artifacts.len(), p.pinned.len(), "{}", p.name);
        }
    }
}
