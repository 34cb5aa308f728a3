//! Demand-driven graph execution with content-hash caching.
//!
//! The runner makes three passes over a validated [`FlowGraph`]:
//!
//! 1. **Plan** (topological order): compute every node's [`CacheKey`]
//!    from its kind, params, run seed, and dependency keys — no node has
//!    to run for this — then probe the cache.
//! 2. **Demand** (reverse topological order): a node's *value* is needed
//!    if it is a sink (emits a file or prints) or feeds a node that will
//!    run. A node runs iff its value is needed and the cache did not
//!    return a payload. A [`CachePolicy::Stamp`] entry proves completion
//!    but holds no payload, so a stamped node re-runs ("refresh") only
//!    when a downstream consumer actually needs its output.
//! 3. **Execute** (waves of ready nodes): every ready node of a wave
//!    runs through the `vaesa-par` pool inside its own `vaesa-obs`
//!    [`Scope`], which buffers its order-sensitive writes (series pushes
//!    and sets, progress events). After the wave the runner commits the
//!    scopes in declaration order, so the registry ends exactly as a
//!    serial run in that order leaves it, at any thread count. A panic
//!    inside a node is caught and fails the run with an error naming the
//!    node. Executed nodes record a `flow/<id>` span; cache-served nodes
//!    record `flow-cache/<id>` instead so warm-run timings never pollute
//!    the per-stage trend history.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vaesa_obs::Scope;

use crate::cache::{default_cache_root, CacheEntry, FlowCache};
use crate::graph::{CachePolicy, FlowGraph, NodeSpec};
use crate::key::{node_key, CacheKey};
use crate::value::Value;

/// Per-run settings shared by every node.
pub struct RunConfig {
    /// Global experiment seed, hashed into every node key.
    pub seed: u64,
    /// Artifact cache root.
    pub cache_root: PathBuf,
    /// Directory sink nodes emit artifacts into.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Standard config: given seed and output directory, cache at
    /// [`default_cache_root`].
    pub fn new(seed: u64, out_dir: impl Into<PathBuf>) -> Self {
        RunConfig {
            seed,
            cache_root: default_cache_root(),
            out_dir: out_dir.into(),
        }
    }
}

/// How one node was handled during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Ran because no cache entry existed.
    Executed,
    /// Served from the cache (persisted payload or un-refreshed stamp).
    CacheHit,
    /// Had a stamp entry but re-ran because a downstream consumer needed
    /// its in-memory output.
    Refreshed,
    /// Not run at all: no cache entry, but no downstream consumer needed
    /// its value either.
    Skipped,
}

/// Outcome of one node within a [`FlowReport`].
#[derive(Debug)]
pub struct NodeReport {
    /// Node id.
    pub id: String,
    /// Stage kind label.
    pub kind: String,
    /// Content-hash key.
    pub key: CacheKey,
    /// How the node was handled.
    pub status: NodeStatus,
    /// Wall time spent executing (0 unless `Executed`/`Refreshed`).
    pub wall_ns: u64,
}

/// Outcome of a whole pipeline run.
#[derive(Debug)]
pub struct FlowReport {
    /// Per-node outcomes, in declaration order.
    pub nodes: Vec<NodeReport>,
    outputs: Vec<Option<Arc<Value>>>,
    index: std::collections::HashMap<String, usize>,
}

impl FlowReport {
    /// Nodes served from cache (including un-refreshed stamps).
    pub fn hits(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.status == NodeStatus::CacheHit)
            .count()
    }

    /// Nodes that ran because nothing was cached.
    pub fn executed(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.status == NodeStatus::Executed)
            .count()
    }

    /// Stamped nodes that re-ran for a downstream consumer.
    pub fn refreshed(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.status == NodeStatus::Refreshed)
            .count()
    }

    /// Nodes skipped entirely.
    pub fn skipped(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.status == NodeStatus::Skipped)
            .count()
    }

    /// The status of a node by id.
    pub fn status_of(&self, id: &str) -> Option<NodeStatus> {
        self.index.get(id).map(|&i| self.nodes[i].status)
    }

    /// The output value of a node by id (`None` for skipped nodes).
    pub fn output(&self, id: &str) -> Option<Arc<Value>> {
        self.index.get(id).and_then(|&i| self.outputs[i].clone())
    }

    /// One-line summary, e.g. `7 executed, 3 cached, 0 refreshed, 2 skipped`.
    pub fn summary(&self) -> String {
        format!(
            "{} executed, {} cached, {} refreshed, {} skipped",
            self.executed(),
            self.hits(),
            self.refreshed(),
            self.skipped()
        )
    }
}

/// Executes a [`FlowGraph`] under a [`RunConfig`].
pub struct FlowRunner {
    graph: FlowGraph,
    config: RunConfig,
}

impl FlowRunner {
    /// Pairs a graph with its run settings.
    pub fn new(graph: FlowGraph, config: RunConfig) -> Self {
        FlowRunner { graph, config }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &FlowGraph {
        &self.graph
    }

    /// Every node's content-hash key under this config, in declaration
    /// order, computed without running anything.
    ///
    /// # Errors
    ///
    /// Propagates graph validation errors (cycles).
    pub fn keys(&self) -> Result<Vec<(String, CacheKey)>, String> {
        let keys = self.compute_keys()?;
        Ok(self
            .graph
            .nodes()
            .iter()
            .zip(&keys)
            .map(|(n, &k)| (n.id.clone(), k))
            .collect())
    }

    fn compute_keys(&self) -> Result<Vec<CacheKey>, String> {
        let nodes = self.graph.nodes();
        let order = self.graph.topo_order()?;
        let mut keys: Vec<Option<CacheKey>> = vec![None; nodes.len()];
        for i in order {
            let node = &nodes[i];
            let dep_keys: Vec<CacheKey> = node
                .deps
                .iter()
                .map(|d| keys[self.graph.index_of(d).expect("validated dep")].expect("topo order"))
                .collect();
            keys[i] = Some(node_key(
                &node.kind.label(),
                &node.params,
                node.emit.as_deref(),
                self.config.seed,
                &dep_keys,
            ));
        }
        Ok(keys.into_iter().map(|k| k.expect("all keyed")).collect())
    }

    /// Runs the pipeline: plan, demand, execute, publish observability.
    ///
    /// # Errors
    ///
    /// Returns the first node failure (prefixed with the node id), or any
    /// cache/emit I/O error.
    pub fn run(&self) -> Result<FlowReport, String> {
        let nodes = self.graph.nodes();
        let n = nodes.len();
        let order = self.graph.topo_order()?;
        let keys = self.compute_keys()?;
        let cache = FlowCache::new(&self.config.cache_root);

        // Plan: probe the cache for every node.
        let mut entries: Vec<CacheEntry> = Vec::with_capacity(n);
        for (i, node) in nodes.iter().enumerate() {
            let entry = match node.policy {
                CachePolicy::Never => CacheEntry::Miss,
                _ => cache.lookup(keys[i]),
            };
            entries.push(entry);
        }

        // Demand: reverse topological pass. `will_run[i]` means node i's
        // closure executes this run.
        let mut value_needed = vec![false; n];
        let mut will_run = vec![false; n];
        for &i in order.iter().rev() {
            let node = &nodes[i];
            let is_sink = node.emit.is_some() || node.print;
            let needed = value_needed[i] || is_sink;
            will_run[i] = needed && !matches!(entries[i], CacheEntry::Hit(_));
            if will_run[i] {
                for d in &node.deps {
                    value_needed[self.graph.index_of(d).expect("validated dep")] = true;
                }
            }
        }

        // Seed outputs with cached payloads and classify every node.
        let mut outputs: Vec<Option<Arc<Value>>> = vec![None; n];
        let mut status: Vec<NodeStatus> = Vec::with_capacity(n);
        for i in 0..n {
            let s = match (&entries[i], will_run[i]) {
                (CacheEntry::Hit(_), _) => NodeStatus::CacheHit,
                (CacheEntry::Stamp, true) => NodeStatus::Refreshed,
                (CacheEntry::Stamp, false) => NodeStatus::CacheHit,
                (CacheEntry::Miss, true) => NodeStatus::Executed,
                (CacheEntry::Miss, false) => NodeStatus::Skipped,
            };
            status.push(s);
        }
        for (i, entry) in entries.into_iter().enumerate() {
            if let CacheEntry::Hit(value) = entry {
                outputs[i] = Some(Arc::new(value));
            }
        }

        // Execute in waves of ready nodes.
        let mut wall_ns = vec![0u64; n];
        let mut done: Vec<bool> = (0..n).map(|i| !will_run[i]).collect();
        let mut remaining = done.iter().filter(|&&d| !d).count();
        while remaining > 0 {
            let ready: Vec<usize> = (0..n)
                .filter(|&i| {
                    !done[i]
                        && nodes[i].deps.iter().all(|d| {
                            let di = self.graph.index_of(d).expect("validated dep");
                            done[di] || outputs[di].is_some()
                        })
                })
                .collect();
            if ready.is_empty() {
                return Err(
                    "scheduler stalled: no runnable node (unrefreshable dependency?)".to_string(),
                );
            }
            let results = vaesa_par::par_map(&ready, |&i| self.execute(&nodes[i], &outputs));
            for (&i, result) in ready.iter().zip(results) {
                let (value, ns, scope) = result?;
                scope.commit();
                outputs[i] = Some(Arc::new(value));
                wall_ns[i] = ns;
                done[i] = true;
                remaining -= 1;
                match nodes[i].policy {
                    CachePolicy::Persist => {
                        let value = outputs[i].as_ref().expect("just executed");
                        if value.is_persistable() {
                            cache.store(keys[i], &nodes[i].id, &nodes[i].kind.label(), value)?;
                        } else {
                            cache.stamp(keys[i], &nodes[i].id, &nodes[i].kind.label())?;
                        }
                    }
                    CachePolicy::Stamp => {
                        cache.stamp(keys[i], &nodes[i].id, &nodes[i].kind.label())?;
                    }
                    CachePolicy::Never => {}
                }
            }
        }

        // Materialize sinks served from cache, and always honor `print`
        // so warm runs show the same report text as cold ones.
        for i in 0..n {
            let node = &nodes[i];
            if !will_run[i] && (node.emit.is_some() || node.print) {
                let start = Instant::now();
                let value = outputs[i].as_ref().expect("hit sinks have payloads");
                self.sink(node, value)?;
                vaesa_obs::global().record_span(
                    &format!("flow-cache/{}", node.id),
                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    0,
                );
            } else if will_run[i] {
                let value = outputs[i].as_ref().expect("executed");
                self.sink(node, value)?;
            }
        }

        // Observability: cache counters and the node-count gauge.
        let hits = status
            .iter()
            .filter(|&&s| s == NodeStatus::CacheHit)
            .count();
        let misses = status
            .iter()
            .filter(|&&s| matches!(s, NodeStatus::Executed | NodeStatus::Skipped))
            .count();
        let refreshes = status
            .iter()
            .filter(|&&s| s == NodeStatus::Refreshed)
            .count();
        vaesa_obs::counter("flow.cache.hits").add(hits as u64);
        vaesa_obs::counter("flow.cache.misses").add(misses as u64);
        vaesa_obs::counter("flow.cache.refreshes").add(refreshes as u64);
        vaesa_obs::gauge("flow.nodes").set(n as f64);

        let reports = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| NodeReport {
                id: node.id.clone(),
                kind: node.kind.label(),
                key: keys[i],
                status: status[i],
                wall_ns: wall_ns[i],
            })
            .collect();
        let index = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node.id.clone(), i))
            .collect();
        Ok(FlowReport {
            nodes: reports,
            outputs,
            index,
        })
    }

    /// Runs one node inside a fresh observability scope (left for the
    /// caller to commit), timing it and turning a panic into an error.
    fn execute(
        &self,
        node: &NodeSpec,
        outputs: &[Option<Arc<Value>>],
    ) -> Result<(Value, u64, Arc<Scope>), String> {
        let inputs: Vec<Arc<Value>> = node
            .deps
            .iter()
            .map(|d| {
                outputs[self.graph.index_of(d).expect("validated dep")]
                    .clone()
                    .expect("dependency value available")
            })
            .collect();
        let scope = Scope::new();
        let start = Instant::now();
        let result = {
            let _entered = scope.enter();
            let _span = vaesa_obs::span(&format!("flow/{}", node.id));
            panic::catch_unwind(AssertUnwindSafe(|| (node.run)(&inputs)))
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let value = match result {
            Ok(result) => result.map_err(|e| format!("node '{}': {e}", node.id))?,
            Err(payload) => {
                let message = vaesa_obs::panic_message(&*payload);
                return Err(format!("node '{}' panicked: {message}", node.id));
            }
        };
        Ok((value, ns, scope))
    }

    /// Writes/prints a sink node's string payload.
    fn sink(&self, node: &NodeSpec, value: &Value) -> Result<(), String> {
        if node.emit.is_none() && !node.print {
            return Ok(());
        }
        let text = value
            .as_str()
            .ok_or_else(|| format!("sink node '{}' produced a non-string value", node.id))?;
        if let Some(rel) = &node.emit {
            let path = self.config.out_dir.join(rel);
            write_text(&path, text)?;
            vaesa_obs::progress!("wrote {}", path.display());
        }
        if node.print {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
        }
        Ok(())
    }
}

/// Writes text to `path`, creating parent directories as needed — the
/// single artifact-writing primitive every pipeline shares.
pub fn write_text(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StageKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vaesa-flow-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(tag: &str) -> RunConfig {
        let base = temp_dir(tag);
        RunConfig {
            seed: 1,
            cache_root: base.join("cache"),
            out_dir: base.join("out"),
        }
    }

    /// dataset (stamp, mem) → search (persist) → csv sink (persist).
    fn pipeline(counter: Arc<AtomicUsize>, csv_param: &str, budget: usize) -> FlowGraph {
        let c1 = Arc::clone(&counter);
        let c2 = Arc::clone(&counter);
        let c3 = Arc::clone(&counter);
        FlowGraph::new(vec![
            NodeSpec::new("dataset", StageKind::Dataset)
                .policy(CachePolicy::Stamp)
                .runs(move |_| {
                    c1.fetch_add(1, Ordering::SeqCst);
                    Ok(Value::mem(vec![1.0f64, 2.0]))
                }),
            NodeSpec::new("search", StageKind::Engine("bo".into()))
                .dep("dataset")
                .param("budget", budget)
                .runs(move |deps| {
                    c2.fetch_add(1, Ordering::SeqCst);
                    let data = deps[0].as_mem::<Vec<f64>>().ok_or("no dataset")?;
                    Ok(Value::floats(data.iter().map(|v| v * 2.0)))
                }),
            NodeSpec::new("csv", StageKind::Csv)
                .dep("search")
                .param("style", csv_param)
                .emit("out.csv")
                .runs(move |deps| {
                    c3.fetch_add(1, Ordering::SeqCst);
                    let vals = deps[0].to_floats().ok_or("no search output")?;
                    let rows: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
                    Ok(Value::Str(format!("x\n{}\n", rows.join("\n"))))
                }),
        ])
        .unwrap()
    }

    #[test]
    fn cold_run_executes_everything_and_warm_run_hits_everything() {
        let cfg = config("warm");
        let count = Arc::new(AtomicUsize::new(0));
        let report = FlowRunner::new(pipeline(Arc::clone(&count), "a", 4), cfg)
            .run()
            .unwrap();
        assert_eq!(report.executed(), 3);
        assert_eq!(count.load(Ordering::SeqCst), 3);

        // Second run: same spec, fresh runner — everything served from
        // cache, nothing executes, artifact re-materialized identically.
        let base = std::env::temp_dir().join(format!("vaesa-flow-run-warm-{}", std::process::id()));
        let cfg2 = RunConfig {
            seed: 1,
            cache_root: base.join("cache"),
            out_dir: base.join("out2"),
        };
        let count2 = Arc::new(AtomicUsize::new(0));
        let report2 = FlowRunner::new(pipeline(Arc::clone(&count2), "a", 4), cfg2)
            .run()
            .unwrap();
        assert_eq!(
            count2.load(Ordering::SeqCst),
            0,
            "warm run must execute nothing"
        );
        assert_eq!(report2.hits(), 3);
        assert_eq!(
            report2.executed() + report2.refreshed() + report2.skipped(),
            0
        );
        let a = std::fs::read(base.join("out").join("out.csv")).unwrap();
        let b = std::fs::read(base.join("out2").join("out.csv")).unwrap();
        assert_eq!(a, b, "materialized artifact must be byte-identical");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn render_only_change_reexecutes_render_only() {
        let cfg = config("renderonly");
        let base =
            std::env::temp_dir().join(format!("vaesa-flow-run-renderonly-{}", std::process::id()));
        let count = Arc::new(AtomicUsize::new(0));
        FlowRunner::new(pipeline(Arc::clone(&count), "a", 4), cfg)
            .run()
            .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 3);

        // Change only the sink's param: the sink misses and needs the
        // search value, which is persisted — so the dataset and search
        // nodes are served from cache and only the sink executes.
        let cfg2 = RunConfig {
            seed: 1,
            cache_root: base.join("cache"),
            out_dir: base.join("out"),
        };
        let count2 = Arc::new(AtomicUsize::new(0));
        let report = FlowRunner::new(pipeline(Arc::clone(&count2), "b", 4), cfg2)
            .run()
            .unwrap();
        assert_eq!(count2.load(Ordering::SeqCst), 1, "only the sink node runs");
        assert_eq!(report.status_of("csv"), Some(NodeStatus::Executed));
        assert_eq!(report.status_of("search"), Some(NodeStatus::CacheHit));
        assert_eq!(report.status_of("dataset"), Some(NodeStatus::CacheHit));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn stamped_dependency_refreshes_when_downstream_misses() {
        let cfg = config("refresh");
        let base =
            std::env::temp_dir().join(format!("vaesa-flow-run-refresh-{}", std::process::id()));
        let count = Arc::new(AtomicUsize::new(0));
        FlowRunner::new(pipeline(Arc::clone(&count), "a", 4), cfg)
            .run()
            .unwrap();

        // Change the *search* param: search (and the csv downstream of it)
        // miss, search needs the dataset, whose entry is only a stamp —
        // the dataset must refresh.
        let count2 = Arc::new(AtomicUsize::new(0));
        let cfg2 = RunConfig {
            seed: 1,
            cache_root: base.join("cache"),
            out_dir: base.join("out"),
        };
        let report = FlowRunner::new(pipeline(Arc::clone(&count2), "a", 5), cfg2)
            .run()
            .unwrap();
        assert_eq!(report.status_of("dataset"), Some(NodeStatus::Refreshed));
        assert_eq!(report.status_of("search"), Some(NodeStatus::Executed));
        assert_eq!(report.status_of("csv"), Some(NodeStatus::Executed));
        assert_eq!(count2.load(Ordering::SeqCst), 3);
        assert_eq!(
            report.output("search").unwrap().to_floats().unwrap(),
            vec![2.0, 4.0]
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn unneeded_miss_is_skipped() {
        // a (persist) feeds sink; b (persist) feeds nothing → b is never
        // demanded, so its miss is a skip on every run; once the sink is
        // cached, a is not demanded either and is served from cache.
        let build = || {
            FlowGraph::new(vec![
                NodeSpec::new("a", StageKind::Dataset)
                    .param("role", "a")
                    .runs(|_| Ok(Value::Int(1))),
                NodeSpec::new("b", StageKind::Dataset)
                    .param("role", "b")
                    .runs(|_| Ok(Value::Int(2))),
                NodeSpec::new("sink", StageKind::Report)
                    .dep("a")
                    .runs(|_| Ok(Value::Str("ok\n".into())))
                    .emit("r.txt"),
            ])
            .unwrap()
        };
        let cfg = config("skip");
        let base = std::env::temp_dir().join(format!("vaesa-flow-run-skip-{}", std::process::id()));
        let first = FlowRunner::new(build(), cfg).run().unwrap();
        assert_eq!(first.status_of("b"), Some(NodeStatus::Skipped));
        let cfg2 = RunConfig {
            seed: 1,
            cache_root: base.join("cache"),
            out_dir: base.join("out"),
        };
        let report = FlowRunner::new(build(), cfg2).run().unwrap();
        assert_eq!(report.status_of("sink"), Some(NodeStatus::CacheHit));
        assert_eq!(report.status_of("a"), Some(NodeStatus::CacheHit));
        assert_eq!(report.status_of("b"), Some(NodeStatus::Skipped));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn keys_are_stable_and_param_sensitive_via_runner() {
        let mk = |csv: &str| {
            FlowRunner::new(
                pipeline(Arc::new(AtomicUsize::new(0)), csv, 4),
                RunConfig {
                    seed: 7,
                    cache_root: PathBuf::from("unused"),
                    out_dir: PathBuf::from("unused"),
                },
            )
        };
        let k1 = mk("a").keys().unwrap();
        let k2 = mk("a").keys().unwrap();
        assert_eq!(k1, k2, "same spec+seed ⇒ identical keys");
        let k3 = mk("b").keys().unwrap();
        assert_eq!(k1[0].1, k3[0].1, "upstream keys unaffected by sink param");
        assert_ne!(k1[2].1, k3[2].1, "sink param changes sink key");
        let k4 = FlowRunner::new(
            pipeline(Arc::new(AtomicUsize::new(0)), "a", 4),
            RunConfig {
                seed: 8,
                cache_root: PathBuf::from("unused"),
                out_dir: PathBuf::from("unused"),
            },
        )
        .keys()
        .unwrap();
        assert_ne!(k1[0].1, k4[0].1, "seed perturbs every key");
        assert_ne!(k1[2].1, k4[2].1);
    }

    #[test]
    fn node_error_names_the_node() {
        let graph = FlowGraph::new(vec![NodeSpec::new("boom", StageKind::Report)
            .print()
            .policy(CachePolicy::Never)
            .runs(|_| Err("kaput".to_string()))])
        .unwrap();
        let err = FlowRunner::new(graph, config("err")).run().unwrap_err();
        assert!(err.contains("boom") && err.contains("kaput"), "{err}");
    }

    #[test]
    fn non_persistable_persist_output_degrades_to_stamp() {
        let base = temp_dir("degrade");
        let mk = |n: Arc<AtomicUsize>| {
            FlowGraph::new(vec![
                NodeSpec::new("model", StageKind::Train).runs(move |_| {
                    n.fetch_add(1, Ordering::SeqCst);
                    Ok(Value::mem(3usize))
                }),
                NodeSpec::new("use", StageKind::Report)
                    .dep("model")
                    .print()
                    .runs(|deps| {
                        let v = deps[0].as_mem::<usize>().ok_or("no model")?;
                        Ok(Value::Str(format!("{v}\n")))
                    }),
            ])
            .unwrap()
        };
        let cfg = RunConfig {
            seed: 1,
            cache_root: base.join("cache"),
            out_dir: base.join("out"),
        };
        let n1 = Arc::new(AtomicUsize::new(0));
        FlowRunner::new(mk(Arc::clone(&n1)), cfg).run().unwrap();
        assert_eq!(n1.load(Ordering::SeqCst), 1);
        // Warm run: the report sink is a Hit; the mem-valued train node's
        // stamp is honored, so nothing re-executes.
        let cfg2 = RunConfig {
            seed: 1,
            cache_root: base.join("cache"),
            out_dir: base.join("out"),
        };
        let n2 = Arc::new(AtomicUsize::new(0));
        let report = FlowRunner::new(mk(Arc::clone(&n2)), cfg2).run().unwrap();
        assert_eq!(n2.load(Ordering::SeqCst), 0);
        assert_eq!(report.hits(), 2);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn write_text_creates_parents() {
        let base = temp_dir("writetext");
        let path = base.join("a").join("b").join("x.txt");
        write_text(&path, "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn independent_nodes_merge_series_in_declaration_order() {
        // The five nodes of one wave push to a shared series while running
        // concurrently, and with two or more workers `s1` always writes
        // before `s0`; the merged series must still read as a serial run in
        // declaration order leaves it. `s2` also replaces a second series,
        // which drops what `s0`/`s1` pushed there before it.
        let (pushed, replaced) = ("flow.test.merge_pushed", "flow.test.merge_replaced");
        for _ in 0..10 {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let s1_wrote = Arc::new((std::sync::Mutex::new(tx), std::sync::Mutex::new(rx)));
            let nodes = (0..5)
                .map(|k| {
                    let s1_wrote = Arc::clone(&s1_wrote);
                    NodeSpec::new(format!("s{k}"), StageKind::Engine("x".into()))
                        .policy(CachePolicy::Never)
                        .print()
                        .runs(move |_| {
                            if k == 0 {
                                // A serial run (one worker) gives up waiting.
                                let wait = std::time::Duration::from_millis(200);
                                let _ = s1_wrote.1.lock().unwrap().recv_timeout(wait);
                            }
                            let v = k as f64;
                            vaesa_obs::series(pushed).push(v);
                            if k == 2 {
                                vaesa_obs::series(replaced).set(vec![v]);
                            } else {
                                vaesa_obs::series(replaced).push(v);
                            }
                            if k == 1 {
                                let _ = s1_wrote.0.lock().unwrap().send(());
                            }
                            Ok(Value::Str(String::new()))
                        })
                })
                .collect();
            let scope = Scope::new();
            {
                let _in = scope.enter();
                let graph = FlowGraph::new(nodes).unwrap();
                FlowRunner::new(graph, config("merge")).run().unwrap();
            }
            assert_eq!(scope.series(pushed).values(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
            assert_eq!(scope.series(replaced).values(), vec![2.0, 3.0, 4.0]);
        }
    }

    #[test]
    fn a_panicking_node_fails_the_run_with_its_id() {
        let ok_ran = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ok_ran);
        let graph = FlowGraph::new(vec![
            NodeSpec::new("healthy", StageKind::Report)
                .policy(CachePolicy::Never)
                .print()
                .runs(move |_| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    Ok(Value::Str(String::new()))
                }),
            NodeSpec::new("bomb", StageKind::Report)
                .policy(CachePolicy::Never)
                .print()
                .runs(|_| panic!("detonated")),
        ])
        .unwrap();
        let err = FlowRunner::new(graph, config("panic")).run().unwrap_err();
        assert_eq!(err, "node 'bomb' panicked: detonated");
        assert_eq!(
            ok_ran.load(Ordering::SeqCst),
            1,
            "the healthy node still ran"
        );
    }
}
