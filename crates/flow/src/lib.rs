#![deny(missing_docs)]
//! Declarative experiment dataflow runtime with content-hashed artifact
//! caching.
//!
//! Every VAESA figure/ablation experiment is the same pipeline shape —
//! *dataset → train → search → render/CSV* — so instead of 16 hand-rolled
//! binaries, an experiment here is a [`FlowGraph`] of typed [`NodeSpec`]
//! stages whose edges carry [`Value`] artifacts. The [`FlowRunner`]:
//!
//! - **content-hashes** every node over `(stage kind, params, emit path,
//!   seed, upstream keys)` ([`node_key`]) and persists completed
//!   outputs under `results/cache/flow/` ([`FlowCache`]), so re-running a
//!   pipeline after a plot tweak re-executes the render stage only;
//! - schedules **demand-driven**: a node runs only when its output is
//!   actually needed downstream and the cache can't supply it;
//! - runs every ready node of a wave through the `vaesa-par` pool, each
//!   inside its own `vaesa-obs` [`Scope`](vaesa_obs::Scope); the scopes'
//!   order-sensitive writes (`train.*`/`dse.*` series, progress events)
//!   are committed in declaration order after the wave, so the registry
//!   ends exactly as a serial run leaves it; a panicking node fails the
//!   run with an error naming it;
//! - wraps every executed node in a `vaesa-obs` span (`flow/<id>`;
//!   cache materializations record `flow-cache/<id>` instead) and
//!   publishes `flow.cache.{hits,misses,refreshes}` counters plus a
//!   `flow.nodes` gauge into the run manifest;
//! - renders the graph as Graphviz DOT or mermaid
//!   ([`FlowGraph::dot`]/[`FlowGraph::mermaid`]).
//!
//! The cache root honors the `VAESA_FLOW_CACHE` environment variable
//! (default `results/cache/flow`); keys use FNV-1a-128, fixed by the
//! algorithm rather than the standard-library release, so a warm cache
//! survives toolchain upgrades. See `DESIGN.md` §2.11.
//!
//! # Examples
//!
//! ```
//! use vaesa_flow::{CachePolicy, FlowGraph, FlowRunner, NodeSpec, RunConfig, StageKind, Value};
//!
//! let graph = FlowGraph::new(vec![
//!     NodeSpec::new("dataset", StageKind::Dataset)
//!         .param("n", 4)
//!         .runs(|_| Ok(Value::floats([1.0, 2.0, 3.0, 4.0]))),
//!     NodeSpec::new("csv", StageKind::Csv)
//!         .dep("dataset")
//!         .emit("data.csv")
//!         .policy(CachePolicy::Never)
//!         .runs(|deps| {
//!             let rows: Vec<Vec<f64>> =
//!                 deps[0].to_floats().unwrap().into_iter().map(|v| vec![v]).collect();
//!             Ok(Value::Str(vaesa_flow::format_csv("x", &rows)))
//!         }),
//! ])
//! .unwrap();
//! let dir = std::env::temp_dir().join("vaesa-flow-doc");
//! let config = RunConfig {
//!     seed: 1,
//!     cache_root: dir.join("cache"),
//!     out_dir: dir.join("out"),
//! };
//! let report = FlowRunner::new(graph, config).run().unwrap();
//! assert_eq!(report.output("csv").unwrap().as_str().unwrap().lines().count(), 5);
//! ```

mod cache;
mod csv;
mod graph;
mod key;
mod runner;
mod value;

pub use cache::{default_cache_root, CacheEntry, FlowCache, CACHE_ROOT_ENV, DEFAULT_CACHE_ROOT};
pub use csv::{format_cell, format_csv, format_labeled_csv};
pub use graph::{CachePolicy, FlowGraph, NodeFn, NodeSpec, StageKind};
pub use key::{node_key, CacheKey, KeyHasher};
pub use runner::{write_text, FlowReport, FlowRunner, NodeReport, NodeStatus, RunConfig};
pub use value::Value;
