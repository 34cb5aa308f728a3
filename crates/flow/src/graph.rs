//! The typed node graph.
//!
//! A [`FlowGraph`] is a DAG of named [`NodeSpec`]s. Each node declares a
//! [`StageKind`], a parameter map (part of its cache key), its
//! dependencies by node id, a [`CachePolicy`], optional sink behavior
//! (emit its string payload to a file under the run's output directory,
//! and/or print it to stdout), and a closure that computes its output
//! from its dependencies' outputs.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use crate::value::Value;

/// What kind of work a node performs. The kind's label is hashed into the
/// cache key and shown in graph renderings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageKind {
    /// Builds a labeled dataset.
    Dataset,
    /// Trains a model.
    Train,
    /// Runs a search engine (`engine:<name>`).
    Engine(String),
    /// Renders an SVG chart.
    Render,
    /// Formats a CSV artifact.
    Csv,
    /// Produces a textual report/summary.
    Report,
    /// Anything else (`custom:<name>`).
    Custom(String),
}

impl StageKind {
    /// The label hashed into cache keys and shown in graph renderings.
    pub fn label(&self) -> String {
        match self {
            StageKind::Dataset => "dataset".to_string(),
            StageKind::Train => "train".to_string(),
            StageKind::Engine(name) => format!("engine:{name}"),
            StageKind::Render => "render".to_string(),
            StageKind::Csv => "csv".to_string(),
            StageKind::Report => "report".to_string(),
            StageKind::Custom(name) => format!("custom:{name}"),
        }
    }
}

/// How a node's output interacts with the artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Encode the output and persist it under the node's key.
    Persist,
    /// Record only a completion marker; the payload is in-memory-only
    /// (models, datasets) and is recomputed when a consumer needs it.
    Stamp,
    /// Never touch the cache (trivially cheap nodes).
    Never,
}

/// The closure type computing a node's output from its dependency outputs
/// (in declared dependency order).
pub type NodeFn = dyn Fn(&[Arc<Value>]) -> Result<Value, String> + Send + Sync;

/// One stage in a pipeline.
pub struct NodeSpec {
    /// Unique node id within the graph (also the span suffix:
    /// `flow/<id>`).
    pub id: String,
    /// Stage kind.
    pub kind: StageKind,
    /// Key-affecting parameters.
    pub params: BTreeMap<String, String>,
    /// Dependency node ids, in the order their outputs are passed to
    /// `run`.
    pub deps: Vec<String>,
    /// Cache behavior.
    pub policy: CachePolicy,
    /// When set, the node's `Str` output is written to this path relative
    /// to the run's output directory.
    pub emit: Option<String>,
    /// When true, the node's `Str` output is printed to stdout.
    pub print: bool,
    /// The work.
    pub run: Box<NodeFn>,
}

impl NodeSpec {
    /// Starts a node with the given id and kind; everything else defaults
    /// (no params, no deps, `Persist`, not a sink).
    pub fn new(id: impl Into<String>, kind: StageKind) -> Self {
        NodeSpec {
            id: id.into(),
            kind,
            params: BTreeMap::new(),
            deps: Vec::new(),
            policy: CachePolicy::Persist,
            emit: None,
            print: false,
            run: Box::new(|_| Ok(Value::Unit)),
        }
    }

    /// Adds a key-affecting parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.insert(key.into(), value.to_string());
        self
    }

    /// Adds a dependency by node id.
    pub fn dep(mut self, id: impl Into<String>) -> Self {
        self.deps.push(id.into());
        self
    }

    /// Adds several dependencies.
    pub fn deps(mut self, ids: impl IntoIterator<Item = String>) -> Self {
        self.deps.extend(ids);
        self
    }

    /// Sets the cache policy.
    pub fn policy(mut self, policy: CachePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Marks the node's `Str` output for writing to `path` (relative to
    /// the run's output directory).
    pub fn emit(mut self, path: impl Into<String>) -> Self {
        self.emit = Some(path.into());
        self
    }

    /// Marks the node's `Str` output for printing to stdout.
    pub fn print(mut self) -> Self {
        self.print = true;
        self
    }

    /// Sets the node's work closure.
    pub fn runs(
        mut self,
        f: impl Fn(&[Arc<Value>]) -> Result<Value, String> + Send + Sync + 'static,
    ) -> Self {
        self.run = Box::new(f);
        self
    }
}

/// A validated pipeline DAG.
pub struct FlowGraph {
    nodes: Vec<NodeSpec>,
    index: HashMap<String, usize>,
}

impl std::fmt::Debug for FlowGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.nodes.iter().map(|n| (&n.id, n.kind.label(), &n.deps)))
            .finish()
    }
}

impl FlowGraph {
    /// Builds and validates a graph: node ids must be unique, every
    /// dependency must name an existing node, and the graph must be
    /// acyclic.
    ///
    /// # Errors
    ///
    /// Returns a message naming the duplicate id, the missing dependency,
    /// or a node on a cycle.
    pub fn new(nodes: Vec<NodeSpec>) -> Result<Self, String> {
        let mut index = HashMap::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            if index.insert(node.id.clone(), i).is_some() {
                return Err(format!("duplicate node id '{}'", node.id));
            }
        }
        for node in &nodes {
            for dep in &node.deps {
                if !index.contains_key(dep) {
                    return Err(format!(
                        "node '{}' depends on unknown node '{dep}'",
                        node.id
                    ));
                }
            }
        }
        let graph = FlowGraph { nodes, index };
        graph.topo_order()?;
        Ok(graph)
    }

    /// The nodes in declaration order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Index of a node by id.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// A topological order over node indices. Ties are broken by
    /// declaration order, so the result is deterministic.
    ///
    /// # Errors
    ///
    /// Returns a message naming a node on a cycle.
    pub fn topo_order(&self) -> Result<Vec<usize>, String> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            // A node listing the same dependency twice consumes its output
            // twice but contributes one edge.
            let unique: HashSet<usize> = node.deps.iter().map(|d| self.index[d]).collect();
            indegree[i] = unique.len();
            for d in unique {
                dependents[d].push(i);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        // `ready` is kept sorted; popping the smallest index keeps the
        // order stable under node reordering of independent stages.
        while let Some(&next) = ready.first() {
            ready.remove(0);
            order.push(next);
            for &dep in &dependents[next] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    let pos = ready.partition_point(|&r| r < dep);
                    ready.insert(pos, dep);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .map(|i| self.nodes[i].id.clone())
                .unwrap_or_default();
            return Err(format!("dependency cycle involving node '{stuck}'"));
        }
        Ok(order)
    }

    /// Renders the graph as Graphviz DOT.
    pub fn dot(&self, name: &str) -> String {
        let mut out = format!(
            "digraph \"{name}\" {{\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n"
        );
        for node in &self.nodes {
            out.push_str(&format!(
                "  \"{}\" [label=\"{}\\n[{}]\"];\n",
                node.id,
                node.id,
                node.kind.label()
            ));
        }
        for node in &self.nodes {
            for dep in &node.deps {
                out.push_str(&format!("  \"{dep}\" -> \"{}\";\n", node.id));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders the graph as a mermaid `graph LR` diagram.
    pub fn mermaid(&self, name: &str) -> String {
        // Mermaid node ids must be bare words; map ids to n0, n1, ...
        let mut out = format!("---\ntitle: {name}\n---\ngraph LR\n");
        for (i, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "  n{i}[\"{} [{}]\"]\n",
                node.id,
                node.kind.label()
            ));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for dep in &node.deps {
                out.push_str(&format!("  n{} --> n{i}\n", self.index[dep]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: &str, deps: &[&str]) -> NodeSpec {
        let mut spec = NodeSpec::new(id, StageKind::Csv);
        for d in deps {
            spec = spec.dep(*d);
        }
        spec
    }

    #[test]
    fn topo_order_respects_deps_and_declaration_order() {
        let g = FlowGraph::new(vec![
            node("csv", &["search"]),
            node("dataset", &[]),
            node("train", &["dataset"]),
            node("search", &["dataset", "train"]),
        ])
        .unwrap();
        let order: Vec<&str> = g
            .topo_order()
            .unwrap()
            .into_iter()
            .map(|i| g.nodes()[i].id.as_str())
            .collect();
        assert_eq!(order, vec!["dataset", "train", "search", "csv"]);
    }

    #[test]
    fn validation_catches_duplicates_missing_deps_and_cycles() {
        assert!(FlowGraph::new(vec![node("a", &[]), node("a", &[])])
            .unwrap_err()
            .contains("duplicate"));
        assert!(FlowGraph::new(vec![node("a", &["ghost"])])
            .unwrap_err()
            .contains("unknown node 'ghost'"));
        assert!(FlowGraph::new(vec![node("a", &["b"]), node("b", &["a"])])
            .unwrap_err()
            .contains("cycle"));
    }

    #[test]
    fn duplicate_deps_count_one_edge() {
        let g = FlowGraph::new(vec![node("a", &[]), node("b", &["a", "a"])]).unwrap();
        assert_eq!(g.topo_order().unwrap(), vec![0, 1]);
    }

    #[test]
    fn renderings_mention_every_node_and_edge() {
        let g = FlowGraph::new(vec![node("dataset", &[]), node("train", &["dataset"])]).unwrap();
        let dot = g.dot("fig");
        assert!(dot.contains("\"dataset\" -> \"train\""));
        assert!(dot.contains("[csv]"));
        let mmd = g.mermaid("fig");
        assert!(mmd.contains("n0 --> n1"));
        assert!(mmd.contains("train [csv]"));
    }

    #[test]
    fn builder_sets_all_fields() {
        let spec = NodeSpec::new("x", StageKind::Engine("bo".into()))
            .param("budget", 8)
            .dep("dataset")
            .policy(CachePolicy::Stamp)
            .emit("x.csv")
            .print()
            .runs(|_| Ok(Value::Int(1)));
        assert_eq!(spec.kind.label(), "engine:bo");
        assert_eq!(spec.params.get("budget").unwrap(), "8");
        assert_eq!(spec.deps, vec!["dataset"]);
        assert_eq!(spec.policy, CachePolicy::Stamp);
        assert_eq!(spec.emit.as_deref(), Some("x.csv"));
        assert!(spec.print);
        assert_eq!((spec.run)(&[]).unwrap(), Value::Int(1));
    }
}
