//! Registry-level tests: every pipeline builds a schedulable graph with
//! stable content-hash keys, and fast Fig. 12 and Fig. 13 runs reproduce
//! their pinned artifacts byte for byte.

use std::path::PathBuf;

use super::{find, registry, PipelineEnv};
use crate::Args;
use vaesa_flow::{FlowRunner, KeyHasher, RunConfig};

fn fast_args(seed: u64) -> Args {
    Args {
        seed,
        budget: Some(3),
        scale: 0,
        out_dir: PathBuf::from("results"),
    }
}

fn config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        cache_root: PathBuf::from("results/cache/flow"),
        out_dir: PathBuf::from("results"),
    }
}

#[test]
fn registry_covers_every_pipeline_once() {
    let specs = registry();
    assert_eq!(specs.len(), 16);
    let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 16, "duplicate pipeline names");
    for name in names {
        assert!(find(name).is_ok());
    }
}

#[test]
fn find_unknown_lists_known_names() {
    let err = find("fig99_nope").err().expect("unknown name must fail");
    assert!(err.contains("unknown pipeline 'fig99_nope'"));
    assert!(err.contains("fig12_gd"));
}

#[test]
fn every_pipeline_builds_a_schedulable_graph() {
    for spec in registry() {
        let env = PipelineEnv::new(fast_args(7));
        let graph =
            (spec.build)(&env).unwrap_or_else(|e| panic!("{} failed to build: {e}", spec.name));
        graph
            .topo_order()
            .unwrap_or_else(|e| panic!("{} is not a DAG: {e}", spec.name));
        let keys = FlowRunner::new(graph, config(7))
            .keys()
            .unwrap_or_else(|e| panic!("{} key derivation failed: {e}", spec.name));
        assert!(!keys.is_empty(), "{} has no nodes", spec.name);
    }
}

#[test]
fn pipeline_keys_are_stable_across_rebuilds_and_vary_with_seed() {
    let build = find("fig12_gd").unwrap().build;

    let keys_a = FlowRunner::new(build(&PipelineEnv::new(fast_args(7))).unwrap(), config(7))
        .keys()
        .unwrap();
    let keys_b = FlowRunner::new(build(&PipelineEnv::new(fast_args(7))).unwrap(), config(7))
        .keys()
        .unwrap();
    assert_eq!(keys_a, keys_b, "same spec + config must hash identically");

    let keys_c = FlowRunner::new(build(&PipelineEnv::new(fast_args(8))).unwrap(), config(8))
        .keys()
        .unwrap();
    for ((id, a), (_, c)) in keys_a.iter().zip(&keys_c) {
        assert_ne!(a, c, "node '{id}' key must depend on the seed");
    }
}

/// `fig12_gd --fast --budget 2` at seed 0 must keep writing these
/// artifacts: the digests are those of a serial run in declaration order,
/// so overlapping independent nodes may change no output byte.
#[test]
fn fig12_fast_artifacts_match_pinned_digests() {
    let base = std::env::temp_dir().join(format!("vaesa-bench-fig12-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let args = Args {
        seed: 0,
        budget: Some(2),
        scale: 0,
        out_dir: base.join("out"),
    };
    let graph = (find("fig12_gd").unwrap().build)(&PipelineEnv::new(args)).unwrap();
    let config = RunConfig {
        seed: 0,
        cache_root: base.join("cache"),
        out_dir: base.join("out"),
    };
    FlowRunner::new(graph, config).run().unwrap();
    for (name, pinned) in [
        ("fig12_gd.csv", "417045737c7ffdd613d6d4805adfef09"),
        ("fig12_gd.svg", "c160c56eb4d95b1d2ea81c9085c56802"),
    ] {
        let text = std::fs::read_to_string(base.join("out").join(name)).unwrap();
        let mut h = KeyHasher::new();
        h.write_str(&text);
        assert_eq!(h.finish().hex(), pinned, "{name} changed");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// `fig13_gd_steps --fast` at seed 0 must keep writing these artifacts.
/// Fig. 13 descends one start at a time through `GradientDescent::run`
/// (200 steps), so this pins the serial descent path the batched Fig. 12
/// search does not take.
#[test]
fn fig13_fast_artifacts_match_pinned_digests() {
    let base = std::env::temp_dir().join(format!("vaesa-bench-fig13-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let args = Args {
        seed: 0,
        budget: None,
        scale: 0,
        out_dir: base.join("out"),
    };
    let graph = (find("fig13_gd_steps").unwrap().build)(&PipelineEnv::new(args)).unwrap();
    let config = RunConfig {
        seed: 0,
        cache_root: base.join("cache"),
        out_dir: base.join("out"),
    };
    FlowRunner::new(graph, config).run().unwrap();
    for (name, pinned) in [
        ("fig13_gd_steps.csv", "eeccc6a98c6d50894b91a5837036271f"),
        ("fig13_gd_steps.svg", "474de1fa2a06b88ad71e55741876fdd3"),
    ] {
        let text = std::fs::read_to_string(base.join("out").join(name)).unwrap();
        let mut h = KeyHasher::new();
        h.write_str(&text);
        assert_eq!(h.finish().hex(), pinned, "{name} changed");
    }
    let _ = std::fs::remove_dir_all(&base);
}
