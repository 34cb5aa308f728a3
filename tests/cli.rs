//! Integration tests for the `vaesa` command-line tool: the full
//! dataset → train → search pipeline driven through the binary interface.

use std::path::PathBuf;
use std::process::Command;

fn vaesa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vaesa-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vaesa_cli_test_{name}_{}", std::process::id()))
}

#[test]
fn help_prints_usage() {
    let out = vaesa().arg("--help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dataset"));
    assert!(text.contains("search"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = vaesa().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn missing_required_flag_is_reported() {
    let out = vaesa().args(["train"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--dataset"));
}

#[test]
fn eval_scores_a_design() {
    let out = vaesa()
        .args(["eval", "--workload", "alexnet", "--pe", "16"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("EDP:"));
    assert!(text.contains("latency:"));
}

#[test]
fn eval_rejects_unknown_workload() {
    let out = vaesa()
        .args(["eval", "--workload", "mystery-net"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn flow_lists_pipelines_and_rejects_bad_runs() {
    let out = vaesa().args(["flow", "list"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 16, "{text}");
    assert!(text.lines().any(|l| l.starts_with("fig12_gd ")));

    let out = vaesa()
        .args(["flow", "run", "fig99_nope"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pipeline 'fig99_nope'"), "{err}");
    assert!(err.contains("fig11_table5_bo") && err.contains("ablation_dataflow"));

    let out = vaesa()
        .args(["flow", "run", "fig12_gd", "--wat"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --wat"), "{err}");
    assert!(err.contains("usage: vaesa-cli flow run NAME"), "{err}");
}

#[test]
fn dataset_train_search_pipeline() {
    let ds = temp_path("ds.json");
    let model = temp_path("model.json");

    let out = vaesa()
        .args([
            "dataset",
            "--configs",
            "25",
            "--grid",
            "0",
            "--workload",
            "deepbench",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&ds)
        .output()
        .expect("run dataset");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ds.exists());

    let out = vaesa()
        .args([
            "train",
            "--latent",
            "2",
            "--epochs",
            "8",
            "--seed",
            "3",
            "--dataset",
        ])
        .arg(&ds)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    let out = vaesa()
        .args([
            "search",
            "--method",
            "vae_bo",
            "--budget",
            "15",
            "--workload",
            "deepbench",
        ])
        .arg("--model")
        .arg(&model)
        .arg("--dataset")
        .arg(&ds)
        .output()
        .expect("run search");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best EDP:"), "missing summary: {text}");
    assert!(text.contains("design:"));

    let _ = std::fs::remove_file(&ds);
    let _ = std::fs::remove_file(&model);
}
