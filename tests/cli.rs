//! End-to-end tests of the `stellaris` command-line interface.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stellaris"))
}

#[test]
fn train_eval_checkpoint_roundtrip() {
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("cli_test_{}.ckpt", std::process::id()));
    let csv = dir.join(format!("cli_test_{}.csv", std::process::id()));

    let out = bin()
        .args([
            "train",
            "--env",
            "PointMass",
            "--rounds",
            "3",
            "--actors",
            "2",
            "--learners",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("train must run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("final reward"), "{stdout}");
    assert!(stdout.contains("wrote trained checkpoint"));
    let csv_content = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_content.starts_with("round,"));
    assert_eq!(csv_content.lines().count(), 4, "header + 3 rounds");

    let out = bin()
        .args([
            "eval",
            "--env",
            "PointMass",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--episodes",
            "2",
        ])
        .output()
        .expect("eval must run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("mean episodic reward"));

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&csv).ok();
}

#[test]
fn simulate_reports_virtual_time_and_cost() {
    let out = bin()
        .args(["simulate", "--rounds", "3"])
        .output()
        .expect("simulate must run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("virtual time"));
    assert!(stdout.contains("cost $"));
}

#[test]
fn envs_lists_paper_set() {
    let out = bin().arg("envs").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "Hopper",
        "Walker2d",
        "Humanoid",
        "SpaceInvaders",
        "Qbert",
        "Gravitar",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_env_fails_cleanly() {
    let out = bin()
        .args(["train", "--env", "DoesNotExist"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown environment"));
}

#[test]
fn unknown_algo_fails_cleanly() {
    for algo in ["foo", "dqn"] {
        let out = bin()
            .args(["train", "--env", "PointMass", "--algo", algo])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--algo {algo} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown algorithm: {algo}")),
            "{stderr}"
        );
    }
}
