//! End-to-end CLI tests: drive the compiled binary through the full
//! generate → convert → stats → run pipeline.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sssj-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sssj-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline() {
    let dir = tmpdir("pipeline");
    let txt = dir.join("s.txt");
    let bin_path = dir.join("s.bin");

    let out = bin()
        .args(["generate", "--preset", "rcv1", "--n", "300", "--out"])
        .arg(&txt)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .arg("convert")
        .arg(&txt)
        .arg(&bin_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(bin_path.metadata().unwrap().len() > 0);

    let out = bin().arg("stats").arg(&bin_path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("n         : 300"), "{stdout}");

    // Run over both representations; pair counts must agree.
    let mut counts = Vec::new();
    for path in [&txt, &bin_path] {
        let out = bin()
            .args(["run"])
            .arg(path)
            .args(["--theta", "0.6", "--lambda", "0.01", "--pairs"])
            .output()
            .unwrap();
        assert!(out.status.success());
        counts.push(String::from_utf8_lossy(&out.stdout).lines().count());
    }
    assert_eq!(counts[0], counts[1]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frameworks_report_same_pair_count() {
    let dir = tmpdir("frameworks");
    let txt = dir.join("s.txt");
    assert!(bin()
        .args(["generate", "--preset", "tweets", "--n", "500", "--out"])
        .arg(&txt)
        .status()
        .unwrap()
        .success());
    let mut counts = Vec::new();
    for framework in ["mb", "str"] {
        let out = bin()
            .args(["run"])
            .arg(&txt)
            .args([
                "--framework",
                framework,
                "--theta",
                "0.7",
                "--lambda",
                "0.01",
                "--pairs",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        counts.push(String::from_utf8_lossy(&out.stdout).lines().count());
    }
    assert_eq!(counts[0], counts[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_header_reports_the_decay_models_horizon() {
    let dir = tmpdir("decay-header");
    let txt = dir.join("s.txt");
    assert!(bin()
        .args(["generate", "--preset", "tweets", "--n", "200", "--out"])
        .arg(&txt)
        .status()
        .unwrap()
        .success());
    let header = |spec: &str| {
        let out = bin()
            .arg("run")
            .arg(&txt)
            .args(["--spec", spec])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        stderr
    };
    let decay = header("decay?theta=0.6&model=window:20");
    assert!(decay.contains("model: window:20"), "{decay}");
    assert!(decay.contains("tau: 20.0s"), "{decay}");
    assert!(!decay.contains("lambda"), "{decay}");
    let exp = header("str-l2?theta=0.5&tau=10");
    assert!(exp.contains("tau: 10.0s"), "{exp}");
    assert!(exp.contains("lambda: "), "{exp}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_fails_cleanly() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    // Missing file.
    let out = bin().args(["stats", "/no/such/file"]).output().unwrap();
    assert!(!out.status.success());
    // Bad theta.
    let dir = tmpdir("badusage");
    let txt = dir.join("s.txt");
    std::fs::write(&txt, "0 1:1.0\n").unwrap();
    let out = bin()
        .args(["run"])
        .arg(&txt)
        .args(["--theta", "7"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("theta"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: sssj"));
}

#[test]
fn help_after_a_command_prints_usage() {
    for args in [
        &["generate", "--help"][..],
        &["run", "--help"],
        &["run", "s.txt", "--theta", "0.5", "-h"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("usage: sssj"),
            "{args:?}"
        );
    }
}
