//! An experiment binary refuses a command line it does not read: it
//! exits with status 2 and a usage line, and runs and writes nothing —
//! no banner, no artefact.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty working directory, so any artefact a binary wrote
/// (under `target/experiments/`, relative to it) would show up there.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("echo-bench-args-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_refused(exe: &str, args: &[&str]) {
    let name = Path::new(exe)
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    let dir = empty_dir(&format!("{name}-{}", args.len()));
    let out = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run experiment binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{name} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} printed to stdout");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{name} {args:?} wrote {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_exit_2_and_write_nothing() {
    let table1 = env!("CARGO_BIN_EXE_table1_demographics");
    assert_refused(table1, &["--help"]);
    assert_refused(table1, &["--quik"]);
    assert_refused(table1, &["--quick", "--metrics-out"]);
    // A flag one binary reads is still unknown to the others.
    assert_refused(
        env!("CARGO_BIN_EXE_fig11_confusion"),
        &["--quick", "--out", "x.json"],
    );
    assert_refused(
        env!("CARGO_BIN_EXE_fig08_image_feasibility"),
        &["--asr-ceiling", "0.01"],
    );
    // So is a value out of its flag's domain: an unreadable ceiling
    // would switch the spoof gate off (`0.0x`) or pass it whatever the
    // attack rate (`NaN`).
    for ceiling in ["0.0x", "NaN", "-1", "2"] {
        assert_refused(
            env!("CARGO_BIN_EXE_fig_attack"),
            &["--quick", "--asr-ceiling", ceiling],
        );
    }
    assert_refused(table1, &["--trace-out", "t.jsonl", "--trace-sample", "x"]);
}

#[test]
fn known_flags_run() {
    let dir = empty_dir("table1-ok");
    let out = Command::new(env!("CARGO_BIN_EXE_table1_demographics"))
        .args(["--quick", "--metrics-out", "m.json"])
        .current_dir(&dir)
        .output()
        .expect("run table1_demographics");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir
        .join("target/experiments/table1_demographics.json")
        .is_file());
    assert!(dir.join("m.json").is_file());
    std::fs::remove_dir_all(&dir).unwrap();
}
