//! End-to-end tests of the `echoimage` binary.

use echo_sim::wav::write_wav;
use echo_sim::BeepCapture;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_echoimage")
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("failed to spawn echoimage");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn help_prints_usage() {
    let (ok, text) = run(&["help"]);
    assert!(ok);
    assert!(text.contains("USAGE"));
    assert!(text.contains("simulate"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let (ok, text) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(text.contains("unknown command"));
}

#[test]
fn missing_wav_path_is_an_error() {
    let (ok, text) = run(&["range"]);
    assert!(!ok);
    assert!(text.contains("WAV path"));
}

#[test]
fn simulate_then_range_round_trip() {
    let wav = std::env::temp_dir().join("echoimage_cli_test.wav");
    let wav_str = wav.to_str().unwrap();

    let (ok, text) = run(&[
        "simulate",
        "--seed",
        "7",
        "--user",
        "1",
        "--distance",
        "0.7",
        "--beeps",
        "3",
        "--out",
        wav_str,
    ]);
    assert!(ok, "simulate failed: {text}");
    assert!(text.contains("wrote"));
    assert!(wav.exists());

    let (ok, text) = run(&["range", wav_str]);
    assert!(ok, "range failed: {text}");
    // The printed horizontal distance should be near 0.7 m.
    let d: f64 = text
        .lines()
        .find(|l| l.contains("horizontal D_p"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().trim_end_matches(" m").parse().ok())
        .expect("distance line");
    assert!((d - 0.7).abs() < 0.2, "estimated {d}");

    let (ok, text) = run(&["image", wav_str]);
    assert!(ok, "image failed: {text}");
    assert!(text.contains("estimated plane distance"));

    std::fs::remove_file(&wav).ok();
}

#[test]
fn range_rejects_garbage_files() {
    let path = std::env::temp_dir().join("echoimage_cli_garbage.wav");
    std::fs::write(&path, b"not audio").unwrap();
    let (ok, text) = run(&["range", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(text.contains("error"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn wavs_too_short_to_range_are_typed_errors() {
    // An empty data chunk, a rate at which 70 ms rounds to no sample,
    // and a one-sample window: `(name, frames, rate)`.
    for (name, frames, rate) in [
        ("empty", 0, 48_000.0),
        ("1hz", 16, 1.0),
        ("one_frame", 1, 48_000.0),
    ] {
        let path = std::env::temp_dir().join(format!("echoimage_cli_no_window_{name}.wav"));
        let capture = BeepCapture::new(vec![vec![0.0; frames]; 6], rate, 0);
        write_wav(&path, &capture, 1.0).unwrap();
        for command in ["range", "image"] {
            let out = Command::new(bin())
                .args([command, path.to_str().unwrap()])
                .output()
                .expect("failed to spawn echoimage");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {name}: {stderr}");
            assert!(stderr.contains("error:"), "{command} {name}: {stderr}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn simulate_without_beeps_is_a_typed_error() {
    // Both render paths: a user's beep train and an empty room.
    for user in ["1", "0"] {
        let wav = std::env::temp_dir().join(format!("echoimage_cli_no_beeps_{user}.wav"));
        std::fs::remove_file(&wav).ok();
        let out = Command::new(bin())
            .args(["simulate", "--user", user, "--beeps", "0", "--out"])
            .arg(&wav)
            .output()
            .expect("failed to spawn echoimage");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--user {user}: {stderr}");
        assert!(stderr.contains("error:"), "--user {user}: {stderr}");
        assert!(!wav.exists(), "--user {user}: wrote {}", wav.display());
    }
}
