//! Shared helpers for the figure-regeneration binaries.
//!
//! Each `src/bin/figNN_*.rs` binary reruns one experiment from the
//! paper's evaluation (§VI) on the simulated substrate, prints the same
//! rows/series the paper reports next to the paper's own numbers, and
//! writes a JSON artefact under `target/experiments/`.

use echo_eval::metrics::AuthMetrics;
use std::path::PathBuf;

pub mod storegen;

/// Parses the common `--quick` flag (reduced counts for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value following a `--flag` argument, if present.
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Parses the common `--metrics-out <path>` flag: where to write the
/// observability snapshot when the run completes.
pub fn metrics_out() -> Option<PathBuf> {
    flag_value("--metrics-out").map(PathBuf::from)
}

/// Parses the common `--trace-out <path>` flag: where to write the
/// JSONL trace (spans + audit records) when the run completes. The
/// flag's presence is also what switches span recording on.
pub fn trace_out() -> Option<PathBuf> {
    flag_value("--trace-out").map(PathBuf::from)
}

/// Writes the process-wide metrics snapshot to `--metrics-out` (no-op
/// when the flag is absent), then the trace JSONL to `--trace-out`
/// (likewise). Every experiment binary calls this last, so per-stage
/// latency, cache hit-rate numbers and the flight-recorder trace for
/// the whole run land next to the experiment artefact.
pub fn finish_metrics() {
    if let Some(path) = metrics_out() {
        let json = echo_obs::snapshot().to_json();
        match echo_obs::export::write_atomic(&path, json.as_bytes()) {
            Ok(()) => println!("metrics: {}", path.display()),
            Err(e) => eprintln!("could not write metrics to {}: {e}", path.display()),
        }
    }
    finish_traces();
}

/// Drains the trace ring and audit log into `--trace-out` as JSONL.
/// No-op without the flag. Convert to Perfetto-loadable Chrome trace
/// JSON with `cargo xtask trace-report <file> --chrome <out>`.
pub fn finish_traces() {
    let Some(path) = trace_out() else { return };
    let spans = echo_obs::take_spans();
    let audits = echo_obs::take_audits();
    let dropped = echo_obs::trace_events_dropped();
    if dropped > 0 {
        eprintln!("trace: ring overflowed, {dropped} span events dropped");
    }
    let jsonl = echo_obs::export::trace_jsonl(&spans, &audits);
    match echo_obs::export::write_atomic(&path, jsonl.as_bytes()) {
        Ok(()) => println!(
            "trace: {} ({} spans, {} audits)",
            path.display(),
            spans.len(),
            audits.len()
        ),
        Err(e) => eprintln!("could not write trace to {}: {e}", path.display()),
    }
}

/// Unwraps an experiment step's result. On error this does **not**
/// panic: it prints the error, drains `--metrics-out`/`--trace-out`
/// (a failed sweep's partial metrics are exactly the ones worth
/// keeping), and exits non-zero.
pub fn run_or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{what}: {e}");
            finish_metrics();
            std::process::exit(1);
        }
    }
}

/// The value flags every experiment binary reads, besides the switch
/// `--quick`.
const VALUE_FLAGS: &[&str] = &["--metrics-out", "--trace-out", "--trace-sample"];

/// Why `args` (without the program name) is not a command line the
/// binary reads: an argument that is neither a common flag nor one of
/// `extra` (value flags of this binary alone), a value flag with no
/// value after it, or a numeric flag whose value is out of its domain.
fn bad_args(args: &[String], extra: &[&str]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--quick" {
            continue;
        }
        if !VALUE_FLAGS.contains(&a.as_str()) && !extra.contains(&a.as_str()) {
            return Some(format!("unknown argument `{a}`"));
        }
        let Some(value) = it.next() else {
            return Some(format!("`{a}` needs a value"));
        };
        let domain = match a.as_str() {
            "--trace-sample" if value.parse::<u64>().is_err() => "a non-negative integer",
            // `f64` parsing takes `NaN`, `inf` and `1e999`; none is a rate.
            "--asr-ceiling" if !value.parse::<f64>().is_ok_and(|r| (0.0..=1.0).contains(&r)) => {
                "a number in [0, 1]"
            }
            _ => continue,
        };
        return Some(format!("`{a}` takes {domain}, not `{value}`"));
    }
    None
}

/// [`banner`] for a binary that also reads the value flags `extra`.
pub fn banner_with_flags(extra: &[&str], id: &str, title: &str, paper_claim: &str) {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    if let Some(problem) = bad_args(&args, extra) {
        let values = VALUE_FLAGS
            .iter()
            .chain(extra)
            .map(|f| format!(" [{f} <value>]"));
        eprintln!("error: {problem}");
        eprintln!("usage: {program} [--quick]{}", values.collect::<String>());
        std::process::exit(2);
    }
    if trace_out().is_some() {
        echo_obs::set_trace_enabled(true);
        if let Some(n) = flag_value("--trace-sample").and_then(|v| v.parse::<u64>().ok()) {
            echo_obs::set_trace_sampling(n);
        }
    }
    println!("════════════════════════════════════════════════════════════════");
    println!("EchoImage reproduction — {id}: {title}");
    println!("paper: {paper_claim}");
    println!("════════════════════════════════════════════════════════════════");
}

/// Checks the command line, prints a standard experiment header, and
/// arms the flight recorder when the run asked for a trace.
///
/// Every experiment binary calls this first. An argument it does not
/// read (`--help`, a typo such as `--quik`) prints a usage line and
/// exits with status 2 before anything runs or any file is written.
/// `--trace-out <path>` switches span recording on, `--trace-sample
/// <n>` keeps one trace in `n` (deterministic on the trace serial;
/// default keeps every trace). A `--trace-sample` that is not a
/// non-negative integer is refused the same way.
pub fn banner(id: &str, title: &str, paper_claim: &str) {
    banner_with_flags(&[], id, title, paper_claim);
}

/// Formats one metrics row.
pub fn metrics_row(label: &str, m: &AuthMetrics) -> String {
    format!(
        "{label:<28} recall {:.3}  precision {:.3}  accuracy {:.3}  F {:.3}",
        m.recall, m.precision, m.accuracy, m.f_measure
    )
}

/// Reports where the JSON artefact landed.
pub fn artefact_note(path: &std::path::Path) {
    println!("\nartefact: {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::bad_args;

    fn check(args: &[&str], extra: &[&str]) -> Option<String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        bad_args(&args, extra)
    }

    #[test]
    fn common_and_declared_flags_pass_with_their_values() {
        assert_eq!(check(&[], &[]), None);
        let all = [
            "--quick",
            "--metrics-out",
            "m.json",
            "--trace-out",
            "t.jsonl",
            "--trace-sample",
            "2",
        ];
        assert_eq!(check(&all, &[]), None);
        // A value is never read as a flag, whatever it looks like.
        assert_eq!(check(&["--metrics-out", "--quik"], &[]), None);
        assert_eq!(check(&["--quick", "--out", "x.json"], &["--out"]), None);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_named() {
        for arg in ["--help", "--quik", "-q", "quick", "--out"] {
            let problem = check(&["--quick", arg], &[]).expect(arg);
            assert_eq!(problem, format!("unknown argument `{arg}`"));
        }
        assert!(check(&["--asr-ceiling", "0.01"], &["--out"]).is_some());
        assert_eq!(
            check(&["--quick", "--trace-out"], &[]),
            Some("`--trace-out` needs a value".into())
        );
        assert!(check(&["--out"], &["--out"]).is_some());
    }

    #[test]
    fn numeric_flags_refuse_values_outside_their_domain() {
        let ceiling = ["--asr-ceiling"];
        for ok in ["0", "0.05", "1", "1.0"] {
            assert_eq!(check(&["--asr-ceiling", ok], &ceiling), None, "{ok}");
        }
        for bad in ["0.0x", "NaN", "inf", "1e999", "-1", "2", ""] {
            assert_eq!(
                check(&["--quick", "--asr-ceiling", bad], &ceiling),
                Some(format!(
                    "`--asr-ceiling` takes a number in [0, 1], not `{bad}`"
                ))
            );
        }
        assert_eq!(check(&["--trace-sample", "0"], &[]), None);
        for bad in ["x", "-1", "1.5"] {
            assert_eq!(
                check(&["--trace-sample", bad], &[]),
                Some(format!(
                    "`--trace-sample` takes a non-negative integer, not `{bad}`"
                ))
            );
        }
    }
}
