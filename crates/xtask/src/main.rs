//! Workspace task runner.
//!
//! `cargo xtask ci` replays the exact gate from
//! `.github/workflows/ci.yml` locally — same commands, same order — so
//! a change that passes here passes CI. `cargo xtask determinism` runs
//! one cell of its threads × SIMD matrix. `cargo xtask bench-check` is
//! the bench-regression gate: it collects a fresh `feature_bench`
//! sample and fails if any gated kernel latency regressed more than the
//! threshold against the committed `BENCH_features.json` baseline.
//! `cargo xtask repro-gate` holds the reproduction's quick-mode
//! headlines to the committed `REPRO_quick.json`.
//! Wired up through the `xtask` alias in `.cargo/config.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

mod repro_gate;
mod trace_report;
use echo_obs::json::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ci") => ci(),
        Some("determinism") => {
            determinism(&[]);
        }
        Some("bench-check") => bench_check(&args[1..]),
        Some("bench-baseline") => bench_baseline(),
        Some("obs-smoke") => obs_smoke(),
        Some("repro-gate") => repro_gate::repro_gate(&args[1..]),
        Some("trace-report") => trace_report::trace_report(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            eprintln!("{USAGE}");
            exit(2);
        }
        None => {
            eprintln!("{USAGE}");
            exit(2);
        }
    }
}

const USAGE: &str =
    "usage: cargo xtask <ci | determinism | bench-check | bench-baseline | obs-smoke | repro-gate | trace-report>

tasks:
  ci              run the full CI gate (fmt, clippy, build, tests, the
                  determinism matrix, property suites, bench build +
                  bench-regression check, trace-report selftest, repro
                  gate)
  determinism     run every determinism suite once, under the caller's
                  ECHOIMAGE_THREADS and ECHOIMAGE_SIMD (one cell of the
                  CI determinism matrix)
  bench-check     collect a fresh feature_bench sample and fail on a
                  latency regression beyond the threshold
                    --baseline <path>   committed numbers
                                        [default: BENCH_features.json]
                    --fresh <path>      compare an existing sample
                                        instead of running the bench
                    --threshold <pct>   allowed regression [default: 25]
                    --selftest          verify the comparator itself
  bench-baseline  rerun the full (non-quick) feature bench and rewrite
                  BENCH_features.json — the documented override when a
                  deliberate change moves the baseline
  obs-smoke       boot the echo-serve daemon, drive it with the load
                  test over TCP, and assert `echo-top --once --json
                  --assert-live` sees non-empty tenant windows, finite
                  drift, and p50 <= p99 in every rollup with latencies
  repro-gate      run the quick experiment binaries and fail when a
                  headline (Figs. 5, 8, 11-14, gate ROC, attack suite)
                  moved past its tolerance from REPRO_quick.json
                    --rebaseline <reason>
                                        rewrite REPRO_quick.json from
                                        this run and append the reason
                                        to CHANGES.md
  trace-report    analyse a --trace-out JSONL flight-recorder trace:
                  per-stage critical-path statistics, slowest traces,
                  failed authentication attempts
                    <trace.jsonl>       input trace
                    --chrome <out>      also write Chrome trace-event
                                        JSON loadable in Perfetto
                    --top <n>           slowest traces shown [default: 5]
                    --selftest          verify the analyser itself";

/// The kernel latencies the regression gate holds. Deliberately the
/// low-variance single-kernel timings — end-to-end stage timings and
/// the naive-reference baselines wander too much on shared runners.
const GATED_METRICS: [&str; 10] = [
    "single_image.gemm_ns",
    "single_image.gemm_scratch_ns",
    "matched_filter.packed_ns",
    "matched_filter.planned_ns",
    "stage.distance.mean_ns",
    "stage.imaging.mean_ns",
    "stage.spatial.mean_ns",
    "serve.p99_ns",
    "store.lookup_p99_ns",
    "stats.render_ns",
];

/// One gate step: display name, cargo arguments, extra environment.
type Step = (
    &'static str,
    &'static [&'static str],
    &'static [(&'static str, &'static str)],
);

/// The `(package, suite)` pairs that must hold bit-for-bit across
/// worker-thread counts and SIMD dispatch modes. Both `cargo xtask ci`
/// and each cell of the CI determinism matrix run this list through
/// [`determinism`].
const DETERMINISM_SUITES: [(&str, &str); 9] = [
    ("echoimage-core", "fault_injection"),
    ("echoimage-core", "feature_determinism"),
    ("echoimage-core", "imaging_parity"),
    ("echoimage-core", "metrics_determinism"),
    ("echoimage-core", "route_shapes"),
    ("echoimage-core", "simd_dispatch"),
    ("echoimage-core", "spoof_audit"),
    ("echoimage-core", "trace_determinism"),
    ("echo-serve", "window_determinism"),
];

/// The SIMD dispatch modes the determinism matrix forces. `scalar` pins
/// the portable kernels; `auto` takes the vectorised path wherever the
/// host supports it (and must produce bit-identical results).
const SIMD_MODES: [&str; 2] = ["scalar", "auto"];

/// The CI gate, in the same order as .github/workflows/ci.yml: cheap
/// static checks first, then the determinism matrix, the test run, and
/// the bench-regression check last.
fn ci() {
    let steps: &[Step] = &[
        ("format check", &["fmt", "--all", "--check"], &[]),
        (
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
            &[],
        ),
        // Every intra-doc link resolves, so a removed item cannot leave
        // a dangling reference behind in the docs.
        (
            "rustdoc (deny warnings)",
            &["doc", "--workspace", "--no-deps"],
            &[("RUSTDOCFLAGS", "-D warnings")],
        ),
        ("release build", &["build", "--release", "--workspace"], &[]),
        ("tests", &["test", "-q", "--workspace"], &[]),
        (
            "sim fault injectors",
            &["test", "-q", "-p", "echo-sim", "fault"],
            &[],
        ),
    ];
    for (name, args, envs) in steps {
        run(name, args, envs);
    }
    // Determinism matrix: every suite that claims bit-identical results
    // (and metric counters) runs pinned serial and with the worker pool,
    // each crossed with the scalar and auto SIMD dispatch modes (the
    // simd_dispatch suite additionally asserts the dispatch gauge
    // reports the forced path).
    let mut matrix_steps = 0;
    for simd in SIMD_MODES {
        for threads in ["1", "0"] {
            matrix_steps +=
                determinism(&[("ECHOIMAGE_THREADS", threads), ("ECHOIMAGE_SIMD", simd)]);
        }
    }
    matrix_steps += simd_parity();
    let tail: &[Step] = &[
        (
            "GEMM forward vs naive oracle (property suite)",
            &["test", "-q", "-p", "echo-ml", "--test", "cnn_properties"],
            &[],
        ),
        (
            "FFT plan vs unplanned reference (property suite)",
            &[
                "test",
                "-q",
                "-p",
                "echo-dsp",
                "--test",
                "fft_plan_properties",
            ],
            &[],
        ),
        (
            "SIMD kernels vs scalar, ULP-bounded (property suite)",
            &[
                "test",
                "-q",
                "-p",
                "echo-dsp",
                "--test",
                "simd_kernel_properties",
            ],
            &[],
        ),
        ("bench build", &["bench", "--no-run", "--workspace"], &[]),
        // Serve smoke: an in-process daemon replays 200 sessions; the
        // bin itself exits non-zero on any request error, missing p99,
        // or panic, so passing here means the serving path answered
        // every request with a typed decision.
        (
            "serve smoke (200-session load test)",
            &[
                "run",
                "--release",
                "-q",
                "-p",
                "echo-serve",
                "--bin",
                "load_test",
                "--",
                "--quick",
            ],
            &[],
        ),
        // Store smoke: a 100k-user shard store exercised end to end —
        // snapshot reload published mid-run from another thread,
        // prefiltered decisions checked against the exhaustive oracle
        // on every loaded snapshot, newest-shard-wins and margins
        // bit-identical to an in-memory store of the same users pinned.
        // Exits non-zero on the first failed check.
        (
            "store smoke (100k-user shards, mid-run reload parity)",
            &[
                "run",
                "--release",
                "-q",
                "-p",
                "echo-bench",
                "--bin",
                "store_bench",
                "--",
                "--quick",
            ],
            &[],
        ),
        // Attack gate: the quick fig_attack run exits non-zero when the
        // population replay attack-success-rate (classifier gate AND
        // spatial screen, see DESIGN.md §14) exceeds the ceiling.
        (
            "spoof gate (replay ASR ceiling, fig_attack --quick)",
            &[
                "run",
                "--release",
                "-q",
                "-p",
                "echo-bench",
                "--bin",
                "fig_attack",
                "--",
                "--quick",
                "--asr-ceiling",
                "0.01",
            ],
            &[],
        ),
    ];
    for (name, args, envs) in tail {
        run(name, args, envs);
    }
    println!("==> obs smoke (daemon + stats + echo-top)");
    obs_smoke();
    println!("==> repro gate (quick headlines vs REPRO_quick.json)");
    repro_gate::repro_gate(&[]);
    println!("==> trace-report selftest");
    trace_report::trace_report(&["--selftest".into()]);
    println!("==> bench-regression check");
    bench_check(&["--selftest".into()]);
    bench_check(&[]);
    println!(
        "\nCI gate passed ({} steps)",
        steps.len() + matrix_steps + tail.len() + 5
    );
    print_step_durations();
}

/// Runs every [`DETERMINISM_SUITES`] entry once with `envs` added to
/// the caller's environment: one cell of the threads × SIMD matrix.
/// `cargo xtask determinism` adds nothing, so the caller's
/// `ECHOIMAGE_THREADS` / `ECHOIMAGE_SIMD` choose the cell. Returns the
/// number of gate steps run.
fn determinism(envs: &[(&str, &str)]) -> usize {
    let cell: String = envs.iter().map(|(k, v)| format!(" {k}={v}")).collect();
    for (pkg, suite) in DETERMINISM_SUITES {
        run(
            &format!("{suite}{cell}"),
            &["test", "-q", "-p", pkg, "--test", suite],
            envs,
        );
    }
    DETERMINISM_SUITES.len()
}

/// Cross-process SIMD parity: runs the digest half of the
/// `simd_dispatch` suite once per dispatch mode and compares the
/// `target/simd-parity/<mode>.digest` files. On AVX2 hardware this
/// pins the scalar and vectorised pipelines to bit-identical output;
/// on hosts without AVX2 both modes resolve to scalar, one digest file
/// is written, and the comparison holds trivially. Returns the number
/// of gate steps run.
fn simd_parity() -> usize {
    let dir = Path::new("target/simd-parity");
    let _ = std::fs::remove_dir_all(dir);
    for simd in SIMD_MODES {
        run(
            &format!("simd parity digest (simd = {simd})"),
            &[
                "test",
                "-q",
                "-p",
                "echoimage-core",
                "--test",
                "simd_dispatch",
                "parity_digest_is_recorded",
            ],
            &[("ECHOIMAGE_SIMD", simd)],
        );
    }
    let mut digests: Vec<(String, String)> = Vec::new();
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        eprintln!("simd parity: could not read {}: {e}", dir.display());
        exit(1);
    });
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(entry.path()).unwrap_or_else(|e| {
            eprintln!("simd parity: could not read {name}: {e}");
            exit(1);
        });
        digests.push((name, text.trim().to_string()));
    }
    digests.sort();
    if digests.is_empty() {
        eprintln!("simd parity: the digest suite wrote no digest files");
        exit(1);
    }
    for (name, digest) in &digests {
        println!("  simd parity: {name} = {digest}");
    }
    if digests.iter().any(|(_, d)| d != &digests[0].1) {
        eprintln!(
            "simd parity FAILED: scalar and SIMD dispatch produced \
             different pipeline output"
        );
        exit(1);
    }
    if digests.len() == 1 {
        println!("  simd parity: one dispatch mode on this host; parity holds trivially");
    } else {
        println!("  simd parity: all dispatch modes bit-identical");
    }
    SIMD_MODES.len()
}

// ── observability smoke ──────────────────────────────────────────────

/// Boots the real daemon binary on an ephemeral TCP port, drives it
/// with the wire load test, then asserts `echo-top --once --json
/// --assert-live` against it: at least one tenant window with
/// decisions, every drift score finite, valid JSON on stdout, and
/// non-null `lat_p50_ns <= lat_p99_ns` in every rollup that counted
/// latencies. This is the end-to-end proof that the Stats opcode, the
/// window substrate, and the dashboard agree over a real socket.
fn obs_smoke() {
    run(
        "build serve bins (release)",
        &["build", "--release", "-q", "-p", "echo-serve", "--bins"],
        &[],
    );
    let bin = |name: &str| Path::new("target/release").join(name);

    let mut daemon = Command::new(bin("echo_serve"))
        .args(["--tcp", "127.0.0.1:0"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("obs-smoke: could not start echo_serve: {e}");
            exit(1);
        });
    // The daemon announces its ephemeral port on stderr:
    //   echo-serve listening on tcp://127.0.0.1:PORT
    let stderr = daemon.stderr.take().expect("stderr was piped");
    let addr = {
        use std::io::BufRead;
        let mut lines = std::io::BufReader::new(stderr).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.split("tcp://").nth(1) {
                        break addr.trim().to_string();
                    }
                    eprintln!("  [echo_serve] {line}");
                }
                _ => {
                    let _ = daemon.kill();
                    eprintln!("obs-smoke: daemon exited before announcing its address");
                    exit(1);
                }
            }
        }
    };
    println!("  obs-smoke: daemon at {addr}");

    let kill_and_fail = |daemon: &mut std::process::Child, msg: &str| -> ! {
        let _ = daemon.kill();
        let _ = daemon.wait();
        eprintln!("obs-smoke: {msg}");
        exit(1);
    };

    let load = Command::new(bin("load_test"))
        .args(["--quick", "--connect", &addr])
        .status();
    match load {
        Ok(s) if s.success() => {}
        Ok(s) => kill_and_fail(&mut daemon, &format!("load_test failed with {s}")),
        Err(e) => kill_and_fail(&mut daemon, &format!("load_test could not start: {e}")),
    }

    let top = Command::new(bin("echo_top"))
        .args(["--tcp", &addr, "--once", "--json", "--assert-live"])
        .output();
    let out = match top {
        Ok(out) if out.status.success() => out,
        Ok(out) => kill_and_fail(
            &mut daemon,
            &format!(
                "echo-top --assert-live failed with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ),
        ),
        Err(e) => kill_and_fail(&mut daemon, &format!("echo_top could not start: {e}")),
    };
    let json = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(&json).unwrap_or_else(|e| {
        let _ = daemon.kill();
        eprintln!("obs-smoke: echo-top emitted invalid JSON: {e}\n{json}");
        exit(1);
    });
    let tenants = match doc.get("tenants") {
        Some(Json::Arr(t)) if !t.is_empty() => t.len(),
        _ => kill_and_fail(&mut daemon, "echo-top JSON carries no tenant windows"),
    };
    println!("  obs-smoke: echo-top sees {tenants} live tenant window(s)");
    match check_rollup_latencies(&doc) {
        Ok(checked) => println!(
            "  obs-smoke: {checked} rollup(s) with latencies report p50 <= p99 over the wire"
        ),
        Err(msg) => kill_and_fail(&mut daemon, &msg),
    }

    let _ = daemon.kill();
    let _ = daemon.wait();
    println!("obs-smoke passed");
}

/// Checks every rollup of an `echo-top --json` report — the global
/// and each tenant's `cum` and windows — that counted latencies: its
/// p50 and p99, computed from the histogram the `Stats` opcode carried,
/// must be present and ordered. Returns how many rollups were checked.
fn check_rollup_latencies(doc: &Json) -> Result<usize, String> {
    fn items(v: Option<&Json>) -> Vec<&Json> {
        match v {
            Some(Json::Arr(items)) => items.iter().collect(),
            _ => Vec::new(),
        }
    }
    let scopes = doc
        .get("global")
        .into_iter()
        .chain(items(doc.get("tenants")));
    let mut checked = 0;
    for scope in scopes {
        for rollup in scope
            .get("cum")
            .into_iter()
            .chain(items(scope.get("windows")))
        {
            let field = |key: &str| rollup.get(key).and_then(Json::as_f64);
            if field("lat_count").unwrap_or(0.0) == 0.0 {
                continue;
            }
            match (field("lat_p50_ns"), field("lat_p99_ns")) {
                (Some(p50), Some(p99)) if p50 <= p99 => checked += 1,
                (p50, p99) => {
                    let tenant = scope.get("tenant").and_then(Json::as_f64);
                    return Err(format!(
                        "tenant {tenant:?}: a rollup with latencies reports p50 {p50:?}, p99 {p99:?}"
                    ));
                }
            }
        }
    }
    match checked {
        0 => Err("no rollup counted a latency after the load test".into()),
        n => Ok(n),
    }
}

// ── bench-regression gate ────────────────────────────────────────────

fn bench_check(args: &[String]) {
    let mut baseline_path = PathBuf::from("BENCH_features.json");
    let mut fresh_path: Option<PathBuf> = None;
    let mut threshold_pct = 25.0f64;
    let mut selftest = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = required_value(&mut it, "--baseline").into(),
            "--fresh" => fresh_path = Some(required_value(&mut it, "--fresh").into()),
            "--threshold" => {
                let v = required_value(&mut it, "--threshold");
                threshold_pct = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threshold wants a number, got `{v}`");
                    exit(2);
                });
            }
            "--selftest" => selftest = true,
            other => {
                eprintln!("unknown bench-check flag `{other}`");
                exit(2);
            }
        }
    }
    if selftest {
        bench_check_selftest(threshold_pct);
        return;
    }

    let baseline = gated_metrics_from_file(&baseline_path);
    let mut fresh = match &fresh_path {
        Some(path) => gated_metrics_from_file(path),
        None => collect_fresh_sample("target/bench-check/fresh.json"),
    };
    let mut failures = compare(&baseline, &fresh, threshold_pct);
    if !failures.is_empty() && fresh_path.is_none() {
        // Timing noise on a loaded machine produces one-off spikes; a
        // genuine regression survives a second sample. Take the
        // per-metric minimum of the two.
        println!(
            "possible regression on the first sample; \
             collecting a second (per-metric min is kept)"
        );
        let second = collect_fresh_sample("target/bench-check/fresh2.json");
        for (name, value) in second {
            fresh
                .entry(name)
                .and_modify(|v| *v = v.min(value))
                .or_insert(value);
        }
        failures = compare(&baseline, &fresh, threshold_pct);
    }

    println!(
        "bench-check vs {} (threshold {threshold_pct}%):",
        baseline_path.display()
    );
    for name in GATED_METRICS {
        let (b, f) = (baseline.get(name), fresh.get(name));
        if let (Some(b), Some(f)) = (b, f) {
            println!(
                "  {name:<30} {b:>10.0} ns → {f:>10.0} ns   ({:+.1}%)",
                (f / b - 1.0) * 100.0
            );
        }
    }
    if failures.is_empty() {
        println!("bench-check passed");
    } else {
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        eprintln!(
            "bench-check failed ({} metric(s)). If this change deliberately \
             moves the baseline, rerun `cargo xtask bench-baseline` on a \
             quiet machine and commit the new BENCH_features.json.",
            failures.len()
        );
        exit(1);
    }
}

/// Runs the quick feature bench, writing its artefact (and metrics
/// snapshot) under target/bench-check/, and extracts the gated metrics.
fn collect_fresh_sample(out: &str) -> BTreeMap<String, f64> {
    run(
        "feature bench sample",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "echo-bench",
            "--bin",
            "feature_bench",
            "--",
            "--quick",
            "--out",
            out,
            "--metrics-out",
            "target/bench-check/metrics.json",
        ],
        &[],
    );
    gated_metrics_from_file(Path::new(out))
}

fn gated_metrics_from_file(path: &Path) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("could not read {}: {e}", path.display());
        exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("could not parse {}: {e}", path.display());
        exit(1);
    });
    GATED_METRICS
        .iter()
        .filter_map(|&name| Some((name.to_string(), doc.path(name)?.as_f64()?)))
        .collect()
}

/// Gated metrics whose fresh value exceeds baseline × (1 + threshold).
/// A metric missing from either side is also a failure — the gate must
/// never silently shrink.
fn compare(
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    threshold_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for name in GATED_METRICS {
        match (baseline.get(name), fresh.get(name)) {
            (Some(&b), Some(&f)) if b > 0.0 => {
                let limit = b * (1.0 + threshold_pct / 100.0);
                if f > limit {
                    failures.push(format!(
                        "{name}: {f:.0} ns vs baseline {b:.0} ns \
                         (+{:.1}%, limit +{threshold_pct}%)",
                        (f / b - 1.0) * 100.0
                    ));
                }
            }
            (Some(_), Some(_)) => failures.push(format!("{name}: non-positive baseline")),
            (None, _) => failures.push(format!("{name}: missing from baseline")),
            (_, None) => failures.push(format!("{name}: missing from fresh sample")),
        }
    }
    failures
}

/// Proves the comparator catches a synthetic >threshold regression and
/// accepts values inside the envelope, without running any benchmark.
fn bench_check_selftest(threshold_pct: f64) {
    let base: BTreeMap<String, f64> = GATED_METRICS
        .iter()
        .map(|&m| (m.to_string(), 100_000.0))
        .collect();

    let inside: BTreeMap<String, f64> = base
        .iter()
        .map(|(k, v)| (k.clone(), v * (1.0 + threshold_pct / 100.0) * 0.99))
        .collect();
    assert!(
        compare(&base, &inside, threshold_pct).is_empty(),
        "selftest: a sample inside the envelope must pass"
    );

    let regressed: BTreeMap<String, f64> = base
        .iter()
        .map(|(k, v)| (k.clone(), v * (1.0 + threshold_pct / 100.0) * 1.01))
        .collect();
    let failures = compare(&base, &regressed, threshold_pct);
    assert_eq!(
        failures.len(),
        GATED_METRICS.len(),
        "selftest: every synthetic regression must be flagged, got {failures:?}"
    );

    let mut partial = base.clone();
    partial.remove(GATED_METRICS[0]);
    assert!(
        !compare(&partial, &base, threshold_pct).is_empty(),
        "selftest: a metric missing from the baseline must fail"
    );
    assert!(
        !compare(&base, &partial, threshold_pct).is_empty(),
        "selftest: a metric missing from the fresh sample must fail"
    );
    println!("bench-check selftest passed (threshold {threshold_pct}%)");
}

/// The documented baseline override: reruns the full bench so
/// `BENCH_features.json` is rewritten from this machine's numbers.
fn bench_baseline() {
    run(
        "feature bench (full, rewrites BENCH_features.json)",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "echo-bench",
            "--bin",
            "feature_bench",
        ],
        &[],
    );
    println!("baseline rewritten — review and commit BENCH_features.json");
}

pub(crate) fn required_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        exit(2);
    })
}

/// Wall-clock per gate step, in execution order, for the end-of-run
/// summary — where CI minutes actually go is itself a gated budget.
fn step_durations() -> &'static std::sync::Mutex<Vec<(String, std::time::Duration)>> {
    static DURATIONS: std::sync::OnceLock<std::sync::Mutex<Vec<(String, std::time::Duration)>>> =
        std::sync::OnceLock::new();
    DURATIONS.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

fn print_step_durations() {
    let steps = step_durations().lock().unwrap();
    if steps.is_empty() {
        return;
    }
    let total: std::time::Duration = steps.iter().map(|(_, d)| *d).sum();
    println!("\nstep durations (total {:.1}s):", total.as_secs_f64());
    for (name, dur) in steps.iter() {
        println!("  {:>8.1}s  {name}", dur.as_secs_f64());
    }
}

pub(crate) fn run(name: &str, args: &[&str], envs: &[(&str, &str)]) {
    let env_prefix: String = envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    println!("==> {name}: {env_prefix}cargo {}", args.join(" "));
    // CARGO points back at the cargo that invoked the alias, so the
    // gate runs with the same toolchain the developer is using.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let start = std::time::Instant::now();
    let status = Command::new(cargo)
        .args(args)
        .envs(envs.iter().copied())
        .status();
    step_durations()
        .lock()
        .unwrap()
        .push((name.to_string(), start.elapsed()));
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("step `{name}` failed with {s}");
            exit(1);
        }
        Err(e) => {
            eprintln!("step `{name}` could not start: {e}");
            exit(1);
        }
    }
}
