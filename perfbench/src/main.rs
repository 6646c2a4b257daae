//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Runs one workload on inputs drawn from the seed, checks every
//! decision, and prints as its last stdout line one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Host
//! diagnostics go on the line before and, with the trace spans, into
//! `DIR` (default `.bench_build/perfbench`). See `perfbench/README.md`.

mod device;
mod procfs;
mod schedule;
mod serve;
mod stats;
mod trace;

use stats::Tail;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

pub const WORKLOADS: [&str; 2] = ["device_auth", "serve_sparse"];

/// Printed with `--trace 0`, on every workload: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`, on every workload; a layer the workload
/// does not run reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.health.screen_ms", "ms"),
    ("core.pipeline.preprocess_ms", "ms"),
    ("core.distance.estimate_ms", "ms"),
    ("core.distance.covariance_ms", "ms"),
    ("core.imaging.beep_ms", "ms"),
    ("ml.cnn.train_ms", "ms"),
    ("core.auth.decide_us", "us"),
    ("core.unattributed_ms", "ms"),
    ("core.steering_cache.hit_ratio", "ratio"),
    ("core.template_cache.hit_ratio", "ratio"),
    ("dsp.fft_plan_cache.hit_ratio", "ratio"),
    ("core.enroll.features_ms", "ms"),
    ("ml.svm.enroll_ms", "ms"),
    ("serve.server.e2e_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.batcher.mean_batch", "requests"),
    ("serve.io.cpu_ms_per_op", "ms"),
    ("serve.batcher.cpu_ms_per_op", "ms"),
    ("serve.io.busy_pct", "%"),
    ("serve.batcher.busy_pct", "%"),
    ("serve.runqueue_wait_ms", "ms"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("ml.cnn.request_ms", "ms"),
    ("core.store.identify_us", "us"),
    ("serve.tenant.enroll_ms", "ms"),
    ("ops.attempted", "count"),
    ("ops.failed", "count"),
    ("ops.shed", "count"),
    ("ops.mismatch", "count"),
    ("auth.genuine_accept_ratio", "ratio"),
    ("auth.impostor_accept_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    diag: Vec<(String, f64)>,
    notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// A host or run diagnostic: recorded beside the run, never a metric.
    pub fn diag(&mut self, name: &str, value: f64) {
        self.diag.push((name.to_string(), value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn tail_note(&mut self, t: &Tail) {
        self.note(format!(
            "tail_ms is {} of {} samples, {} beyond it",
            t.label, t.samples, t.beyond
        ));
        self.diag("tail.samples", t.samples as f64);
        self.diag("tail.beyond", t.beyond as f64);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A JSON number; a failed operation's infinite latency prints as the
/// largest double.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e308".into()
    }
}

/// Fixed floating-point work, timed before and after the workload: a
/// slow reading shows the host, not the program, slowed down. The loop
/// is vectorisable multiply-adds over an L1-resident array, the kind of
/// work imaging and the CNN do: when a shared host slows that work, a
/// scalar dependency chain or a memory stream may not slow at all.
fn canary_ms() -> f64 {
    let x: Vec<f64> = (0..4096).map(|i| f64::from(i) * 1e-3).collect();
    let t = Instant::now();
    let mut acc = [0.0f64; 16];
    for _ in 0..3000 {
        for v in black_box(&x).chunks_exact(16) {
            for (a, b) in acc.iter_mut().zip(v) {
                *a = *a * 0.999 + b;
            }
        }
    }
    black_box(acc);
    ms(t.elapsed())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload `{value}`; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && (0.5..=600.0).contains(&s) => seconds = Some(s),
                _ => return Err(bad("a run length in 0.5..=600 seconds")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn json_object<'a>(entries: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = entries.map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal0 = procfs::steal_ms();
    let canary0 = canary_ms();
    let t0 = Instant::now();
    let run = match args.workload.as_str() {
        "device_auth" => device::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let canary1 = canary_ms();
    out.diag("run.wall_s", t0.elapsed().as_secs_f64());
    out.diag("canary.before_ms", canary0);
    out.diag("canary.after_ms", canary1);
    if let (Some(a), Some(b)) = (steal0, procfs::steal_ms()) {
        out.diag("host.steal_ms", b - a);
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut idle = Vec::new();
    let metrics = json_object(table.iter().map(|&(name, unit)| {
        let value = out.get(name).unwrap_or_else(|| {
            idle.push(name);
            0.0
        });
        (
            name,
            format!("{{\"value\": {}, \"unit\": \"{unit}\"}}", num(value)),
        )
    }));
    if !idle.is_empty() {
        out.note(format!(
            "not run by this workload, reported as 0: {}",
            idle.join(" ")
        ));
    }
    // Measured values this mode does not print stay with the diagnostics.
    let extra: Vec<(String, f64)> = out
        .metrics
        .iter()
        .filter(|(n, _)| !table.iter().any(|(t, _)| t == n))
        .map(|&(n, v)| (n.to_string(), v))
        .collect();
    out.diag.extend(extra);
    let diag = json_object(out.diag.iter().map(|(k, v)| (k.as_str(), num(*v))));
    let correct = out.failed == 0 && out.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let notes: Vec<String> = out.notes.iter().map(|n| format!("{n:?}")).collect();
    let artefact = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"result\": {result}, \"diag\": {diag}, \"notes\": [{}]}}\n",
        args.workload,
        args.seed,
        args.seconds,
        notes.join(", ")
    );
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(args.out.join(format!("{stem}.json")), artefact)?;
        match &out.tracer {
            Some(t) => {
                let file = std::fs::File::create(args.out.join(format!("{stem}.spans.jsonl")))?;
                let mut w = std::io::BufWriter::new(file);
                t.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            }
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: writing artefacts to {}: {e}",
            args.out.display()
        );
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    println!("diag: {diag}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` inside the array that follows `"key"`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed =
            |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(json, "end_to_end"), listed(&END_TO_END));
        assert_eq!(names_in(json, "per_layer"), listed(&PER_LAYER));
        assert_eq!(
            names_in(json, "workloads"),
            WORKLOADS.map(String::from).to_vec()
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid(name), "{name}");
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} {unit}"
            );
        }
        assert!(WORKLOADS.iter().all(|w| valid(w)));
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve_sparse --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_sparse", 3, 10.0, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload device_auth --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload device_auth --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload device_auth --seed 1 --seconds 10").is_err());
        assert!(parse("--workload device_auth --seed 1 --seconds").is_err());
    }

    #[test]
    fn numbers_stay_json() {
        assert_eq!(num(1.25), "1.25");
        assert_eq!(num(f64::INFINITY), "1e308");
    }
}
