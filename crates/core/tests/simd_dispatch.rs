//! SIMD dispatch contract: the gauge reports the forced path, and the
//! full pipeline's numeric/audit/trace output is bit-identical across
//! dispatch modes.
//!
//! The second half works through digest files: the SIMD path is chosen
//! once per process (like `ECHOIMAGE_THREADS`), so scalar-vs-AVX2
//! comparison needs two processes. [`parity_digest_is_recorded`] runs a
//! canonical enrol + authenticate + ranging workload and writes an
//! FNV-1a digest of everything the determinism contract covers —
//! feature bits, distance-estimate bits, the auth decision, audit
//! records and logical span identities (never wall-clock timings) — to
//! `target/simd-parity/<mode>.digest`. `cargo xtask ci` (and the CI
//! workflow) runs this suite under `ECHOIMAGE_SIMD=scalar` and
//! `ECHOIMAGE_SIMD=auto` and asserts the digests match, which on AVX2
//! hardware is the scalar-vs-SIMD bit-identity proof.

use std::io::Write as _;
use std::sync::{Mutex, MutexGuard};

use echo_dsp::simd;
use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::auth::{AuthAttempt, Authenticator};
use echoimage_core::config::ImagingConfig;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};

static LOCK: Mutex<()> = Mutex::new(());

/// Serialises the test and restores recorder defaults on exit (the
/// registry, recorder and caches are process-global).
struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Armed {
    fn drop(&mut self) {
        echo_obs::set_trace_enabled(false);
        echo_obs::set_trace_sampling(1);
        echo_obs::set_enabled(true);
        echo_obs::reset_traces();
    }
}

fn guard() -> Armed {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    echo_dsp::plan::clear_plan_cache();
    echo_obs::set_enabled(true);
    echo_obs::reset();
    echo_obs::set_trace_enabled(true);
    echo_obs::set_trace_sampling(1);
    echo_obs::reset_traces();
    Armed(g)
}

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        imaging: ImagingConfig {
            grid_n: 16,
            grid_spacing: 0.1,
            ..ImagingConfig::default()
        },
        threads,
        ..PipelineConfig::default()
    }
}

fn capture_train(beeps: usize, seed: u64) -> Vec<echo_sim::BeepCapture> {
    let scene = Scene::new(SceneConfig::laboratory_quiet(11));
    let body = BodyModel::from_seed(29);
    scene.capture_train(&body, &Placement::standing_front(0.7), 0, beeps, seed)
}

/// The dispatch mode this process was forced into, derived from the
/// environment exactly the way `echo_dsp::simd` derives it.
fn expected_path() -> simd::SimdPath {
    let forced_scalar = std::env::var(simd::SIMD_ENV)
        .map(|v| v.trim().eq_ignore_ascii_case("scalar"))
        .unwrap_or(false);
    if !forced_scalar && simd::avx2_supported() {
        simd::SimdPath::Avx2
    } else {
        simd::SimdPath::Scalar
    }
}

#[test]
fn dispatch_gauge_reports_forced_path() {
    let _g = guard();
    // Run real distance work so the gauge is recorded the way
    // production records it (from the hot entry point, after reset).
    let caps = capture_train(1, 5);
    let pipeline = EchoImagePipeline::new(config(1));
    pipeline
        .estimate_distance(&caps)
        .expect("canonical scene must range");

    assert_eq!(simd::active(), expected_path(), "env knob must win");
    let snap = echo_obs::snapshot();
    let gauge = snap
        .gauges
        .iter()
        .find(|(name, _)| name == simd::DISPATCH_GAUGE)
        .map(|(_, v)| *v)
        .expect("distance estimation records the dispatch gauge");
    assert_eq!(
        gauge,
        expected_path().gauge_value(),
        "gauge must report the forced path ({})",
        expected_path().name()
    );
}

#[test]
fn forcing_scalar_is_always_honoured() {
    // Whatever this process's env says, the explicit-path kernels must
    // accept a scalar forcing — the mandatory fallback of the tentpole.
    let a = [3.0, -1.0, 7.5, 2.0, 7.5, -9.0];
    let b = [1.0, -1.0, 5.5, 2.0, 7.5, -6.0];
    assert_eq!(simd::sqdist_f32_with(simd::SimdPath::Scalar, &a, &b), 17.0);
}

/// Everything the cross-mode bit-identity contract covers, rendered
/// deterministically. Wall-clock span timings are excluded by
/// construction (only logical span identity is folded in).
fn canonical_transcript() -> String {
    let mut out = String::new();

    // Feature extraction + enrolment + authentication + audit.
    let enroll_train = capture_train(3, 0);
    let probe_train = capture_train(3, 7);
    let pipeline = EchoImagePipeline::new(config(1));
    let enroll_feats = pipeline
        .features_from_train(&enroll_train)
        .expect("enrol features");
    for f in enroll_feats.iter().flatten() {
        out.push_str(&format!("{:016x},", f.to_bits()));
    }
    let auth = Authenticator::enroll(&[(1, enroll_feats)], &Default::default()).expect("enroll");
    let decision = auth
        .authenticate_train(&pipeline, &probe_train, AuthAttempt::default())
        .expect("authenticate");
    out.push_str(&format!("decision={decision:?};"));

    // Distance estimation (the SIMD hot path end to end).
    let est = pipeline
        .estimate_distance(&probe_train)
        .expect("canonical scene must range");
    out.push_str(&format!(
        "slant={:016x};horizontal={:016x};direct={};echo={};",
        est.slant_distance.to_bits(),
        est.horizontal_distance.to_bits(),
        est.direct_peak,
        est.echo_peak,
    ));

    // Audit records describe decisions, not schedules: fold verbatim.
    for audit in echo_obs::take_audits() {
        out.push_str(&format!("audit={audit:?};"));
    }

    // Span identity without timings (same fields the trace determinism
    // suite pins across thread counts).
    for ev in echo_obs::take_spans() {
        out.push_str(&format!(
            "span=({},{},{},{},{},{},{:?});",
            ev.trace, ev.seq, ev.span, ev.parent, ev.name, ev.lidx, ev.attrs
        ));
    }
    out
}

#[test]
fn parity_digest_is_recorded() {
    let _g = guard();
    let transcript = canonical_transcript();
    let digest = echo_obs::fnv1a64(transcript.as_bytes());

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/simd-parity");
    std::fs::create_dir_all(&dir).expect("create parity dir");
    let mode = simd::active().name();
    let path = dir.join(format!("{mode}.digest"));
    let mut file = std::fs::File::create(&path).expect("create digest file");
    writeln!(file, "{digest:016x}").expect("write digest");

    // Self-check: the canonical workload must be reproducible within
    // one process, otherwise the cross-process comparison means nothing.
    echo_dsp::plan::clear_plan_cache();
    echo_obs::reset();
    echo_obs::reset_traces();
    let again = echo_obs::fnv1a64(canonical_transcript().as_bytes());
    assert_eq!(digest, again, "canonical transcript must be reproducible");
}
