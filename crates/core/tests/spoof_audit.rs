//! Audit-pass suite for the attack model (DESIGN.md §14).
//!
//! Every spoofed authentication attempt must produce exactly one
//! [`AuthAudit`] whose `reject_kind` names *why* the attempt failed —
//! [`RejectKind::ReplaySignature`] with the measured image spread for a
//! loudspeaker replay caught by the spatial screen, a classifier kind
//! ([`RejectKind::SpooferGate`] / [`RejectKind::NoMajority`]) for a
//! twin impostor — and the full record, metadata included, must be
//! bit-identical across worker-thread counts (`ECHOIMAGE_THREADS=1`
//! versus the pool). These tests ride the same determinism contract as
//! `trace_determinism.rs`: audits are recorded from the coordinating
//! thread, never inside a parallel region.
//!
//! The recorder and the process caches are global, so every test
//! serialises on one lock and starts from a cleared state.
//!
//! [`AuthAudit`]: echo_obs::AuthAudit
//! [`RejectKind`]: echo_obs::RejectKind

use std::sync::{Mutex, MutexGuard};

use echo_obs::{AuthAudit, AuthVerdict, RejectKind};
use echo_sim::{BodyModel, Placement, Scene, SceneConfig, SpoofPlan};
use echoimage_core::auth::{AuthDecision, Authenticator};
use echoimage_core::config::SpatialCheckConfig;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};

static LOCK: Mutex<()> = Mutex::new(());

struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Armed {
    fn drop(&mut self) {
        echo_obs::set_enabled(true);
        echo_obs::reset();
    }
}

fn guard() -> Armed {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear_caches();
    echo_obs::set_enabled(true);
    echo_obs::reset();
    Armed(g)
}

fn clear_caches() {
    echo_dsp::plan::clear_plan_cache();
}

/// Worker threads for the pooled run (`ECHOIMAGE_THREADS`, default
/// auto) — the suite runs in the CI determinism matrix under both 1
/// and 0.
fn pool_threads() -> usize {
    echoimage_core::par::threads_from_env().expect("invalid ECHOIMAGE_THREADS")
}

/// The validated free-field conditions of the spatial screen (see
/// `spatial.rs`): quiet laboratory, victim 0.7 m in front, default
/// imaging grid, default (free-field) spread ceiling.
fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        spatial: SpatialCheckConfig {
            enabled: true,
            ..SpatialCheckConfig::default()
        },
        ..PipelineConfig::default()
    }
    .with_threads(threads)
}

fn scene() -> Scene {
    Scene::new(SceneConfig::laboratory_quiet(3))
}

const VICTIM_SEED: u64 = 11;
const VICTIM_ID: u64 = 1;

/// Enrolls the victim outside the comparison window, so both thread
/// counts authenticate against the same model. Enrolment spans three
/// visits so the enrolled cloud covers the session-to-session noise a
/// later genuine probe will carry (the evaluation protocol does the
/// same with its enrolment batches).
fn enrolled(scene: &Scene) -> Authenticator {
    let victim = BodyModel::from_seed(VICTIM_SEED);
    let pipe = EchoImagePipeline::new(config(1));
    let mut feats = Vec::new();
    for visit in 0..3u32 {
        let caps = scene.capture_train(
            &victim,
            &Placement::standing_front(0.7),
            visit,
            6,
            u64::from(visit) * 1_000,
        );
        feats.extend(pipe.features_from_train(&caps).unwrap());
    }
    Authenticator::enroll(&[(VICTIM_ID as usize, feats)], &Default::default()).unwrap()
}

/// Runs one claimed attempt at `threads` workers from a cold start and
/// returns the decision with its single audit record.
fn attempt(
    auth: &Authenticator,
    captures: &[echo_sim::BeepCapture],
    threads: usize,
) -> (AuthDecision, AuthAudit) {
    clear_caches();
    echo_obs::reset();
    echo_obs::reset_audits();
    let pipeline = EchoImagePipeline::new(config(threads));
    let decision = auth
        .authenticate_train_claimed(&pipeline, captures, VICTIM_ID)
        .unwrap();
    let audits = echo_obs::take_audits();
    assert_eq!(audits.len(), 1, "one attempt must mint exactly one audit");
    (decision, audits.into_iter().next().unwrap())
}

#[test]
fn replay_reject_is_typed_and_thread_invariant() {
    let _g = guard();
    let s = scene();
    let auth = enrolled(&s);
    let p = Placement::standing_front(0.7);

    // The attacker records the victim, then replays from where the
    // victim stood.
    let victim = BodyModel::from_seed(VICTIM_SEED);
    let recorded = s.capture_train(&victim, &p, 1, 3, 50);
    let plan = SpoofPlan::replay_of(&recorded, 0.7, 77);
    let attack = plan.capture_train(&s, &p, 2, 3, 100);

    let (serial_decision, serial_audit) = attempt(&auth, &attack, 1);
    let (pooled_decision, pooled_audit) = attempt(&auth, &attack, pool_threads());

    assert_eq!(serial_decision, pooled_decision);
    assert_eq!(
        serial_audit, pooled_audit,
        "spoof audits must not depend on the worker-thread count"
    );

    // The screen, not the classifier, must own this reject: the typed
    // kind plus the measured spread above the deployed ceiling.
    assert_eq!(serial_decision, AuthDecision::Rejected);
    assert_eq!(serial_audit.verdict, AuthVerdict::Rejected);
    assert_eq!(serial_audit.reject_kind, RejectKind::ReplaySignature);
    assert_eq!(serial_audit.claimed_user, Some(VICTIM_ID));
    assert!(!serial_audit.reject_reason.is_empty());
    let ceiling = SpatialCheckConfig::default().max_coherence;
    let spread = serial_audit
        .spatial_coherence
        .expect("a replay-signature reject must carry the measured spread");
    assert!(
        spread > ceiling,
        "recorded spread {spread} must exceed the ceiling {ceiling}"
    );
    // Screened before scoring: no gate margin, no votes.
    assert_eq!(serial_audit.best_gate_margin, None);
    assert!(serial_audit.votes.is_empty());
    assert_eq!(serial_audit.beeps, 3);
}

#[test]
fn twin_reject_is_typed_and_thread_invariant() {
    let _g = guard();
    let s = scene();
    let auth = enrolled(&s);
    let p = Placement::standing_front(0.7);

    // An accomplice matching the victim's stature within 0.3
    // population standard deviations, with their own micro-texture.
    let plan = SpoofPlan::twin_of(VICTIM_SEED, 0.3, 91);
    let attack = plan.capture_train(&s, &p, 3, 3, 200);

    let (serial_decision, serial_audit) = attempt(&auth, &attack, 1);
    let (pooled_decision, pooled_audit) = attempt(&auth, &attack, pool_threads());

    assert_eq!(serial_decision, pooled_decision);
    assert_eq!(
        serial_audit, pooled_audit,
        "spoof audits must not depend on the worker-thread count"
    );

    // A live body passes the spatial screen; the classifier owns the
    // reject, so the kind is a classifier kind and the gate margin was
    // actually measured.
    assert_eq!(serial_decision, AuthDecision::Rejected);
    assert_eq!(serial_audit.verdict, AuthVerdict::Rejected);
    assert!(
        matches!(
            serial_audit.reject_kind,
            RejectKind::SpooferGate | RejectKind::NoMajority
        ),
        "twin reject must be classifier-typed, got {:?}",
        serial_audit.reject_kind
    );
    assert_eq!(serial_audit.claimed_user, Some(VICTIM_ID));
    assert!(!serial_audit.reject_reason.is_empty());
    assert!(
        serial_audit.best_gate_margin.is_some(),
        "the twin's features must have been scored"
    );
    // The spatial check ran and passed: the measured spread is on the
    // record, at or below the ceiling.
    let ceiling = SpatialCheckConfig::default().max_coherence;
    let spread = serial_audit
        .spatial_coherence
        .expect("an enabled spatial check records its measurement");
    assert!(spread <= ceiling, "live spread {spread} within {ceiling}");
}

#[test]
fn genuine_attempt_survives_the_screen_and_thread_count() {
    let _g = guard();
    let s = scene();
    let auth = enrolled(&s);
    let p = Placement::standing_front(0.7);

    let victim = BodyModel::from_seed(VICTIM_SEED);
    let probe = s.capture_train(&victim, &p, 4, 5, 300);

    let (serial_decision, serial_audit) = attempt(&auth, &probe, 1);
    let (pooled_decision, pooled_audit) = attempt(&auth, &probe, pool_threads());

    assert_eq!(serial_decision, pooled_decision);
    assert_eq!(serial_audit, pooled_audit);

    // The screen must not cost the genuine user their accept, and an
    // accepted audit is typed `None` with an empty reason.
    assert_eq!(
        serial_decision,
        AuthDecision::Accepted {
            user_id: VICTIM_ID as usize
        }
    );
    assert_eq!(
        serial_audit.verdict,
        AuthVerdict::Accepted { user_id: VICTIM_ID }
    );
    assert_eq!(serial_audit.reject_kind, RejectKind::None);
    assert!(serial_audit.reject_reason.is_empty());
    let ceiling = SpatialCheckConfig::default().max_coherence;
    let spread = serial_audit.spatial_coherence.unwrap();
    assert!(spread <= ceiling);
}
