//! Extension — authentication quality under channel faults.
//!
//! The paper's array is assumed healthy; deployed smart speakers lose
//! microphones to dust, drop-offs and driver bugs. This experiment
//! enrols every user on a *clean* device, then sweeps probe-time channel
//! faults over fault kind × severity × number of faulted microphones and
//! reports the spoofer-gate EER of each point against the clean
//! baseline — quantifying how gracefully the health-screen + mic-subset
//! degraded path gives ground.
//!
//! Probes whose capture is rejected outright (too few healthy
//! microphones, or a pipeline failure on the surviving subset) carry no
//! gate score; they are tallied per point as `degraded_rejects`. For a
//! genuine user that is a failed login, for a spoofer a win — both are
//! visible in the count, and the ROC is computed over the scoring
//! probes only.

use crate::experiments::protocol::{enroll, ProtocolConfig, TEST_BEEP_OFFSET};
use crate::harness::{CaptureSpec, Harness};
use crate::roc::roc_curve;
use echo_sim::{FaultKind, FaultPlan, UserProfile};
use echoimage_core::{Authenticator, EchoImageError};

/// Configuration for the fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Registered users.
    pub users: usize,
    /// Spoofers.
    pub spoofers: usize,
    /// Fault kinds swept.
    pub kinds: Vec<FaultKind>,
    /// Severities swept, each in `[0, 1]`.
    pub severities: Vec<f64>,
    /// How many microphones carry the fault at each point.
    pub faulted_mic_counts: Vec<usize>,
    /// Enrol/test counts.
    pub protocol: ProtocolConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 83,
            users: 3,
            spoofers: 2,
            kinds: FaultKind::ALL.to_vec(),
            severities: vec![0.5, 1.0],
            faulted_mic_counts: vec![1, 2],
            protocol: ProtocolConfig {
                train_beeps: 18,
                test_beeps: 6,
                test_sessions: vec![0],
                ..ProtocolConfig::default()
            },
        }
    }
}

/// One sweep point: a fault condition and the gate quality under it.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Fault kind injected into the probes.
    pub kind: FaultKind,
    /// Severity in `[0, 1]`.
    pub severity: f64,
    /// Number of microphones faulted.
    pub faulted_mics: usize,
    /// Spoofer-gate equal error rate over the scoring probes (1.0 when
    /// either score population is empty — the gate never got to run).
    pub eer: f64,
    /// Area under the gate's ROC (0.5 when a population is empty).
    pub auc: f64,
    /// Probe trains rejected before scoring (degraded capture or
    /// pipeline failure on the surviving subset).
    pub degraded_rejects: usize,
    /// Genuine gate scores collected.
    pub genuine_scores: usize,
    /// Impostor gate scores collected.
    pub impostor_scores: usize,
}

echo_obs::json_object!(Point {
    kind,
    severity,
    faulted_mics,
    eer,
    auc,
    degraded_rejects,
    genuine_scores,
    impostor_scores
});

/// Results of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Gate EER with no faults injected (same probes, empty plan).
    pub baseline_eer: f64,
    /// Gate AUC with no faults injected.
    pub baseline_auc: f64,
    /// One point per (kind, severity, faulted-mic count).
    pub points: Vec<Point>,
    /// Audit-log summary from the dedicated audit pass.
    pub audit: AuditSummary,
}

echo_obs::json_object!(Output {
    baseline_eer,
    baseline_auc,
    points,
    audit
});

/// Summary of the per-decision audit records from the audit pass: one
/// full `authenticate_train` per registered user through a dead-mic-0
/// device, plus one probe with *every* microphone dead (a guaranteed
/// degraded-capture rejection). The pass asserts the flight-recorder
/// contract — every rejected attempt carries a non-empty reject reason
/// and a degraded-channel mask covering the injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSummary {
    /// Audit records drained after the pass (one per attempt).
    pub attempts: usize,
    /// Attempts whose verdict was a rejection (vote or degraded error).
    pub rejected: usize,
    /// Rejections carrying a non-empty reject reason.
    pub rejected_with_reason: usize,
    /// Rejections whose degraded mask contains every injected-fault bit.
    pub rejected_with_injected_mask: usize,
}

echo_obs::json_object!(AuditSummary {
    attempts,
    rejected,
    rejected_with_reason,
    rejected_with_injected_mask
});

/// Gate scores of every probe under `plan`: `(genuine, impostor,
/// rejects)`.
fn probe_scores(
    harness: &Harness,
    auth: &Authenticator,
    registered: &[&UserProfile],
    spoofers: &[&UserProfile],
    cfg: &ProtocolConfig,
    plan: &FaultPlan,
) -> (Vec<f64>, Vec<f64>, usize) {
    let mut jobs: Vec<(UserProfile, CaptureSpec)> = Vec::new();
    let mut is_genuine: Vec<bool> = Vec::new();
    for &session in &cfg.test_sessions {
        let test_spec = |offset_salt: u64| CaptureSpec {
            session: session * 100 + 37,
            beeps: cfg.test_beeps,
            beep_offset: TEST_BEEP_OFFSET + offset_salt * 1_000,
            faults: plan.clone(),
            ..CaptureSpec::default_lab(0)
        };
        for profile in registered {
            jobs.push((**profile, test_spec(profile.id as u64)));
            is_genuine.push(true);
        }
        for profile in spoofers {
            jobs.push((**profile, test_spec(profile.id as u64)));
            is_genuine.push(false);
        }
    }
    let mut genuine = Vec::new();
    let mut impostor = Vec::new();
    let mut rejects = 0usize;
    for (result, genuine_probe) in harness
        .features_for_batch(&jobs)
        .into_iter()
        .zip(is_genuine)
    {
        match result {
            Ok(feats) => {
                let scores = feats.iter().map(|f| auth.gate_decision(f));
                if genuine_probe {
                    genuine.extend(scores);
                } else {
                    impostor.extend(scores);
                }
            }
            Err(_) => rejects += 1,
        }
    }
    (genuine, impostor, rejects)
}

/// Runs the audit pass and checks the flight-recorder contract.
///
/// Every registered user authenticates once through a device whose
/// microphone 0 is dead (the degraded mic-subset route), then the first
/// user probes once with *every* microphone dead — a guaranteed
/// [`EchoImageError::DegradedCapture`] rejection. The audit ring is
/// drained afterwards and each rejected attempt is asserted to carry a
/// non-empty reject reason and a degraded-channel mask that covers the
/// bits the fault plan actually damaged.
///
/// # Panics
///
/// Panics when an audit record violates the contract — that is a bug in
/// the recorder, not an experimental outcome.
fn audit_pass(
    harness: &Harness,
    auth: &Authenticator,
    registered: &[&UserProfile],
    cfg: &ProtocolConfig,
) -> AuditSummary {
    use echo_sim::Placement;

    // Discard whatever earlier phases recorded so the drain below holds
    // exactly this pass's attempts, in order.
    let _ = echo_obs::take_audits();

    let spec = CaptureSpec {
        session: 777,
        beeps: cfg.test_beeps.max(1),
        beep_offset: TEST_BEEP_OFFSET + 90_000,
        ..CaptureSpec::default_lab(0)
    };
    let scene = harness.scene(&spec);
    let capture = |profile: &UserProfile| {
        scene.capture_train(
            &profile.body(),
            &Placement::standing_front(spec.distance),
            spec.session,
            spec.beeps,
            spec.beep_offset,
        )
    };

    // Per attempt: the channel mask the fault plan injected.
    let mut injected: Vec<u64> = Vec::new();
    let dead0 = FaultPlan::uniform(FaultKind::Dead, 1.0, &[0], 0x0AD1);
    for profile in registered {
        let _ = auth.authenticate_train_claimed(
            harness.pipeline(),
            &dead0.apply_train(&capture(profile)),
            profile.id as u64,
        );
        injected.push(1);
    }
    if let Some(profile) = registered.first() {
        let captures = capture(profile);
        let channels = captures.first().map_or(0, |c| c.num_channels());
        let all: Vec<usize> = (0..channels).collect();
        let dead_all = FaultPlan::uniform(FaultKind::Dead, 1.0, &all, 0x0AD2);
        let _ = auth.authenticate_train_claimed(
            harness.pipeline(),
            &dead_all.apply_train(&captures),
            profile.id as u64,
        );
        injected.push((1u64 << channels.min(63)) - 1);
    }

    let audits = echo_obs::take_audits();
    assert_eq!(
        audits.len(),
        injected.len(),
        "one audit record per authentication attempt"
    );
    let mut summary = AuditSummary {
        attempts: audits.len(),
        rejected: 0,
        rejected_with_reason: 0,
        rejected_with_injected_mask: 0,
    };
    for (audit, &mask) in audits.iter().zip(&injected) {
        if audit.verdict != echo_obs::AuthVerdict::Rejected {
            continue;
        }
        summary.rejected += 1;
        assert!(
            !audit.reject_reason.is_empty(),
            "rejected attempt (trace {}) has an empty reject reason",
            audit.trace
        );
        summary.rejected_with_reason += 1;
        assert_eq!(
            audit.degraded_mask & mask,
            mask,
            "rejected attempt (trace {}) does not carry the injected channel mask",
            audit.trace
        );
        summary.rejected_with_injected_mask += 1;
    }
    summary
}

/// `(eer, auc)` of a score split, with the documented conventions for
/// empty populations.
fn eer_auc(genuine: &[f64], impostor: &[f64]) -> (f64, f64) {
    if genuine.is_empty() || impostor.is_empty() {
        (1.0, 0.5)
    } else {
        let roc = roc_curve(genuine, impostor);
        (roc.eer, roc.auc)
    }
}

/// Runs the sweep: clean enrolment once, then one probe pass per
/// (kind, severity, count) plus the clean baseline.
///
/// # Errors
///
/// Propagates enrolment-time pipeline failures; probe-time failures are
/// counted per point, not raised.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let population =
        echo_sim::Population::generate(config.users + config.spoofers, config.users, config.seed);
    let registered: Vec<_> = population.registered().collect();
    let spoofers: Vec<_> = population.spoofers().collect();

    let harness = Harness::new(config.seed);
    let clean_spec = CaptureSpec::default_lab(0);
    let auth = enroll(&harness, &registered, &clean_spec, &config.protocol)?;

    let (g0, i0, _) = probe_scores(
        &harness,
        &auth,
        &registered,
        &spoofers,
        &config.protocol,
        &FaultPlan::none(),
    );
    let (baseline_eer, baseline_auc) = eer_auc(&g0, &i0);

    let mut points = Vec::new();
    for &kind in &config.kinds {
        for &severity in &config.severities {
            for &count in &config.faulted_mic_counts {
                let mics: Vec<usize> = (0..count).collect();
                let plan = FaultPlan::uniform(kind, severity, &mics, config.seed ^ 0x5EED);
                let (genuine, impostor, rejects) = probe_scores(
                    &harness,
                    &auth,
                    &registered,
                    &spoofers,
                    &config.protocol,
                    &plan,
                );
                let (eer, auc) = eer_auc(&genuine, &impostor);
                points.push(Point {
                    kind,
                    severity,
                    faulted_mics: count,
                    eer,
                    auc,
                    degraded_rejects: rejects,
                    genuine_scores: genuine.len(),
                    impostor_scores: impostor.len(),
                });
            }
        }
    }
    let audit = audit_pass(&harness, &auth, &registered, &config.protocol);
    Ok(Output {
        baseline_eer,
        baseline_auc,
        points,
        audit,
    })
}
