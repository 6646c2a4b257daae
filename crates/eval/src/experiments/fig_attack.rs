//! Extension — adversarial attack evaluation (DESIGN.md §14).
//!
//! The paper evaluates EchoImage against *zero-effort* spoofers: other
//! people presenting their own bodies. This experiment evaluates two
//! deliberate attacks from the threat model:
//!
//! * **Replay** — the attacker records a victim's probe session and
//!   re-emits it from a loudspeaker ([`echo_sim::ReplaySpoof`]). A
//!   single speaker cannot reproduce six distinct microphone channels,
//!   so the re-emission collapses the array's angular structure: the
//!   acoustic image flattens and the imaged features shift. Both
//!   decision channels see this — the classifier (features move off the
//!   enrolled cloud) and the anti-replay spatial screen (image spread
//!   rises) — and the experiment reports each channel separately plus
//!   the combined screened deployment, because their failure modes are
//!   independent: the classifier margin is per-user tight but assumes
//!   an intact enrolment model, while the screen is model-free.
//! * **Twin** — an accomplice whose stature matches the victim within
//!   `radius` population standard deviations ([`echo_sim::TwinSpoof`]).
//!   The screen cannot help (a twin is a real scatterer cloud); the
//!   classifier margin is the only defence, so the interesting output
//!   is how the EER degrades as the twin gets closer.
//!
//! Both tiers share one image-source room model with the clean
//! captures, so wall multipath is identical on both sides of every
//! comparison and can never be the separating artefact. Reverberation
//! is also the experiment's most interesting stressor: wall ghosts
//! flatten genuine images too, so the replay margin narrows as
//! absorption drops — the population curves quantify the cost, and the
//! default configuration uses a ceiling calibrated for its room.
//!
//! Two tiers keep a 10k-subject population affordable:
//!
//! 1. **Acoustic tier** — a few victims run end-to-end through the real
//!    pipeline (capture → image → screen → features → vote), measuring
//!    genuine/attack distributions of the two decision channels: the
//!    spoofer-gate margin and the image-spread statistic.
//! 2. **Population tier** — Gaussian models calibrated on the acoustic
//!    tier (within- and between-subject) are sampled for ≥ 10 000
//!    synthetic subjects, and each channel's threshold sweep yields the
//!    attack-success-rate vs EER trade-off at population scale.
//!
//! An audit pass asserts the flight-recorder contract for attacks:
//! every screened replay rejection carries
//! [`RejectKind::ReplaySignature`] and the measured spread; twin
//! rejections carry the classifier's typed reasons.
//!
//! [`RejectKind::ReplaySignature`]: echo_obs::RejectKind::ReplaySignature

use crate::experiments::protocol::{enroll, ProtocolConfig, TEST_BEEP_OFFSET};
use crate::harness::{CaptureSpec, Harness};
use crate::roc::{roc_curve, RocPoint};
use echo_sim::{Placement, Population, RoomModel, SpoofAttack, SpoofKind, SpoofPlan};
use echoimage_core::config::SpatialCheckConfig;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};
use echoimage_core::spatial::train_spread;
use echoimage_core::{AuthDecision, EchoImageError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration for the attack evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Victims run through the acoustic tier.
    pub users: usize,
    /// Attack probes per victim per attack kind (and genuine probe
    /// trains per victim).
    pub probes: usize,
    /// Twin similarity: population standard deviations between the
    /// accomplice's stature and the victim's.
    pub twin_radius: f64,
    /// Image-source room shared by every capture (clean and attack).
    /// `None` evaluates in free field.
    pub room: Option<RoomModel>,
    /// Synthetic subjects in the population tier (≥ 10 000 for the
    /// headline artefact).
    pub population: usize,
    /// Anti-replay screen settings used at probe time.
    pub spatial: SpatialCheckConfig,
    /// Enrol/test counts.
    pub protocol: ProtocolConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 211,
            users: 3,
            probes: 2,
            twin_radius: 0.35,
            room: Some(RoomModel::small_room()),
            population: 12_000,
            spatial: SpatialCheckConfig {
                enabled: true,
                // Deployment-calibrated for the shared small_room: wall
                // ghosts flatten *genuine* images too (≈0.84 vs ≈0.73
                // free-field), so the free-field default ceiling would
                // mis-reject live users in reverb. The replay margin
                // narrows but survives (replay ≈0.90); the population
                // curves quantify exactly how much of it reverberation
                // costs.
                max_coherence: 0.86,
            },
            protocol: ProtocolConfig {
                train_beeps: 12,
                test_beeps: 4,
                test_sessions: vec![0],
                ..ProtocolConfig::default()
            },
        }
    }
}

/// Raw counts from the end-to-end acoustic tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcousticTier {
    /// Victims probed.
    pub victims: usize,
    /// Genuine probe trains authenticated with the screen on.
    pub genuine_trains: usize,
    /// Genuine trains the screened pipeline rejected (vote or screen).
    pub genuine_rejects: usize,
    /// Replay attempts per configuration.
    pub replay_attempts: usize,
    /// Replay attempts accepted with the spatial screen **disabled** —
    /// the classifier channel alone.
    pub replay_accepts_unscreened: usize,
    /// Replay attempts accepted with the screen enabled.
    pub replay_accepts_screened: usize,
    /// Twin attempts (screen enabled; it does not apply to real bodies).
    pub twin_attempts: usize,
    /// Twin attempts accepted.
    pub twin_accepts: usize,
    /// Mean normalized image spread of genuine trains.
    pub genuine_spread_mean: f64,
    /// Mean normalized image spread of replay trains.
    pub replay_spread_mean: f64,
}

/// A fitted score channel: within-subject and between-subject moments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    /// Grand mean of the measured samples.
    pub mean: f64,
    /// Within-subject standard deviation.
    pub sd: f64,
    /// Between-subject standard deviation (of per-victim means).
    pub between_sd: f64,
}

/// One attack family's population-scale trade-off curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackCurve {
    /// Attack family.
    pub kind: SpoofKind,
    /// Decision channel the sweep runs over (`"gate_margin"` for twin,
    /// `"image_spread"` for replay; spread scores are negated so higher
    /// is always more genuine).
    pub channel: String,
    /// Synthetic subjects sampled per side.
    pub population: usize,
    /// Equal error rate of genuine-vs-attack on this channel.
    pub eer: f64,
    /// Area under the ROC.
    pub auc: f64,
    /// The deployed operating threshold on this channel.
    pub operating_threshold: f64,
    /// Attack success rate at the operating threshold.
    pub asr_at_operating_point: f64,
    /// Genuine false-reject rate at the operating threshold.
    pub frr_at_operating_point: f64,
    /// Down-sampled sweep points (threshold → FAR/FRR; FAR is the ASR).
    pub points: Vec<RocPoint>,
}

/// Flight-recorder contract counts from the audit pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditSummary {
    /// Audit records drained (one per screened/unscreened attempt).
    pub attempts: usize,
    /// Screened replay attempts rejected.
    pub replay_rejects: usize,
    /// ...carrying `RejectKind::ReplaySignature` plus the measured
    /// spread above the ceiling.
    pub replay_rejects_with_signature: usize,
    /// Twin attempts rejected.
    pub twin_rejects: usize,
    /// ...carrying a typed classifier reason (spoofer gate / no
    /// majority) and a non-empty reject reason.
    pub twin_rejects_typed: usize,
}

/// Results of the attack evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Output {
    /// End-to-end acoustic-tier counts.
    pub acoustic: AcousticTier,
    /// Calibrated channels: genuine/twin gate margins, genuine/replay
    /// image spreads.
    pub calibration: Vec<(String, Channel)>,
    /// Population-scale curves: replay against each decision channel
    /// (classifier margin, image spread) and twin against the
    /// classifier.
    pub curves: Vec<AttackCurve>,
    /// Population replay success rate against the *screened*
    /// deployment: the fraction of subjects whose replay passes both
    /// the gate margin and the spread ceiling. This is the number the
    /// CI spoof gate bounds.
    pub replay_combined_asr: f64,
    /// Audit contract counts.
    pub audit: AuditSummary,
    /// The screen's spread ceiling in force.
    pub spread_ceiling: f64,
}

/// What each screened authentication in the acoustic tier was, in call
/// order — used to pair drained audit records with their attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Attempt {
    Genuine,
    ReplayScreened,
    ReplayUnscreened,
    Twin,
}

/// Standard-normal draw (Box–Muller; the vendored `rand` has no normal
/// distribution).
fn randn(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sd_about(xs: &[f64], mu: f64) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    (xs.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Fits a channel from per-victim sample groups: within-subject sd is
/// pooled over each victim's deviations from their own mean, and the
/// between-subject sd is the spread of victim means with the sampling
/// noise of those means (within²/n per victim) subtracted out — the
/// one-way ANOVA decomposition. Adding both back in [`sample_population`]
/// reproduces the total variance without double-counting either part.
fn fit_channel(per_victim: &[Vec<f64>]) -> Channel {
    let groups: Vec<&Vec<f64>> = per_victim.iter().filter(|v| !v.is_empty()).collect();
    let all: Vec<f64> = groups.iter().flat_map(|v| v.iter()).copied().collect();
    let grand = mean(&all);
    let victim_means: Vec<f64> = groups.iter().map(|v| mean(v)).collect();
    let pooled_dof = all.len().saturating_sub(groups.len());
    let means_sd = sd_about(&victim_means, mean(&victim_means));
    let within = if pooled_dof > 0 {
        let ss: f64 = groups
            .iter()
            .zip(&victim_means)
            .flat_map(|(v, &m)| v.iter().map(move |x| (x - m).powi(2)))
            .sum();
        (ss / pooled_dof as f64).sqrt().max(1e-6)
    } else {
        // One sample per victim: within-subject variation is
        // unobservable; assume it is comparable to the between-subject
        // spread rather than zero.
        (0.5 * means_sd).max(1e-6)
    };
    let between = if victim_means.len() >= 2 {
        let n_mean = all.len() as f64 / groups.len() as f64;
        (means_sd.powi(2) - within.powi(2) / n_mean)
            .max((0.1 * within).powi(2))
            .sqrt()
    } else {
        0.5 * within
    };
    Channel {
        mean: grand,
        sd: within,
        between_sd: between,
    }
}

/// Samples `n` subjects from a channel: each subject gets a personal
/// mean offset (between-subject), then one within-subject draw. The
/// per-subject RNG makes the draw order-independent and deterministic.
fn sample_population(channel: &Channel, n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut rng =
                ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            channel.mean + channel.between_sd * randn(&mut rng) + channel.sd * randn(&mut rng)
        })
        .collect()
}

/// Builds one attack family's curve from sampled populations. `scores`
/// are oriented so higher = more genuine; `operating_threshold` is the
/// deployed accept line on that oriented axis.
fn build_curve(
    kind: SpoofKind,
    channel: &str,
    genuine: &[f64],
    attack: &[f64],
    operating_threshold: f64,
) -> AttackCurve {
    let roc = roc_curve(genuine, attack);
    let asr =
        attack.iter().filter(|&&s| s >= operating_threshold).count() as f64 / attack.len() as f64;
    let frr =
        genuine.iter().filter(|&&s| s < operating_threshold).count() as f64 / genuine.len() as f64;
    // Down-sample the sweep for the artefact; keep both endpoints.
    let step = (roc.points.len() / 64).max(1);
    let mut points: Vec<RocPoint> = roc.points.iter().copied().step_by(step).collect();
    if let (Some(&last_kept), Some(&last)) = (points.last(), roc.points.last()) {
        if last_kept != last {
            points.push(last);
        }
    }
    AttackCurve {
        kind,
        channel: channel.to_string(),
        population: genuine.len(),
        eer: roc.eer,
        auc: roc.auc,
        operating_threshold,
        asr_at_operating_point: asr,
        frr_at_operating_point: frr,
        points,
    }
}

/// Runs the attack evaluation: enrolment, acoustic tier, calibration,
/// population tier, audit pass.
///
/// # Errors
///
/// Propagates enrolment-time and probe-time pipeline failures — the
/// acoustic tier runs under clean conditions, so a capture that cannot
/// be imaged is a harness bug, not an attack outcome.
///
/// # Panics
///
/// Panics when an audit record violates the flight-recorder contract
/// (a rejection without its typed reason/metadata) — that is a bug in
/// the recorder, not an experimental outcome.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let population = Population::generate(config.users, config.users, config.seed);
    let registered: Vec<_> = population.registered().collect();

    let pipeline_cfg = PipelineConfig {
        spatial: config.spatial.clone(),
        ..PipelineConfig::default()
    };
    let harness = Harness::with_config(pipeline_cfg, config.seed);
    let spec = CaptureSpec {
        room: config.room.clone(),
        ..CaptureSpec::default_lab(0)
    };
    let auth = enroll(&harness, &registered, &spec, &config.protocol)?;

    // The classifier-only comparison pipeline: identical except the
    // screen is off.
    let mut unscreened_cfg = harness.pipeline().config().clone();
    unscreened_cfg.spatial.enabled = false;
    let unscreened = EchoImagePipeline::new(unscreened_cfg);

    let scene = harness.scene(&spec);
    let placement = Placement::standing_front(spec.distance);
    let beeps = config.protocol.test_beeps.max(1);

    // Acoustic-tier accumulators, grouped per victim for the
    // between-subject fit.
    let mut genuine_scores: Vec<Vec<f64>> = Vec::new();
    let mut replay_scores: Vec<Vec<f64>> = Vec::new();
    let mut twin_scores: Vec<Vec<f64>> = Vec::new();
    let mut genuine_spreads: Vec<Vec<f64>> = Vec::new();
    let mut replay_spreads: Vec<Vec<f64>> = Vec::new();
    let mut acoustic = AcousticTier {
        victims: registered.len(),
        genuine_trains: 0,
        genuine_rejects: 0,
        replay_attempts: 0,
        replay_accepts_unscreened: 0,
        replay_accepts_screened: 0,
        twin_attempts: 0,
        twin_accepts: 0,
        genuine_spread_mean: 0.0,
        replay_spread_mean: 0.0,
    };

    // Drop whatever enrolment recorded; the drain below must hold
    // exactly the acoustic tier's attempts, in call order.
    let _ = echo_obs::take_audits();
    let mut attempts: Vec<Attempt> = Vec::new();
    let accepted = |d: &Result<AuthDecision, EchoImageError>| matches!(d, Ok(a) if a.is_accepted());

    for (vi, profile) in registered.iter().enumerate() {
        let body = profile.body();
        let id = profile.id as u64;
        let salt = (vi as u64 + 1) * 10_000;
        let mut vg_scores = Vec::new();
        let mut vr_scores = Vec::new();
        let mut vt_scores = Vec::new();
        let mut vg_spreads = Vec::new();
        let mut vr_spreads = Vec::new();
        for p in 0..config.probes {
            let offset = TEST_BEEP_OFFSET + salt + p as u64 * 100;
            // Genuine probe.
            let caps = scene.capture_train(&body, &placement, 200 + p as u32, beeps, offset);
            let images = harness.pipeline().images(&TrainRequest::new(&caps))?.images;
            if let Some(s) = train_spread(&config.spatial, &images) {
                vg_spreads.push(s);
            }
            for f in harness.pipeline().features_batch(&images) {
                vg_scores.push(auth.gate_decision(&f));
            }
            acoustic.genuine_trains += 1;
            let d = auth.authenticate_train_claimed(harness.pipeline(), &caps, id);
            attempts.push(Attempt::Genuine);
            if !accepted(&d) {
                acoustic.genuine_rejects += 1;
            }

            // Replay: steal a fresh session, re-emit it from a
            // loudspeaker at the victim's usual spot.
            let recording =
                scene.capture_train(&body, &placement, 300 + p as u32, beeps, offset + 13);
            let plan = SpoofPlan::replay_of(
                &recording,
                spec.distance,
                config.seed ^ (id << 8) ^ p as u64,
            );
            let attack = plan.capture_train(&scene, &placement, 400 + p as u32, beeps, offset + 29);
            let images = harness
                .pipeline()
                .images(&TrainRequest::new(&attack))?
                .images;
            if let Some(s) = train_spread(&config.spatial, &images) {
                vr_spreads.push(s);
            }
            for f in harness.pipeline().features_batch(&images) {
                vr_scores.push(auth.gate_decision(&f));
            }
            acoustic.replay_attempts += 1;
            let d = auth.authenticate_train_claimed(harness.pipeline(), &attack, id);
            attempts.push(Attempt::ReplayScreened);
            if accepted(&d) {
                acoustic.replay_accepts_screened += 1;
            }
            let d = auth.authenticate_train_claimed(&unscreened, &attack, id);
            attempts.push(Attempt::ReplayUnscreened);
            if accepted(&d) {
                acoustic.replay_accepts_unscreened += 1;
            }

            // Twin: an accomplice matched to the victim's stature.
            let mut plan = SpoofPlan::twin_of(
                profile.body_seed,
                config.twin_radius,
                config.seed ^ (id << 16) ^ (p as u64) << 4,
            );
            if let SpoofAttack::Twin { twin } = &mut plan.attack {
                twin.target_gender = Some(profile.gender);
            }
            let attack = plan.capture_train(&scene, &placement, 500 + p as u32, beeps, offset + 43);
            let images = harness
                .pipeline()
                .images(&TrainRequest::new(&attack))?
                .images;
            for f in harness.pipeline().features_batch(&images) {
                vt_scores.push(auth.gate_decision(&f));
            }
            acoustic.twin_attempts += 1;
            let d = auth.authenticate_train_claimed(harness.pipeline(), &attack, id);
            attempts.push(Attempt::Twin);
            if accepted(&d) {
                acoustic.twin_accepts += 1;
            }
        }
        genuine_scores.push(vg_scores);
        replay_scores.push(vr_scores);
        twin_scores.push(vt_scores);
        genuine_spreads.push(vg_spreads);
        replay_spreads.push(vr_spreads);
    }

    let audit = audit_pass(&attempts, config.spatial.max_coherence);

    // Calibration.
    let g_gate = fit_channel(&genuine_scores);
    let r_gate = fit_channel(&replay_scores);
    let t_gate = fit_channel(&twin_scores);
    let g_spread = fit_channel(&genuine_spreads);
    let r_spread = fit_channel(&replay_spreads);
    acoustic.genuine_spread_mean = g_spread.mean;
    acoustic.replay_spread_mean = r_spread.mean;

    // Population tier: one sampled cohort per channel side.
    let n = config.population;
    let pop_genuine_gate = sample_population(&g_gate, n, config.seed ^ 0xF16A_0001);
    let pop_replay_gate = sample_population(&r_gate, n, config.seed ^ 0xF16A_0005);
    let pop_twin_gate = sample_population(&t_gate, n, config.seed ^ 0xF16A_0002);
    let neg = |xs: Vec<f64>| xs.into_iter().map(|x| -x).collect::<Vec<f64>>();
    // Spread is negated so higher = more genuine on both channels.
    let pop_genuine_spread = neg(sample_population(&g_spread, n, config.seed ^ 0xF16A_0003));
    let pop_replay_spread = neg(sample_population(&r_spread, n, config.seed ^ 0xF16A_0004));

    // The screened deployment accepts a replay only when it beats both
    // channels; subject i's draws are paired across channels.
    let ceiling = config.spatial.max_coherence;
    let replay_combined_asr = pop_replay_gate
        .iter()
        .zip(&pop_replay_spread)
        .filter(|&(&margin, &neg_spread)| margin >= 0.0 && neg_spread >= -ceiling)
        .count() as f64
        / n as f64;

    let curves = vec![
        build_curve(
            SpoofKind::Replay,
            "gate_margin",
            &pop_genuine_gate,
            &pop_replay_gate,
            0.0,
        ),
        build_curve(
            SpoofKind::Replay,
            "image_spread",
            &pop_genuine_spread,
            &pop_replay_spread,
            -ceiling,
        ),
        build_curve(
            SpoofKind::Twin,
            "gate_margin",
            &pop_genuine_gate,
            &pop_twin_gate,
            0.0,
        ),
    ];

    Ok(Output {
        acoustic,
        calibration: vec![
            ("genuine_gate_margin".into(), g_gate),
            ("replay_gate_margin".into(), r_gate),
            ("twin_gate_margin".into(), t_gate),
            ("genuine_image_spread".into(), g_spread),
            ("replay_image_spread".into(), r_spread),
        ],
        curves,
        replay_combined_asr,
        audit,
        spread_ceiling: ceiling,
    })
}

/// Drains the audit ring and checks the attack flight-recorder
/// contract against the recorded attempt order.
fn audit_pass(attempts: &[Attempt], ceiling: f64) -> AuditSummary {
    use echo_obs::{AuthVerdict, RejectKind};

    let audits = echo_obs::take_audits();
    assert_eq!(
        audits.len(),
        attempts.len(),
        "one audit record per acoustic-tier attempt"
    );
    let mut summary = AuditSummary {
        attempts: audits.len(),
        replay_rejects: 0,
        replay_rejects_with_signature: 0,
        twin_rejects: 0,
        twin_rejects_typed: 0,
    };
    for (audit, &attempt) in audits.iter().zip(attempts) {
        let rejected = audit.verdict == AuthVerdict::Rejected;
        match attempt {
            Attempt::ReplayScreened if rejected => {
                summary.replay_rejects += 1;
                assert!(
                    !audit.reject_reason.is_empty(),
                    "replay rejection (trace {}) has an empty reject reason",
                    audit.trace
                );
                if audit.reject_kind == RejectKind::ReplaySignature {
                    let spread = audit
                        .spatial_coherence
                        .expect("replay-signature rejection must carry the measured spread");
                    assert!(
                        spread > ceiling,
                        "replay-signature rejection (trace {}) carries spread {spread} \
                         not above the ceiling {ceiling}",
                        audit.trace
                    );
                    summary.replay_rejects_with_signature += 1;
                }
            }
            Attempt::Twin if rejected => {
                summary.twin_rejects += 1;
                assert!(
                    !audit.reject_reason.is_empty(),
                    "twin rejection (trace {}) has an empty reject reason",
                    audit.trace
                );
                if matches!(
                    audit.reject_kind,
                    RejectKind::SpooferGate | RejectKind::NoMajority
                ) {
                    summary.twin_rejects_typed += 1;
                }
            }
            _ => {}
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny end-to-end run; the full-scale version is
    /// the `fig_attack` binary.
    #[test]
    fn miniature_attack_run_separates_replay() {
        let mut cfg = Config {
            users: 2,
            probes: 1,
            population: 2_000,
            // Free field with the free-field ceiling: the condition the
            // CI spoof gate runs, where the collapse signature is
            // cleanly separated. The reverberant variant is exercised
            // by the full `fig_attack` binary.
            room: None,
            spatial: SpatialCheckConfig {
                enabled: true,
                ..SpatialCheckConfig::default()
            },
            ..Config::default()
        };
        cfg.protocol.train_beeps = 8;
        cfg.protocol.test_beeps = 3;
        let out = run(&cfg).expect("attack evaluation");
        assert_eq!(out.acoustic.replay_attempts, 2);
        assert_eq!(out.acoustic.twin_attempts, 2);
        // The replay signature must be visible: replayed images flatten.
        assert!(
            out.acoustic.replay_spread_mean > out.acoustic.genuine_spread_mean,
            "replay spread {} should exceed genuine {}",
            out.acoustic.replay_spread_mean,
            out.acoustic.genuine_spread_mean
        );
        // Screened replays are rejected with the typed signature.
        assert_eq!(out.acoustic.replay_accepts_screened, 0);
        assert_eq!(out.audit.replay_rejects, 2);
        assert_eq!(out.audit.replay_rejects_with_signature, 2);
        // Population curves cover both channels for replay plus the
        // twin classifier channel, at the configured size.
        assert_eq!(out.curves.len(), 3);
        for curve in &out.curves {
            assert_eq!(curve.population, 2_000);
            assert!(curve.eer >= 0.0 && curve.eer <= 1.0);
            assert!(!curve.points.is_empty());
        }
        assert_eq!(out.curves[0].kind, SpoofKind::Replay);
        assert_eq!(out.curves[1].channel, "image_spread");
        assert_eq!(out.curves[2].kind, SpoofKind::Twin);
        // The screened deployment stops population-scale replay.
        assert!(
            out.replay_combined_asr < 0.05,
            "population replay ASR {} against the screened deployment",
            out.replay_combined_asr
        );
    }
}
