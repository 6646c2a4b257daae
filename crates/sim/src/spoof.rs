//! Seeded adversarial attack simulation.
//!
//! The paper's security claim is that a live body's 3-D acoustic image
//! cannot be forged by a loudspeaker. This module renders the two
//! attack families that claim must survive, as a deterministic,
//! scene-level counterpart to the channel-level [`FaultPlan`]:
//!
//! * **Replay** ([`ReplaySpoof`]) — an attacker who previously recorded
//!   the victim's echo train plays it back from a single loudspeaker at
//!   a configurable position and gain, optionally through a band-limited
//!   playback chain. Every microphone then receives the *same* waveform
//!   up to a per-element delay and gain — the collapsed spatial
//!   structure multi-channel replay detection exploits (Neri &
//!   Virtanen), and what the core pipeline's spatial-coherence check
//!   measures.
//! * **Twin impostor** ([`TwinSpoof`]) — an accomplice whose gross body
//!   geometry is sampled within a configurable radius of the target
//!   user's enrollment parameters, but whose surface micro-texture is
//!   their own. Radius 0 is a geometric doppelgänger; large radii decay
//!   to an ordinary impostor.
//!
//! A [`SpoofPlan`] names one attack plus a seed, renders whole probe
//! trains through a [`Scene`] (sharing the scene's room model with
//! clean captures), and is bit-deterministic in `(plan, scene,
//! indices)` like everything else in this crate.
//!
//! [`FaultPlan`]: crate::fault::FaultPlan

use crate::body::{BodyModel, BodyParameters, Gender, Placement};
use crate::recording::BeepCapture;
use crate::scene::Scene;
use echo_array::Vec3;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The attack families, without parameters — used to enumerate sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpoofKind {
    /// Loudspeaker re-emission of a recorded echo train.
    Replay,
    /// A body sampled near the target user's enrollment geometry.
    Twin,
}

impl SpoofKind {
    /// Every attack family, in sweep order.
    pub const ALL: [SpoofKind; 2] = [SpoofKind::Replay, SpoofKind::Twin];

    /// A short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SpoofKind::Replay => "replay",
            SpoofKind::Twin => "twin",
        }
    }
}

/// Artefacts name an attack family by its variant name.
impl echo_obs::json::ToJson for SpoofKind {
    fn to_json(&self) -> echo_obs::json::Json {
        let name = match self {
            SpoofKind::Replay => "Replay",
            SpoofKind::Twin => "Twin",
        };
        echo_obs::json::Json::Str(name.into())
    }
}

/// A loudspeaker replay attack: the parameters of the playback rig.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpoof {
    /// The recorded waveforms the attacker plays, one per beep of the
    /// probe train (cycled when the train is longer than the
    /// recording). Each is one full capture window as recorded by the
    /// reference microphone.
    pub recordings: Vec<Vec<f64>>,
    /// Loudspeaker position in array coordinates.
    pub source: Vec3,
    /// Playback gain (1.0 re-emits at recorded level per metre).
    pub gain: f64,
    /// Playback-chain coloration: −3 dB cutoff of a one-pole low-pass
    /// in Hz. `None` plays back flat (an ideal rig). Consumer
    /// loudspeakers roll off the 2–3 kHz probe band's upper edge.
    pub coloration_cutoff: Option<f64>,
    /// Standard deviation of the attacker's per-beep trigger timing
    /// error, seconds. The attacker must fire playback when the device
    /// probes; even a good rig jitters by a fraction of a millisecond.
    pub trigger_jitter: f64,
    /// Seed for the trigger jitter stream.
    pub seed: u64,
}

impl ReplaySpoof {
    /// Builds a replay rig from a previously captured probe train,
    /// recording through microphone `ref_mic`. The loudspeaker sits at
    /// `source` (array coordinates) and plays at `gain`.
    ///
    /// # Panics
    ///
    /// Panics if `recorded` is empty or `ref_mic` is out of range.
    pub fn from_recording(
        recorded: &[BeepCapture],
        ref_mic: usize,
        source: Vec3,
        gain: f64,
    ) -> Self {
        assert!(
            !recorded.is_empty(),
            "replay needs at least one recorded beep"
        );
        ReplaySpoof {
            recordings: recorded
                .iter()
                .map(|cap| cap.channel(ref_mic).to_vec())
                .collect(),
            source,
            gain,
            coloration_cutoff: None,
            trigger_jitter: 0.0,
            seed: 0,
        }
    }

    /// Adds playback-chain coloration (one-pole low-pass at `hz`).
    pub fn with_coloration(mut self, hz: f64) -> Self {
        self.coloration_cutoff = Some(hz);
        self
    }

    /// Adds seeded per-beep trigger jitter with standard deviation
    /// `seconds`.
    pub fn with_trigger_jitter(mut self, seconds: f64, seed: u64) -> Self {
        self.trigger_jitter = seconds;
        self.seed = seed;
        self
    }

    /// The waveform played for probe beep `beep`: the recorded capture
    /// for that position in the train (cycled), through the coloration
    /// filter.
    pub fn playback_waveform(&self, fs: f64, beep: u64) -> Vec<f64> {
        let wave = &self.recordings[(beep as usize) % self.recordings.len()];
        match self.coloration_cutoff {
            None => wave.clone(),
            Some(hz) => {
                // One-pole low-pass: y[n] = (1−a)·x[n] + a·y[n−1],
                // a = exp(−2π·fc/fs).
                let a = (-std::f64::consts::TAU * hz / fs).exp();
                let mut y = 0.0;
                wave.iter()
                    .map(|&x| {
                        y = (1.0 - a) * x + a * y;
                        y
                    })
                    .collect()
            }
        }
    }

    /// The playback start offset for beep `beep`, in samples: zero-mean
    /// seeded trigger error.
    pub fn trigger_samples(&self, fs: f64, beep: u64) -> f64 {
        if self.trigger_jitter == 0.0 {
            return 0.0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed ^ 0x7121_66E2_0000_0000 ^ beep.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        self.trigger_jitter * crate::body::randn(&mut rng) * fs
    }
}

/// A twin-like impostor: gross body geometry sampled within `radius`
/// of a target user's enrollment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwinSpoof {
    /// The target user's body seed (their enrollment identity).
    pub target_seed: u64,
    /// The target's gender when the attacker knows it; `None` derives
    /// it from the seed the same way [`BodyModel::from_seed`] does.
    pub target_gender: Option<Gender>,
    /// Similarity radius in `[0, 1]`: each body parameter is perturbed
    /// by `radius` times its population standard deviation. 0 keeps the
    /// target's exact geometry (micro-texture still differs); 1 is an
    /// ordinary same-gender impostor.
    pub radius: f64,
    /// Seed for the perturbation draw and the twin's own micro-texture.
    pub seed: u64,
}

impl TwinSpoof {
    /// A twin of the user enrolled from `target_seed`, at `radius`.
    pub fn of(target_seed: u64, radius: f64, seed: u64) -> Self {
        TwinSpoof {
            target_seed,
            target_gender: None,
            radius,
            seed,
        }
    }

    /// The target's own body model (what the system enrolled).
    pub fn target_body(&self) -> BodyModel {
        match self.target_gender {
            Some(g) => BodyModel::from_seed_gendered(self.target_seed, g),
            None => BodyModel::from_seed(self.target_seed),
        }
    }

    /// The twin's body: the target's parameters perturbed by `radius`
    /// population standard deviations per parameter (clamped to
    /// plausible-adult ranges), with the twin's *own* surface
    /// micro-texture — an accomplice can match stature, not skin.
    pub fn body(&self) -> BodyModel {
        let target = self.target_body().params();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x7311_0000_5EED_0002);
        let r = self.radius.max(0.0);
        // Per-parameter population scales, matching
        // `BodyParameters::sample`.
        let params = BodyParameters {
            height: (target.height + r * 0.06 * crate::body::randn(&mut rng)).clamp(1.45, 2.00),
            shoulder_width: (target.shoulder_width + r * 0.03 * crate::body::randn(&mut rng))
                .clamp(0.32, 0.56),
            torso_depth: (target.torso_depth + r * 0.02 * crate::body::randn(&mut rng))
                .clamp(0.05, 0.16),
            head_radius: (target.head_radius + r * 0.007 * crate::body::randn(&mut rng))
                .clamp(0.075, 0.115),
            total_reflectivity: (target.total_reflectivity
                + r * 0.15 * crate::body::randn(&mut rng))
            .clamp(0.5, 1.6),
        };
        // The texture seed must differ from the target's for every
        // (target_seed, seed) pair, including seed == target_seed.
        let texture_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.target_seed.rotate_left(17))
            ^ 0x7311_7EE7;
        BodyModel::from_parameters(params, texture_seed)
    }
}

/// One attack scenario: the family plus its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum SpoofAttack {
    /// Loudspeaker replay.
    Replay {
        /// The playback rig.
        rig: ReplaySpoof,
    },
    /// Twin impostor standing where the victim would.
    Twin {
        /// The accomplice.
        twin: TwinSpoof,
    },
}

/// A deterministic attack on one authentication attempt, mirroring
/// [`FaultPlan`](crate::fault::FaultPlan): the attack plus a base seed,
/// rendering whole probe trains through a [`Scene`].
///
/// # Example
///
/// ```
/// use echo_sim::body::{BodyModel, Placement};
/// use echo_sim::scene::{Scene, SceneConfig};
/// use echo_sim::spoof::SpoofPlan;
///
/// let scene = Scene::new(SceneConfig::laboratory_quiet(3));
/// let victim = BodyModel::from_seed(11);
/// let placement = Placement::standing_front(0.7);
/// // The attacker records the victim, then replays from 0.7 m.
/// let recorded = scene.capture_train(&victim, &placement, 0, 2, 0);
/// let plan = SpoofPlan::replay_of(&recorded, 0.7, 42);
/// let attack = plan.capture_train(&scene, &placement, 5, 2, 0);
/// assert_eq!(attack.len(), 2);
/// assert_eq!(attack[0].num_channels(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpoofPlan {
    /// The attack to mount.
    pub attack: SpoofAttack,
    /// Base seed (session-level randomness of the attack rig).
    pub seed: u64,
}

impl SpoofPlan {
    /// A replay attack re-emitting `recorded` (reference microphone 0)
    /// from a loudspeaker placed where the victim stood, `distance`
    /// metres straight ahead at chest height, with gain calibrated so
    /// the replayed echo arrives near recorded level. Includes a
    /// realistic rig: 3.4 kHz playback roll-off and 0.2 ms trigger
    /// jitter.
    pub fn replay_of(recorded: &[BeepCapture], distance: f64, seed: u64) -> Self {
        let source = Vec3::new(0.0, distance, 0.0);
        let replay = ReplaySpoof::from_recording(recorded, 0, source, distance)
            .with_coloration(3_400.0)
            .with_trigger_jitter(0.000_2, seed);
        SpoofPlan {
            attack: SpoofAttack::Replay { rig: replay },
            seed,
        }
    }

    /// A twin-impostor attack against the user enrolled from
    /// `target_seed`, at similarity `radius`.
    pub fn twin_of(target_seed: u64, radius: f64, seed: u64) -> Self {
        SpoofPlan {
            attack: SpoofAttack::Twin {
                twin: TwinSpoof::of(target_seed, radius, seed),
            },
            seed,
        }
    }

    /// The attack family.
    pub fn kind(&self) -> SpoofKind {
        match &self.attack {
            SpoofAttack::Replay { .. } => SpoofKind::Replay,
            SpoofAttack::Twin { .. } => SpoofKind::Twin,
        }
    }

    /// Renders the attacker's probe train: `count` beeps starting at
    /// `first_beep` in `session`, through `scene`. For a replay the
    /// loudspeaker plays into an otherwise victim-free scene; for a
    /// twin the impostor stands at `placement`.
    pub fn capture_train(
        &self,
        scene: &Scene,
        placement: &Placement,
        session: u32,
        count: usize,
        first_beep: u64,
    ) -> Vec<BeepCapture> {
        self.capture_train_traced(
            echo_obs::TraceCtx::none(),
            scene,
            placement,
            session,
            count,
            first_beep,
        )
    }

    /// [`SpoofPlan::capture_train`] recording a `sim.spoof` trace span
    /// (tagged with the attack kind) plus one `sim.beep` child per
    /// rendered beep under `ctx`.
    pub fn capture_train_traced(
        &self,
        ctx: echo_obs::TraceCtx,
        scene: &Scene,
        placement: &Placement,
        session: u32,
        count: usize,
        first_beep: u64,
    ) -> Vec<BeepCapture> {
        echo_obs::counter!("sim.spoof_trains").inc();
        let mut tspan = ctx.child("sim.spoof");
        tspan.attr_str("kind", self.kind().label());
        tspan.attr_u64("beeps", count as u64);
        match &self.attack {
            SpoofAttack::Replay { rig: replay } => (0..count)
                .map(|l| {
                    let _bspan = tspan.ctx().child_at("sim.beep", l as u64);
                    scene.capture_replay(replay, session, first_beep + l as u64)
                })
                .collect(),
            SpoofAttack::Twin { twin } => {
                let body = twin.body();
                scene.capture_train_traced(
                    tspan.ctx(),
                    &body,
                    placement,
                    session,
                    count,
                    first_beep,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneConfig;

    fn scene() -> Scene {
        Scene::new(SceneConfig::laboratory_quiet(5))
    }

    fn record_victim(scene: &Scene, seed: u64, beeps: usize) -> Vec<BeepCapture> {
        let victim = BodyModel::from_seed(seed);
        scene.capture_train(&victim, &Placement::standing_front(0.7), 0, beeps, 0)
    }

    #[test]
    fn replay_is_deterministic_and_kind_labelled() {
        let s = scene();
        let recorded = record_victim(&s, 11, 2);
        let plan = SpoofPlan::replay_of(&recorded, 0.7, 9);
        assert_eq!(plan.kind(), SpoofKind::Replay);
        assert_eq!(plan.kind().label(), "replay");
        let p = Placement::standing_front(0.7);
        let a = plan.capture_train(&s, &p, 5, 2, 0);
        let b = plan.capture_train(&s, &p, 5, 2, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn replay_differs_from_genuine_and_from_empty() {
        let s = scene();
        let recorded = record_victim(&s, 12, 1);
        let plan = SpoofPlan::replay_of(&recorded, 0.7, 1);
        let p = Placement::standing_front(0.7);
        let attack = &plan.capture_train(&s, &p, 5, 1, 0)[0];
        let genuine = s.capture_beep(&BodyModel::from_seed(12), &p, 5, 0);
        let empty = s.capture_empty(5, 0);
        assert_ne!(attack, &genuine, "replay is not the live body");
        assert_ne!(attack, &empty, "the loudspeaker leaves a trace");
        // The replayed energy is comparable to a genuine echo: within
        // an order of magnitude in the post-direct-path echo region.
        let echo_energy = |c: &BeepCapture| {
            let start = c.preroll() + 150;
            c.channel(0)[start..start + 800]
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
        };
        let (ea, eg) = (echo_energy(attack), echo_energy(&genuine));
        assert!(
            ea > eg / 10.0 && ea < eg * 10.0,
            "attack {ea} vs genuine {eg}"
        );
    }

    #[test]
    fn replay_collapses_the_spatial_structure() {
        // The discriminating signature: across microphones, the echo
        // window of a replay is (delay/gain aside) the same waveform,
        // while a genuine body's is a per-mic sum over a scatterer
        // cloud. Peak normalized cross-correlation between channels is
        // therefore higher under replay.
        let s = scene();
        let recorded = record_victim(&s, 13, 1);
        let plan = SpoofPlan::replay_of(&recorded, 0.7, 2);
        let p = Placement::standing_front(0.7);
        let attack = &plan.capture_train(&s, &p, 5, 1, 0)[0];
        let genuine = s.capture_beep(&BodyModel::from_seed(13), &p, 5, 0);

        let xcorr_peak = |cap: &BeepCapture| {
            // Echo window past the direct path; compare mic 0 vs mic 3
            // (opposite side of the circle).
            let start = cap.preroll() + 160;
            let len = 400;
            let a = &cap.channel(0)[start..start + len];
            let b = &cap.channel(3)[start..start + len];
            let norm = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
            let (na, nb) = (norm(a), norm(b));
            let mut best = 0.0f64;
            for lag in -8i64..=8 {
                let mut dot = 0.0;
                for (i, &ai) in a.iter().enumerate() {
                    let j = i as i64 + lag;
                    if j >= 0 && (j as usize) < len {
                        dot += ai * b[j as usize];
                    }
                }
                best = best.max(dot / (na * nb));
            }
            best
        };
        let replay_coh = xcorr_peak(attack);
        let genuine_coh = xcorr_peak(&genuine);
        assert!(
            replay_coh > genuine_coh,
            "replay {replay_coh} must exceed genuine {genuine_coh}"
        );
    }

    #[test]
    fn coloration_attenuates_the_band_edge() {
        let s = scene();
        let recorded = record_victim(&s, 14, 1);
        let flat = ReplaySpoof::from_recording(&recorded, 0, Vec3::new(0.0, 0.7, 0.0), 0.7);
        let soft = flat.clone().with_coloration(1_000.0);
        let fs = s.config().sample_rate();
        let energy = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>();
        let e_flat = energy(&flat.playback_waveform(fs, 0));
        let e_soft = energy(&soft.playback_waveform(fs, 0));
        assert!(
            e_soft < e_flat * 0.5,
            "1 kHz low-pass must gut a 2–3 kHz probe: {e_soft} vs {e_flat}"
        );
    }

    #[test]
    fn trigger_jitter_is_seeded_and_per_beep() {
        let s = scene();
        let recorded = record_victim(&s, 15, 1);
        let rig = ReplaySpoof::from_recording(&recorded, 0, Vec3::new(0.0, 0.7, 0.0), 0.7)
            .with_trigger_jitter(0.001, 7);
        let fs = 48_000.0;
        assert_eq!(rig.trigger_samples(fs, 0), rig.trigger_samples(fs, 0));
        assert_ne!(rig.trigger_samples(fs, 0), rig.trigger_samples(fs, 1));
        let no_jitter = ReplaySpoof::from_recording(&recorded, 0, Vec3::new(0.0, 0.7, 0.0), 0.7);
        assert_eq!(no_jitter.trigger_samples(fs, 0), 0.0);
    }

    #[test]
    fn twin_tracks_the_target_geometry_with_radius() {
        let target = BodyModel::from_seed(21).params();
        let near = TwinSpoof::of(21, 0.05, 3).body().params();
        let far = TwinSpoof::of(21, 1.0, 3).body().params();
        let dist = |a: &BodyParameters, b: &BodyParameters| {
            ((a.height - b.height) / 0.06).abs()
                + ((a.shoulder_width - b.shoulder_width) / 0.03).abs()
                + ((a.torso_depth - b.torso_depth) / 0.02).abs()
                + ((a.head_radius - b.head_radius) / 0.007).abs()
        };
        assert!(
            dist(&near, &target) < dist(&far, &target),
            "radius must scale the geometric gap: near {} vs far {}",
            dist(&near, &target),
            dist(&far, &target)
        );
        assert!(
            dist(&near, &target) < 0.5,
            "a tight twin is nearly the target"
        );
    }

    #[test]
    fn twin_texture_differs_even_at_radius_zero() {
        let twin = TwinSpoof::of(22, 0.0, 22).body();
        let target = BodyModel::from_seed(22);
        // Same gross geometry…
        let (t, g) = (twin.params(), target.params());
        assert!((t.height - g.height).abs() < 1e-12);
        // …but a different person: the scatterer clouds differ.
        let p = Placement::standing_front(0.7);
        assert_ne!(twin.scatterers(&p, 0, 0), target.scatterers(&p, 0, 0));
    }

    #[test]
    fn twin_plan_renders_through_the_scene() {
        let s = scene();
        let plan = SpoofPlan::twin_of(23, 0.1, 4);
        assert_eq!(plan.kind(), SpoofKind::Twin);
        assert_eq!(plan.kind().label(), "twin");
        let p = Placement::standing_front(0.7);
        let caps = plan.capture_train(&s, &p, 0, 2, 0);
        assert_eq!(caps.len(), 2);
        assert_ne!(caps[0], caps[1], "beeps must sway independently");
        // The twin is not the target: captures differ from the
        // target's own.
        let target_caps = record_victim(&s, 23, 2);
        assert_ne!(caps[0], target_caps[0]);
    }

    #[test]
    fn room_model_is_shared_by_clean_and_attack_captures() {
        let mut cfg = SceneConfig::laboratory_quiet(5);
        cfg.room = Some(crate::room::RoomModel::small_room());
        let roomy = Scene::new(cfg);
        let free = scene();
        let p = Placement::standing_front(0.7);
        let victim = BodyModel::from_seed(31);

        // The room enriches the clean capture…
        let clean_roomy = roomy.capture_beep(&victim, &p, 0, 0);
        let clean_free = free.capture_beep(&victim, &p, 0, 0);
        assert_ne!(clean_roomy, clean_free, "wall images must add echoes");

        // …and the attack capture, through the same image set.
        let recorded = roomy.capture_train(&victim, &p, 0, 1, 0);
        let plan = SpoofPlan::replay_of(&recorded, 0.7, 6);
        let attack_roomy = &plan.capture_train(&roomy, &p, 5, 1, 0)[0];
        let attack_free = &plan.capture_train(&free, &p, 5, 1, 0)[0];
        assert_ne!(attack_roomy, attack_free);
    }

    #[test]
    #[should_panic(expected = "at least one recorded beep")]
    fn empty_recording_panics() {
        let _ = ReplaySpoof::from_recording(&[], 0, Vec3::new(0.0, 0.7, 0.0), 1.0);
    }
}
