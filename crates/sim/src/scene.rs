//! Multichannel scene rendering.
//!
//! A [`Scene`] combines the microphone array, the co-located speaker, an
//! environment's static reflectors and an ambient-noise condition, and
//! renders what each microphone records during one probing beep: the
//! direct speaker→mic sound plus one echo per scatterer, each at its
//! exact (fractional-sample) propagation delay with inverse-distance
//! attenuation per leg, plus ambient and microphone self-noise.

use crate::body::{BodyModel, Placement, Scatterer};
use crate::noise::{amplitude_for_spl, NoiseGenerator, NoiseKind};
use crate::recording::BeepCapture;
use crate::room::{Environment, EnvironmentKind, RoomModel};
use crate::spoof::ReplaySpoof;
use echo_array::{MicArray, Vec3};
use echo_dsp::chirp::LfmChirp;
use echo_dsp::interp::add_delayed;
use echo_dsp::SPEED_OF_SOUND;
use echo_obs::TraceCtx;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Full description of a capture setup.
#[derive(Debug, Clone)]
pub struct SceneConfig {
    /// The microphone array (paper prototype: ReSpeaker-like 6-mic circle).
    pub array: MicArray,
    /// Speaker position in array coordinates (placed beside the array).
    pub speaker: Vec3,
    /// Static environment reflectors.
    pub environment: Environment,
    /// Ambient-noise condition.
    pub noise: NoiseGenerator,
    /// The probing beep.
    pub chirp: LfmChirp,
    /// Seconds of post-beep capture (must cover the echo period).
    pub capture_window: f64,
    /// Seconds of noise-only preroll (ranging reads its noise floor there).
    pub preroll: f64,
    /// Microphone self-noise floor, dB SPL equivalent.
    pub mic_noise_spl: f64,
    /// Speaker→microphone direct-coupling factor. Commercial smart
    /// speakers point the driver away from the microphones and isolate
    /// the enclosure, so the direct chirp reaches the array attenuated
    /// (≈ −26 dB here) rather than at free-field strength; without this
    /// the direct pulse's correlation skirt would bury near-body echoes,
    /// which contradicts the paper's Fig. 5.
    pub direct_coupling: f64,
    /// Standard deviation of the per-microphone gain mismatch, dB.
    /// Real arrays are never perfectly matched; the mismatch is fixed
    /// per device (derived from the scene seed). 0 disables.
    pub mic_gain_error_db: f64,
    /// Standard deviation of the per-microphone timing mismatch,
    /// seconds (ADC skew / element placement error). 0 disables.
    pub mic_timing_error: f64,
    /// Floor plane height in array coordinates for second-order
    /// (scatterer → floor → microphone) ghost paths; `None` disables
    /// them. A tabletop device sees the floor at ≈ −0.9 m.
    pub floor_z: Option<f64>,
    /// Pressure reflection coefficient of the floor for ghost paths.
    pub floor_reflectivity: f64,
    /// Shoebox image-source room model: every path (direct, echo, and
    /// replayed attack emission alike) additionally reaches each
    /// microphone via specular wall reflections. `None` renders the
    /// legacy free-field scene. The same model applies to clean and
    /// attack captures of a scene, so multipath never separates them
    /// on its own.
    pub room: Option<RoomModel>,
    /// Speed of sound, m/s.
    pub speed_of_sound: f64,
    /// Scene-level seed: controls the noise streams.
    pub seed: u64,
}

impl SceneConfig {
    /// The paper's default setup in a given environment and noise
    /// condition: ReSpeaker-like array, speaker 8 cm to the side, 2–3 kHz
    /// 2 ms beep at 48 kHz, 60 ms capture window, 10 ms preroll.
    pub fn with_environment(env: EnvironmentKind, noise: NoiseKind, seed: u64) -> Self {
        let sample_rate = 48_000.0;
        SceneConfig {
            array: MicArray::respeaker_6(),
            speaker: Vec3::new(0.08, 0.0, 0.0),
            environment: Environment::generate(env, seed),
            noise: NoiseGenerator::nominal(noise, sample_rate),
            chirp: LfmChirp::new(2_000.0, 3_000.0, 0.002, sample_rate),
            capture_window: 0.060,
            preroll: 0.010,
            mic_noise_spl: 30.0,
            direct_coupling: 0.02,
            mic_gain_error_db: 0.0,
            mic_timing_error: 0.0,
            floor_z: None,
            floor_reflectivity: 0.3,
            room: None,
            speed_of_sound: SPEED_OF_SOUND,
            seed,
        }
    }

    /// A quiet laboratory — the paper's default evaluation condition.
    pub fn laboratory_quiet(seed: u64) -> Self {
        Self::with_environment(EnvironmentKind::Laboratory, NoiseKind::Quiet, seed)
    }

    /// Sample rate in Hz (taken from the chirp).
    pub fn sample_rate(&self) -> f64 {
        self.chirp.sample_rate()
    }
}

/// A renderable acoustic scene.
///
/// # Example
///
/// ```
/// use echo_sim::body::{BodyModel, Placement};
/// use echo_sim::scene::{Scene, SceneConfig};
///
/// let scene = Scene::new(SceneConfig::laboratory_quiet(3));
/// let user = BodyModel::from_seed(11);
/// let capture = scene.capture_beep(&user, &Placement::standing_front(0.7), 0, 0);
/// assert_eq!(capture.num_channels(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct Scene {
    config: SceneConfig,
}

impl Scene {
    /// Creates a scene from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the capture window is too short to contain the chirp or
    /// any duration is non-positive.
    pub fn new(config: SceneConfig) -> Self {
        assert!(
            config.capture_window > config.chirp.duration(),
            "capture window shorter than the chirp"
        );
        assert!(config.preroll >= 0.0, "preroll must be non-negative");
        assert!(
            config.speed_of_sound > 0.0,
            "speed of sound must be positive"
        );
        Scene { config }
    }

    /// The scene configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Samples in one full capture (preroll + window).
    pub fn capture_samples(&self) -> usize {
        let fs = self.config.sample_rate();
        ((self.config.preroll + self.config.capture_window) * fs).round() as usize
    }

    /// Preroll length in samples.
    pub fn preroll_samples(&self) -> usize {
        (self.config.preroll * self.config.sample_rate()).round() as usize
    }

    /// Captures one beep reflected off `body` standing at `placement`.
    ///
    /// `session` and `beep` index the observation: they drive the body's
    /// session drift / per-beep sway and decorrelate the noise streams.
    pub fn capture_beep(
        &self,
        body: &BodyModel,
        placement: &Placement,
        session: u32,
        beep: u64,
    ) -> BeepCapture {
        let scatterers = body.scatterers(placement, session, beep);
        self.capture_beep_from(&scatterers, session, beep)
    }

    /// Captures one beep with no user present (spoof-free baseline and
    /// failure-injection tests).
    pub fn capture_empty(&self, session: u32, beep: u64) -> BeepCapture {
        self.capture_beep_from(&[], session, beep)
    }

    /// Captures one beep from an explicit scatterer set (the body plus
    /// anything else the caller wants in the scene).
    pub fn capture_beep_from(
        &self,
        body_scatterers: &[Scatterer],
        session: u32,
        beep: u64,
    ) -> BeepCapture {
        let _t = echo_obs::stage!(TraceCtx::none(), "stage.capture");
        echo_obs::counter!("sim.beeps_captured").inc();
        let cfg = &self.config;
        let fs = cfg.sample_rate();
        let n = self.capture_samples();
        let preroll = self.preroll_samples();
        let chirp = cfg.chirp.samples();
        let c = cfg.speed_of_sound;

        let m = cfg.array.len();
        let mut channels = vec![vec![0.0f64; n]; m];

        // Per-device microphone imperfections: a fixed gain and timing
        // mismatch per element, derived from the scene seed (the same
        // device keeps the same mismatch across all captures).
        let mut imp_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x313C_0000_0000);
        let imperfections: Vec<(f64, f64)> = (0..m)
            .map(|_| {
                let gain_db = cfg.mic_gain_error_db * crate::body::randn(&mut imp_rng);
                let timing = cfg.mic_timing_error * crate::body::randn(&mut imp_rng);
                (10f64.powf(gain_db / 20.0), timing * fs)
            })
            .collect();

        for (mi, ch) in channels.iter_mut().enumerate() {
            let mic = cfg.array.position(mi);
            let (mic_gain, mic_delay) = imperfections[mi];

            // The receiver and its room images: every path below is
            // rendered once per virtual microphone, so wall reflections
            // enrich clean and attack captures identically. Without a
            // room model this is exactly the legacy single-receiver
            // loop.
            for (vmic, vcoeff) in self.virtual_mics(mic) {
                // Direct path speaker → mic, attenuated by the
                // enclosure's speaker/microphone isolation.
                let d_direct = cfg.speaker.distance_to(vmic).max(0.02);
                add_delayed(
                    ch,
                    &chirp,
                    (preroll as f64 + d_direct / c * fs + mic_delay).max(0.0),
                    vcoeff * mic_gain * cfg.direct_coupling / d_direct,
                );

                // Echoes: speaker → scatterer → mic, plus (optionally)
                // the second-order scatterer → floor → mic ghost,
                // rendered via the image method (mirror the microphone
                // across the floor).
                let mic_ghost = cfg
                    .floor_z
                    .map(|fz| Vec3::new(vmic.x, vmic.y, 2.0 * fz - vmic.z));
                for s in body_scatterers.iter().chain(cfg.environment.reflectors()) {
                    let d1 = cfg.speaker.distance_to(s.position).max(0.05);
                    let d2 = s.position.distance_to(vmic).max(0.05);
                    add_delayed(
                        ch,
                        &chirp,
                        (preroll as f64 + (d1 + d2) / c * fs + mic_delay).max(0.0),
                        vcoeff * mic_gain * s.reflectivity / (d1 * d2),
                    );
                    if let Some(ghost) = mic_ghost {
                        let d2g = s.position.distance_to(ghost).max(0.05);
                        add_delayed(
                            ch,
                            &chirp,
                            (preroll as f64 + (d1 + d2g) / c * fs + mic_delay).max(0.0),
                            vcoeff * mic_gain * cfg.floor_reflectivity * s.reflectivity
                                / (d1 * d2g),
                        );
                    }
                }
            }
        }

        // Ambient noise (coherent across mics) and mic self-noise
        // (independent per mic).
        let noise_seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((session as u64) << 40) ^ beep.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let ambient = cfg.noise.render(&cfg.array, n, noise_seed);
        let mic_rms = amplitude_for_spl(cfg.mic_noise_spl);
        let mut self_rng = ChaCha8Rng::seed_from_u64(noise_seed ^ 0x5E1F_0000);
        for (ch, amb) in channels.iter_mut().zip(ambient.iter()) {
            for (x, a) in ch.iter_mut().zip(amb.iter()) {
                *x += a + mic_rms * crate::body::randn(&mut self_rng);
            }
        }

        BeepCapture::new(channels, fs, preroll)
    }

    /// The receiver at `mic` plus its image-source room ghosts; the
    /// identity receiver always comes first with unit coefficient.
    fn virtual_mics(&self, mic: Vec3) -> Vec<(Vec3, f64)> {
        let mut vmics = vec![(mic, 1.0)];
        if let Some(room) = &self.config.room {
            vmics.extend(room.images(mic));
        }
        vmics
    }

    /// Captures one beep during a *replay attack*: the device probes as
    /// usual (direct path, environment echoes, ambient and self-noise —
    /// the victim is absent), while a single point-source loudspeaker at
    /// `replay.source` re-emits a previously recorded echo waveform.
    ///
    /// The re-emission reaches every microphone as the *same* waveform,
    /// delayed and attenuated per element (and per room image) — the
    /// collapsed spatial structure that separates a loudspeaker from a
    /// genuine scatterer cloud.
    pub fn capture_replay(&self, replay: &ReplaySpoof, session: u32, beep: u64) -> BeepCapture {
        echo_obs::counter!("sim.replay_captures").inc();
        let base = self.capture_beep_from(&[], session, beep);
        let cfg = &self.config;
        let fs = cfg.sample_rate();
        let c = cfg.speed_of_sound;
        let playback = replay.playback_waveform(fs, beep);
        let trigger = replay.trigger_samples(fs, beep);

        let mut imp_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x313C_0000_0000);
        let imperfections: Vec<(f64, f64)> = (0..cfg.array.len())
            .map(|_| {
                let gain_db = cfg.mic_gain_error_db * crate::body::randn(&mut imp_rng);
                let timing = cfg.mic_timing_error * crate::body::randn(&mut imp_rng);
                (10f64.powf(gain_db / 20.0), timing * fs)
            })
            .collect();

        let mut channels: Vec<Vec<f64>> = base.channels().to_vec();
        for (mi, ch) in channels.iter_mut().enumerate() {
            let mic = cfg.array.position(mi);
            let (mic_gain, mic_delay) = imperfections[mi];
            for (vmic, vcoeff) in self.virtual_mics(mic) {
                let d = replay.source.distance_to(vmic).max(0.05);
                add_delayed(
                    ch,
                    &playback,
                    (trigger + d / c * fs + mic_delay).max(0.0),
                    vcoeff * mic_gain * replay.gain / d,
                );
            }
        }
        BeepCapture::new(channels, fs, base.preroll())
    }

    /// Captures one beep with a *bystander* walking through the scene —
    /// the paper's §VI-A-1 "residents could behave normally (e.g. …
    /// passing through the test locations) during the whole data
    /// collection". The bystander is a full body model on a straight
    /// walking path, positioned per beep index.
    pub fn capture_beep_with_bystander(
        &self,
        body: &BodyModel,
        placement: &Placement,
        session: u32,
        beep: u64,
        bystander: &Bystander,
    ) -> BeepCapture {
        let mut scatterers = body.scatterers(placement, session, beep);
        scatterers.extend(bystander.scatterers_at_beep(beep, placement.array_height));
        self.capture_beep_from(&scatterers, session, beep)
    }

    /// Convenience: capture a whole train of `count` beeps (the paper's
    /// L beeps at 0.5 s intervals — rendered as independent windows since
    /// echoes die out long before the next beep).
    pub fn capture_train(
        &self,
        body: &BodyModel,
        placement: &Placement,
        session: u32,
        count: usize,
        first_beep: u64,
    ) -> Vec<BeepCapture> {
        self.capture_train_traced(
            echo_obs::TraceCtx::none(),
            body,
            placement,
            session,
            count,
            first_beep,
        )
    }

    /// [`Scene::capture_train`] recording one `sim.beep` trace span per
    /// rendered beep (indexed by position in the train) under `ctx`.
    pub fn capture_train_traced(
        &self,
        ctx: echo_obs::TraceCtx,
        body: &BodyModel,
        placement: &Placement,
        session: u32,
        count: usize,
        first_beep: u64,
    ) -> Vec<BeepCapture> {
        (0..count)
            .map(|l| {
                let _tspan = ctx.child_at("sim.beep", l as u64);
                self.capture_beep(body, placement, session, first_beep + l as u64)
            })
            .collect()
    }

    /// Expected round-trip echo delay in seconds for a scatterer at
    /// distance `d` straight ahead (diagnostic helper).
    pub fn expected_round_trip(&self, d: f64) -> f64 {
        2.0 * d / self.config.speed_of_sound
    }
}

/// A person walking through the scene on a straight path while the
/// device probes (one beep every `beep_interval` seconds).
#[derive(Debug, Clone)]
pub struct Bystander {
    /// The bystander's body.
    pub body: BodyModel,
    /// Starting position at beep 0: (lateral x, distance y), metres.
    pub start: (f64, f64),
    /// Walking velocity: (vx, vy), metres per second.
    pub velocity: (f64, f64),
    /// Seconds between beeps (paper §V-A: 0.5 s).
    pub beep_interval: f64,
}

impl Bystander {
    /// A typical passer-by: starts 2 m to the left at 2 m depth and
    /// crosses laterally at ~1.2 m/s.
    pub fn walking_past(body: BodyModel) -> Self {
        Bystander {
            body,
            start: (-2.0, 2.0),
            velocity: (1.2, 0.0),
            beep_interval: 0.5,
        }
    }

    /// The bystander's scatterers at beep `beep`.
    pub fn scatterers_at_beep(&self, beep: u64, array_height: f64) -> Vec<Scatterer> {
        let t = beep as f64 * self.beep_interval;
        let placement = Placement {
            lateral: self.start.0 + self.velocity.0 * t,
            distance: (self.start.1 + self.velocity.1 * t).max(0.3),
            array_height,
        };
        // Use a high session id so the bystander's drift stream never
        // collides with the main user's.
        self.body.scatterers(&placement, 9_999, beep)
    }
}

// Re-export Rng trait use so the module compiles when rand idioms change.
#[allow(unused)]
fn _rng_assertions(mut r: ChaCha8Rng) {
    let _: f64 = r.gen_range(0.0..1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_dsp::correlate::matched_filter;
    use echo_dsp::filter::SosFilter;
    use echo_dsp::stats::rms;

    fn scene() -> Scene {
        Scene::new(SceneConfig::laboratory_quiet(5))
    }

    #[test]
    fn capture_shape_is_consistent() {
        let s = scene();
        let cap = s.capture_empty(0, 0);
        assert_eq!(cap.num_channels(), 6);
        assert_eq!(cap.len(), s.capture_samples());
        assert_eq!(cap.preroll(), s.preroll_samples());
        assert_eq!(cap.sample_rate(), 48_000.0);
    }

    #[test]
    fn preroll_is_noise_only() {
        let s = scene();
        let body = BodyModel::from_seed(1);
        let cap = s.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
        // Preroll RMS should be orders of magnitude below the beep part.
        let noise_rms = rms(cap.noise_segments()[0]);
        let signal_rms = rms(&cap.signal_segments()[0][..2_000]);
        assert!(signal_rms > 5.0 * noise_rms, "{signal_rms} vs {noise_rms}");
    }

    #[test]
    fn direct_path_arrives_at_the_expected_sample() {
        let s = scene();
        let cap = s.capture_empty(0, 0);
        let chirp = s.config().chirp.samples();
        // Filter to the probing band, then matched-filter channel 0.
        // Zero-phase filtering so the filter's group delay does not shift
        // the peak (the production pipeline measures echo delays relative
        // to the direct-path peak, which cancels the delay instead).
        let bp = SosFilter::butterworth_bandpass(4, 2_000.0, 3_000.0, 48_000.0);
        let filtered = bp.filtfilt(cap.channel(0));
        let mf = matched_filter(&filtered, &chirp);
        let peak = echo_dsp::stats::argmax(&mf[..cap.preroll() + 500]).unwrap();
        // Speaker at 8 cm from centre; mic 0 at (0.05, 0, 0) → 3 cm path.
        let d = s.config().speaker.distance_to(s.config().array.position(0));
        let expect = cap.preroll() as f64 + d / SPEED_OF_SOUND * 48_000.0;
        // Band-pass group delay shifts the peak a little.
        assert!(
            (peak as f64 - expect).abs() < 30.0,
            "peak {peak} vs expected {expect}"
        );
    }

    #[test]
    fn body_echo_appears_at_round_trip_delay() {
        let s = scene();
        let body = BodyModel::from_seed(2);
        let dist = 0.7;
        let with_body = s.capture_beep(&body, &Placement::standing_front(dist), 0, 0);
        let empty = s.capture_empty(0, 0);
        // Difference isolates the body echo (same noise seeds).
        let diff: Vec<f64> = with_body
            .channel(0)
            .iter()
            .zip(empty.channel(0))
            .map(|(a, b)| a - b)
            .collect();
        let chirp = s.config().chirp.samples();
        let mf = matched_filter(&diff, &chirp);
        let peak = echo_dsp::stats::argmax(&mf).unwrap();
        let expect = with_body.preroll() as f64 + s.expected_round_trip(dist) * 48_000.0;
        // Body scatterers spread ±torso depth; allow a couple of ms.
        assert!(
            (peak as f64 - expect).abs() < 100.0,
            "peak {peak} vs expected {expect}"
        );
    }

    #[test]
    fn farther_bodies_reflect_less_energy() {
        let s = scene();
        let body = BodyModel::from_seed(3);
        let energy_at = |d: f64| {
            let cap = s.capture_beep(&body, &Placement::standing_front(d), 0, 0);
            let empty = s.capture_empty(0, 0);
            let diff: Vec<f64> = cap
                .channel(0)
                .iter()
                .zip(empty.channel(0))
                .map(|(a, b)| a - b)
                .collect();
            echo_dsp::stats::energy(&diff)
        };
        let near = energy_at(0.6);
        let far = energy_at(1.4);
        assert!(near > 3.0 * far, "near {near} vs far {far}");
    }

    #[test]
    fn capture_is_deterministic_per_indices() {
        let s = scene();
        let body = BodyModel::from_seed(4);
        let p = Placement::standing_front(0.7);
        assert_eq!(
            s.capture_beep(&body, &p, 1, 2),
            s.capture_beep(&body, &p, 1, 2)
        );
        assert_ne!(
            s.capture_beep(&body, &p, 1, 2),
            s.capture_beep(&body, &p, 1, 3)
        );
    }

    #[test]
    fn train_produces_distinct_beeps() {
        let s = scene();
        let body = BodyModel::from_seed(5);
        let caps = s.capture_train(&body, &Placement::standing_front(0.7), 0, 3, 0);
        assert_eq!(caps.len(), 3);
        assert_ne!(caps[0], caps[1]);
        assert_ne!(caps[1], caps[2]);
    }

    #[test]
    fn floor_ghosts_add_delayed_energy() {
        let mut cfg = SceneConfig::laboratory_quiet(5);
        cfg.floor_z = Some(-0.9);
        let with_floor = Scene::new(cfg);
        let without = scene();
        let body = BodyModel::from_seed(9);
        let p = Placement::standing_front(0.7);
        let a = with_floor.capture_beep(&body, &p, 0, 0);
        let b = without.capture_beep(&body, &p, 0, 0);
        assert_ne!(a, b, "ghost paths must change the capture");
        // The ghost arrives later than the direct echo: the extra energy
        // concentrates after the first-order body return (~0.7 m ≈ 4 ms).
        let fs = 48_000.0;
        let after = (a.preroll() as f64 + 0.006 * fs) as usize;
        let diff_late: f64 = a.channel(0)[after..]
            .iter()
            .zip(&b.channel(0)[after..])
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff_late > 0.0, "ghosts should appear after the body echo");
        // And the total added energy is modest (floor coefficient 0.3,
        // longer path): well below the first-order echo energy.
        let e_with: f64 = a.channel(0).iter().map(|v| v * v).sum();
        let e_without: f64 = b.channel(0).iter().map(|v| v * v).sum();
        assert!(e_with < e_without * 1.5, "{e_with} vs {e_without}");
    }

    #[test]
    fn bystander_changes_capture_and_moves() {
        let s = scene();
        let user = BodyModel::from_seed(7);
        let walker = Bystander::walking_past(BodyModel::from_seed(70));
        let p = Placement::standing_front(0.7);
        let clean = s.capture_beep(&user, &p, 0, 0);
        let with0 = s.capture_beep_with_bystander(&user, &p, 0, 0, &walker);
        let with5 = s.capture_beep_with_bystander(&user, &p, 0, 5, &walker);
        assert_ne!(clean, with0, "bystander must leave a trace");
        // The bystander moved ~3 m between beeps 0 and 5, so the traces
        // differ in more than per-beep sway alone.
        let base5 = s.capture_beep(&user, &p, 0, 5);
        let diff0: f64 = clean
            .channel(0)
            .iter()
            .zip(with0.channel(0))
            .map(|(a, b)| (a - b).abs())
            .sum();
        let diff5: f64 = base5
            .channel(0)
            .iter()
            .zip(with5.channel(0))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff0 > 0.0 && diff5 > 0.0);
        assert_ne!(format!("{diff0:.6}"), format!("{diff5:.6}"));
    }

    #[test]
    fn bystander_path_advances_with_beeps() {
        let walker = Bystander::walking_past(BodyModel::from_seed(71));
        let a = walker.scatterers_at_beep(0, 0.9);
        let b = walker.scatterers_at_beep(4, 0.9);
        let mean_x = |s: &[crate::body::Scatterer]| {
            s.iter().map(|p| p.position.x).sum::<f64>() / s.len() as f64
        };
        // 4 beeps × 0.5 s × 1.2 m/s = 2.4 m of lateral travel.
        assert!((mean_x(&b) - mean_x(&a) - 2.4).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "capture window")]
    fn window_must_contain_chirp() {
        let mut cfg = SceneConfig::laboratory_quiet(0);
        cfg.capture_window = 0.001;
        let _ = Scene::new(cfg);
    }
}
