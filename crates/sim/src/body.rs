//! Parametric human-body scatterer model.
//!
//! The paper's biometric signal is the pattern of echoes bouncing off a
//! specific person's body. This module substitutes volunteers with a
//! parametric model: each user is a stable cloud of acoustic point
//! scatterers sampled over a torso + head silhouette whose geometry
//! (height, shoulder width, torso curvature, head size) and surface
//! reflectivity texture derive deterministically from a per-user seed.
//!
//! What the classifier exploits in the real system — inter-user variation
//! that is stable within a user — is exactly what this model produces:
//! the same seed always yields the same body, while session drift
//! (clothing, posture) and per-beep sway (breathing, balance) add the
//! realistic intra-user noise the paper's multi-session protocol measures.

use echo_array::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An acoustic point scatterer: a surface patch that re-radiates the beep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scatterer {
    /// Position in array coordinates (origin at the array centre).
    pub position: Vec3,
    /// Pressure reflectivity of the patch (dimensionless, referenced to
    /// 1 m legs).
    pub reflectivity: f64,
}

/// Biological sex used to condition body-size distributions (matches the
/// paper's Table I demographics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gender {
    /// Male body-size priors.
    Male,
    /// Female body-size priors.
    Female,
}

/// Gross body geometry for one user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyParameters {
    /// Standing height in metres.
    pub height: f64,
    /// Shoulder (bi-acromial + deltoid) width in metres.
    pub shoulder_width: f64,
    /// Front-surface curvature depth of the torso in metres.
    pub torso_depth: f64,
    /// Head radius in metres.
    pub head_radius: f64,
    /// Total body reflectivity budget (distributed over all scatterers).
    pub total_reflectivity: f64,
}

impl BodyParameters {
    /// Samples plausible adult parameters from `rng`, conditioned on
    /// `gender`.
    pub fn sample(rng: &mut impl Rng, gender: Gender) -> Self {
        let (h_mu, h_sd, w_mu, w_sd) = match gender {
            Gender::Male => (1.75, 0.06, 0.46, 0.03),
            Gender::Female => (1.62, 0.05, 0.40, 0.025),
        };
        BodyParameters {
            height: (h_mu + h_sd * randn(rng)).clamp(1.45, 2.00),
            shoulder_width: (w_mu + w_sd * randn(rng)).clamp(0.32, 0.56),
            torso_depth: (0.10 + 0.02 * randn(rng)).clamp(0.05, 0.16),
            head_radius: (0.095 + 0.007 * randn(rng)).clamp(0.075, 0.115),
            total_reflectivity: (1.0 + 0.15 * randn(rng)).clamp(0.5, 1.6),
        }
    }
}

/// Where a user stands relative to the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Horizontal user–array distance along +y, metres (the paper's D_p).
    pub distance: f64,
    /// Lateral offset along x, metres.
    pub lateral: f64,
    /// Array height above the floor, metres (tabletop smart speaker).
    pub array_height: f64,
}

impl Placement {
    /// A user standing directly in front of the array at `distance`
    /// metres, with the array on a 0.9 m tabletop — the paper's §V-B
    /// assumption ("users intentionally stand directly in front of the
    /// array").
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not positive and finite.
    pub fn standing_front(distance: f64) -> Self {
        assert!(
            distance.is_finite() && distance > 0.0,
            "distance must be positive"
        );
        Placement {
            distance,
            lateral: 0.0,
            array_height: 0.9,
        }
    }
}

/// One cosine component of the surface-reflectivity texture field.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TextureWave {
    fx: f64,
    fz: f64,
    phase: f64,
    amp: f64,
}

/// A canonical (unplaced) body scatterer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TemplatePoint {
    /// Lateral offset from the body midline, metres.
    x: f64,
    /// Height above the floor, metres.
    z: f64,
    /// Front-surface offset toward the array (positive = closer), metres.
    bulge: f64,
    /// Reflectivity share.
    reflectivity: f64,
}

/// A user's body: a deterministic scatterer template plus jitter models.
///
/// # Example
///
/// ```
/// use echo_sim::body::{BodyModel, Placement};
///
/// let a = BodyModel::from_seed(1);
/// let b = BodyModel::from_seed(1);
/// // Same seed → identical body.
/// assert_eq!(a.params(), b.params());
///
/// let placed = a.scatterers(&Placement::standing_front(0.7), 0, 0);
/// assert!(placed.len() > 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BodyModel {
    seed: u64,
    params: BodyParameters,
    template: Vec<TemplatePoint>,
}

/// Lateral grid resolution of the torso template.
const TORSO_COLS: usize = 17;
/// Vertical grid resolution of the torso template.
const TORSO_ROWS: usize = 27;
/// Points sampled on the head disc.
const HEAD_POINTS: usize = 81;

impl BodyModel {
    /// Builds a user's body from a seed: parameters, silhouette and
    /// reflectivity texture are all deterministic functions of it.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0D7_CAFE_0000_0000);
        let gender = if rng.gen_bool(0.5) {
            Gender::Male
        } else {
            Gender::Female
        };
        let params = BodyParameters::sample(&mut rng, gender);
        Self::from_parameters(params, seed)
    }

    /// Builds a user's body from a seed with gender-conditioned sizes
    /// (used by the Table I population).
    pub fn from_seed_gendered(seed: u64, gender: Gender) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0D7_CAFE_0000_0000);
        let params = BodyParameters::sample(&mut rng, gender);
        Self::from_parameters(params, seed)
    }

    /// Builds a body from explicit parameters; the seed still controls
    /// the reflectivity texture.
    pub fn from_parameters(params: BodyParameters, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E87_0000_5EED_0001);
        let waves: Vec<TextureWave> = (0..8)
            .map(|_| TextureWave {
                fx: rng.gen_range(2.0..16.0),
                fz: rng.gen_range(2.0..16.0),
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
                amp: rng.gen_range(0.15..0.5),
            })
            .collect();
        let texture = |x: f64, z: f64| -> f64 {
            let s: f64 = waves
                .iter()
                .map(|w| w.amp * (w.fx * x + w.fz * z + w.phase).cos())
                .sum();
            s.exp()
        };

        let h = params.height;
        let hip_z = 0.50 * h;
        let shoulder_z = 0.82 * h;
        let head_z = 0.93 * h;

        let mut template = Vec::new();
        // Torso: tapered front surface between hip and shoulders.
        for row in 0..TORSO_ROWS {
            let fz = row as f64 / (TORSO_ROWS - 1) as f64;
            let z = hip_z + fz * (shoulder_z - hip_z);
            // Width tapers toward the hips a little.
            let half_w = params.shoulder_width / 2.0 * (0.80 + 0.20 * fz);
            for col in 0..TORSO_COLS {
                let fx = col as f64 / (TORSO_COLS - 1) as f64 * 2.0 - 1.0;
                let x = fx * half_w;
                // Convex chest: centre of the torso sits closest to the
                // array.
                let bulge = params.torso_depth * (1.0 - fx * fx).max(0.0);
                template.push(TemplatePoint {
                    x,
                    z,
                    bulge,
                    reflectivity: texture(x, z),
                });
            }
        }
        // Head: a disc of points with spherical bulge.
        let side = (HEAD_POINTS as f64).sqrt().ceil() as usize;
        for i in 0..side {
            for j in 0..side {
                let fx = i as f64 / (side - 1) as f64 * 2.0 - 1.0;
                let fz = j as f64 / (side - 1) as f64 * 2.0 - 1.0;
                if fx * fx + fz * fz > 1.0 {
                    continue;
                }
                let x = fx * params.head_radius;
                let z = head_z + fz * params.head_radius;
                let bulge = params.head_radius * (1.0 - fx * fx - fz * fz).max(0.0).sqrt();
                template.push(TemplatePoint {
                    x,
                    z,
                    bulge,
                    reflectivity: 0.8 * texture(x, z),
                });
            }
        }

        // User-specific surface micro-structure: real bodies are not
        // smooth grids, and this per-user scatterer jitter is what makes
        // one user's echo speckle pattern stably different from
        // another's (it is fixed per user, unlike per-beep sway).
        for p in &mut template {
            p.x += 0.008 * randn(&mut rng);
            p.z += 0.008 * randn(&mut rng);
            p.bulge = (p.bulge + 0.005 * randn(&mut rng)).max(0.0);
        }

        // Normalise the reflectivity budget.
        let total: f64 = template.iter().map(|p| p.reflectivity).sum();
        for p in &mut template {
            p.reflectivity *= params.total_reflectivity / total;
        }

        BodyModel {
            seed,
            params,
            template,
        }
    }

    /// The user's gross body parameters.
    pub fn params(&self) -> BodyParameters {
        self.params
    }

    /// The seed this body was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Places the body in array coordinates and applies session drift and
    /// per-beep sway.
    ///
    /// * `session` — multi-day session index (the paper's Sessions 1–3):
    ///   controls clothing/posture drift that is stable within a session.
    /// * `beep` — beep index: controls small per-observation sway
    ///   (breathing, balance).
    ///
    /// The body's front surface faces the array: scatterer `y` is
    /// `placement.distance − bulge` (the chest bulges *toward* the array).
    pub fn scatterers(&self, placement: &Placement, session: u32, beep: u64) -> Vec<Scatterer> {
        // Session drift: clothing changes the reflectivity slightly and
        // the standing pose shifts by a few millimetres.
        let mut srng =
            ChaCha8Rng::seed_from_u64(self.seed ^ 0x5E55_0000 ^ ((session as u64) << 32));
        let s_dx = 0.005 * randn(&mut srng);
        let s_dz = 0.006 * randn(&mut srng);
        let s_refl = (1.0 + 0.05 * randn(&mut srng)).clamp(0.8, 1.2);
        let cloth = TextureWave {
            fx: srng.gen_range(3.0..10.0),
            fz: srng.gen_range(3.0..10.0),
            phase: srng.gen_range(0.0..std::f64::consts::TAU),
            amp: 0.08,
        };

        // Per-beep sway: breathing moves the chest along y (several
        // millimetres — this is what decorrelates echo speckle between
        // beeps and lets the paper's Eq. 10 averaging smooth the
        // envelope), balance sways the whole body laterally.
        let mut brng = ChaCha8Rng::seed_from_u64(
            self.seed ^ 0xBEEB_0000_0000 ^ ((session as u64) << 48) ^ beep,
        );
        let b_dx = 0.001 * randn(&mut brng);
        let b_dy = 0.004 * randn(&mut brng);
        let b_dz = 0.001 * randn(&mut brng);

        let z0 = -placement.array_height;
        self.template
            .iter()
            .map(|p| {
                let refl_mod = s_refl
                    * (1.0 + cloth.amp * (cloth.fx * p.x + cloth.fz * p.z + cloth.phase).cos());
                Scatterer {
                    position: Vec3::new(
                        placement.lateral + p.x + s_dx + b_dx,
                        placement.distance - p.bulge + b_dy,
                        z0 + p.z + s_dz + b_dz,
                    ),
                    reflectivity: p.reflectivity * refl_mod,
                }
            })
            .collect()
    }
}

/// Standard-normal sample via Box–Muller (the `rand` crate alone has no
/// normal distribution).
pub(crate) fn randn(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_deterministic() {
        let a = BodyModel::from_seed(7);
        let b = BodyModel::from_seed(7);
        assert_eq!(a, b);
        let pa = a.scatterers(&Placement::standing_front(0.7), 1, 3);
        let pb = b.scatterers(&Placement::standing_front(0.7), 1, 3);
        assert_eq!(pa, pb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = BodyModel::from_seed(1);
        let b = BodyModel::from_seed(2);
        assert_ne!(a.params(), b.params());
    }

    #[test]
    fn template_covers_upper_body_span() {
        let body = BodyModel::from_seed(3);
        let placed = body.scatterers(&Placement::standing_front(0.7), 0, 0);
        let h = body.params().height;
        let zs: Vec<f64> = placed.iter().map(|s| s.position.z).collect();
        let z_min = zs.iter().cloned().fold(f64::INFINITY, f64::min);
        let z_max = zs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Hip (~0.5 H) to top of head, relative to a 0.9 m tabletop.
        assert!(z_min < 0.5 * h - 0.9 + 0.05, "z_min = {z_min}");
        assert!(z_max > 0.9 * h - 0.9 - 0.05, "z_max = {z_max}");
    }

    #[test]
    fn scatterers_sit_at_the_requested_distance() {
        let body = BodyModel::from_seed(4);
        let placed = body.scatterers(&Placement::standing_front(0.7), 0, 0);
        for s in &placed {
            // Front surface: between (distance − depth − jitter) and distance.
            assert!(
                s.position.y > 0.7 - 0.2 && s.position.y < 0.72,
                "y = {}",
                s.position.y
            );
        }
    }

    #[test]
    fn reflectivity_budget_is_respected() {
        let body = BodyModel::from_seed(5);
        let placed = body.scatterers(&Placement::standing_front(0.7), 0, 0);
        let total: f64 = placed.iter().map(|s| s.reflectivity).sum();
        let budget = body.params().total_reflectivity;
        // Session/clothing modulation keeps the total within ~±25%.
        assert!(
            (total - budget).abs() < 0.25 * budget,
            "total {total} vs budget {budget}"
        );
        assert!(placed.iter().all(|s| s.reflectivity > 0.0));
    }

    #[test]
    fn per_beep_sway_is_small_but_nonzero() {
        let body = BodyModel::from_seed(6);
        let p = Placement::standing_front(0.7);
        let a = body.scatterers(&p, 0, 0);
        let b = body.scatterers(&p, 0, 1);
        let max_shift = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.position.distance_to(y.position))
            .fold(0.0f64, f64::max);
        assert!(max_shift > 1e-6, "beeps should differ");
        assert!(max_shift < 0.02, "sway too large: {max_shift}");
    }

    #[test]
    fn session_drift_exceeds_beep_sway() {
        let body = BodyModel::from_seed(8);
        let p = Placement::standing_front(0.7);
        let s0 = body.scatterers(&p, 0, 0);
        let s1 = body.scatterers(&p, 2, 0);
        let refl_change: f64 = s0
            .iter()
            .zip(&s1)
            .map(|(a, b)| (a.reflectivity - b.reflectivity).abs() / a.reflectivity)
            .sum::<f64>()
            / s0.len() as f64;
        assert!(refl_change > 0.005, "sessions should drift: {refl_change}");
    }

    #[test]
    fn gendered_sampling_shifts_the_mean() {
        let mut hm = 0.0;
        let mut hf = 0.0;
        let n = 200;
        for i in 0..n {
            hm += BodyModel::from_seed_gendered(i, Gender::Male)
                .params()
                .height;
            hf += BodyModel::from_seed_gendered(i, Gender::Female)
                .params()
                .height;
        }
        assert!(hm / n as f64 > hf / n as f64 + 0.05);
    }

    #[test]
    fn randn_has_roughly_unit_variance() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let xs: Vec<f64> = (0..20_000).map(|_| randn(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn placement_rejects_bad_distance() {
        let _ = Placement::standing_front(-1.0);
    }
}
