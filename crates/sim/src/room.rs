//! Environment presets: static reflectors around the array.
//!
//! The paper evaluates in a laboratory room, a conference hall and an
//! outdoor place (§VI-A-1). Each preset populates the scene with static
//! clutter — walls, furniture, ground — whose echoes are the multipath
//! the beamforming/time-gating pipeline must reject.
//!
//! [`RoomModel`] adds a shoebox image-source model on top of the point
//! clutter: specular wall reflections up to a configurable order, the
//! multipath enrichment the multi-channel replay-detection literature
//! uses to make sure a detector separates *attacks* from rooms rather
//! than rooms from anechoic captures. The same model is applied to
//! clean and attack captures of a scene, so multipath alone never
//! distinguishes them.

use crate::body::Scatterer;
use echo_array::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The three experiment environments of the paper (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvironmentKind {
    /// A laboratory room: near walls, dense furniture clutter.
    Laboratory,
    /// A conference hall: distant walls, sparse clutter, long echoes.
    ConferenceHall,
    /// Outdoors: no walls, ground reflection only.
    Outdoor,
}

impl EnvironmentKind {
    /// All environments, in the paper's presentation order.
    pub fn all() -> [EnvironmentKind; 3] {
        [
            EnvironmentKind::Laboratory,
            EnvironmentKind::ConferenceHall,
            EnvironmentKind::Outdoor,
        ]
    }

    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            EnvironmentKind::Laboratory => "laboratory",
            EnvironmentKind::ConferenceHall => "conference hall",
            EnvironmentKind::Outdoor => "outdoor",
        }
    }
}

/// A concrete environment: a set of static reflectors in array
/// coordinates.
///
/// # Example
///
/// ```
/// use echo_sim::room::{Environment, EnvironmentKind};
///
/// let lab = Environment::generate(EnvironmentKind::Laboratory, 1);
/// assert!(!lab.reflectors().is_empty());
/// // The space directly in front of the array is kept clear for the user.
/// for r in lab.reflectors() {
///     let p = r.position;
///     assert!(!(p.x.abs() < 0.5 && p.y > 0.2 && p.y < 1.8 && p.z.abs() < 0.8));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    kind: EnvironmentKind,
    reflectors: Vec<Scatterer>,
}

impl Environment {
    /// Generates the reflector layout for `kind`, deterministically in
    /// `seed`.
    ///
    /// The user's standing corridor (|x| < 0.5 m, 0.2 m < y < 1.8 m,
    /// |z| < 0.8 m) is kept free of clutter so the scene stays physically
    /// consistent with a person standing in front of the device.
    pub fn generate(kind: EnvironmentKind, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x2007_0000_0000);
        let mut reflectors = Vec::new();

        let add_wall = |rng: &mut ChaCha8Rng,
                        reflectors: &mut Vec<Scatterer>,
                        center: Vec3,
                        span_x: f64,
                        span_z: f64,
                        refl_total: f64| {
            let points = 24;
            for _ in 0..points {
                let dx = rng.gen_range(-span_x / 2.0..span_x / 2.0);
                let dz = rng.gen_range(-span_z / 2.0..span_z / 2.0);
                reflectors.push(Scatterer {
                    position: Vec3::new(center.x + dx, center.y, center.z + dz),
                    reflectivity: refl_total / points as f64 * rng.gen_range(0.5..1.5),
                });
            }
        };

        let add_clutter = |rng: &mut ChaCha8Rng,
                           reflectors: &mut Vec<Scatterer>,
                           count: usize,
                           y_range: (f64, f64)| {
            let mut placed = 0;
            while placed < count {
                let x: f64 = rng.gen_range(-3.0..3.0);
                let y = rng.gen_range(y_range.0..y_range.1);
                let z: f64 = rng.gen_range(-0.9..0.9);
                // Keep the user's corridor clear.
                if x.abs() < 0.5 && y > 0.2 && y < 1.8 && z.abs() < 0.8 {
                    continue;
                }
                reflectors.push(Scatterer {
                    position: Vec3::new(x, y, z),
                    reflectivity: rng.gen_range(0.005..0.04),
                });
                placed += 1;
            }
        };

        match kind {
            EnvironmentKind::Laboratory => {
                // Near walls: behind the user (~3 m), side walls (~2 m),
                // behind the device (~1 m).
                add_wall(
                    &mut rng,
                    &mut reflectors,
                    Vec3::new(0.0, 3.0, 0.0),
                    4.0,
                    2.0,
                    0.5,
                );
                add_wall(
                    &mut rng,
                    &mut reflectors,
                    Vec3::new(-2.0, 1.5, 0.0),
                    0.1,
                    2.0,
                    0.3,
                );
                add_wall(
                    &mut rng,
                    &mut reflectors,
                    Vec3::new(2.0, 1.5, 0.0),
                    0.1,
                    2.0,
                    0.3,
                );
                add_wall(
                    &mut rng,
                    &mut reflectors,
                    Vec3::new(0.0, -1.0, 0.0),
                    4.0,
                    2.0,
                    0.3,
                );
                add_clutter(&mut rng, &mut reflectors, 10, (0.8, 2.8));
            }
            EnvironmentKind::ConferenceHall => {
                // Distant walls, high ceiling, sparse furniture.
                add_wall(
                    &mut rng,
                    &mut reflectors,
                    Vec3::new(0.0, 8.0, 0.0),
                    12.0,
                    4.0,
                    0.6,
                );
                add_wall(
                    &mut rng,
                    &mut reflectors,
                    Vec3::new(-6.0, 3.0, 0.0),
                    0.1,
                    4.0,
                    0.4,
                );
                add_wall(
                    &mut rng,
                    &mut reflectors,
                    Vec3::new(6.0, 3.0, 0.0),
                    0.1,
                    4.0,
                    0.4,
                );
                add_clutter(&mut rng, &mut reflectors, 5, (2.0, 6.0));
            }
            EnvironmentKind::Outdoor => {
                // Only the ground plane scatters back (array on a table).
                add_wall(
                    &mut rng,
                    &mut reflectors,
                    Vec3::new(0.0, 1.0, -0.9),
                    3.0,
                    0.05,
                    0.15,
                );
            }
        }

        Environment { kind, reflectors }
    }

    /// The environment kind.
    pub fn kind(&self) -> EnvironmentKind {
        self.kind
    }

    /// The static reflectors.
    pub fn reflectors(&self) -> &[Scatterer] {
        &self.reflectors
    }
}

/// A shoebox room rendered with the image-source method: every sound
/// path additionally reaches each microphone via specular wall
/// reflections, modelled by mirroring the *receiver* across the six
/// walls (and their images) up to `max_order` total bounces.
///
/// Coordinates: the room spans `[0, size]` on each axis and the array
/// origin sits at `array_pos` inside it, so scene geometry stays in
/// array coordinates.
///
/// # Example
///
/// ```
/// use echo_sim::room::RoomModel;
/// use echo_array::Vec3;
///
/// let room = RoomModel::small_room();
/// // First order: one image per wall.
/// assert_eq!(room.images(Vec3::new(0.0, 0.0, 0.0)).len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoomModel {
    /// Interior dimensions (Lx, Ly, Lz), metres.
    pub size: Vec3,
    /// Array origin in room coordinates; must lie inside the room.
    pub array_pos: Vec3,
    /// Maximum total reflection order (bounces summed over all axes).
    /// 0 disables the model; 1 adds the six first-order wall images.
    pub max_order: usize,
    /// Energy absorption coefficient of the walls, in `[0, 1]`. The
    /// pressure reflection coefficient per bounce is `√(1 − α)`.
    pub absorption: f64,
}

impl RoomModel {
    /// A typical small office/living room: 4 × 5 × 2.6 m, the device on
    /// a table near one wall, first-order reflections, moderately
    /// absorbent walls (α = 0.6, furniture + drywall).
    pub fn small_room() -> Self {
        RoomModel {
            size: Vec3::new(4.0, 5.0, 2.6),
            array_pos: Vec3::new(2.0, 1.0, 0.9),
            max_order: 1,
            absorption: 0.6,
        }
    }

    /// A harder, more reverberant variant: bare walls (α = 0.3) and
    /// second-order reflections (24 images per receiver).
    pub fn reverberant_room() -> Self {
        RoomModel {
            absorption: 0.3,
            max_order: 2,
            ..Self::small_room()
        }
    }

    /// Pressure reflection coefficient per wall bounce.
    pub fn reflection_coeff(&self) -> f64 {
        (1.0 - self.absorption.clamp(0.0, 1.0)).sqrt()
    }

    /// Image positions of a receiver at `p` (array coordinates), with
    /// their accumulated reflection coefficients. The identity (zero
    /// bounces) is *not* included. Order of the returned images is
    /// deterministic (lexicographic in the per-axis image indices).
    ///
    /// Per axis, the image index `q` places the mirrored coordinate at
    /// `q·L + x` for even `q` and `q·L + (L − x)` for odd `q`, with
    /// `|q|` wall bounces on that axis — the classic shoebox
    /// image-source enumeration.
    pub fn images(&self, p: Vec3) -> Vec<(Vec3, f64)> {
        let r = self.reflection_coeff();
        let n = self.max_order as i64;
        // Receiver in room coordinates.
        let rx = p.x + self.array_pos.x;
        let ry = p.y + self.array_pos.y;
        let rz = p.z + self.array_pos.z;
        let axis = |q: i64, len: f64, x: f64| -> f64 {
            let base = if q.rem_euclid(2) == 0 { x } else { len - x };
            q as f64 * len + base
        };
        let mut images = Vec::new();
        for qx in -n..=n {
            for qy in -n..=n {
                for qz in -n..=n {
                    let order = qx.abs() + qy.abs() + qz.abs();
                    if order == 0 || order > n {
                        continue;
                    }
                    let img_room = Vec3::new(
                        axis(qx, self.size.x, rx),
                        axis(qy, self.size.y, ry),
                        axis(qz, self.size.z, rz),
                    );
                    images.push((
                        Vec3::new(
                            img_room.x - self.array_pos.x,
                            img_room.y - self.array_pos.y,
                            img_room.z - self.array_pos.z,
                        ),
                        r.powi(order as i32),
                    ));
                }
            }
        }
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Environment::generate(EnvironmentKind::Laboratory, 9);
        let b = Environment::generate(EnvironmentKind::Laboratory, 9);
        assert_eq!(a, b);
        let c = Environment::generate(EnvironmentKind::Laboratory, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn laboratory_is_most_cluttered() {
        let lab = Environment::generate(EnvironmentKind::Laboratory, 1);
        let hall = Environment::generate(EnvironmentKind::ConferenceHall, 1);
        let out = Environment::generate(EnvironmentKind::Outdoor, 1);
        assert!(lab.reflectors().len() > hall.reflectors().len());
        assert!(hall.reflectors().len() > out.reflectors().len());
    }

    #[test]
    fn user_corridor_stays_clear() {
        for kind in EnvironmentKind::all() {
            for seed in 0..5 {
                let env = Environment::generate(kind, seed);
                for r in env.reflectors() {
                    let p = r.position;
                    let in_corridor = p.x.abs() < 0.5 && p.y > 0.2 && p.y < 1.8 && p.z.abs() < 0.8;
                    assert!(!in_corridor, "{kind:?} seed {seed}: reflector at {p:?}");
                }
            }
        }
    }

    #[test]
    fn outdoor_reflectors_are_ground_level() {
        let out = Environment::generate(EnvironmentKind::Outdoor, 3);
        for r in out.reflectors() {
            assert!(
                r.position.z < -0.8,
                "outdoor reflector not on ground: {:?}",
                r.position
            );
        }
    }

    #[test]
    fn hall_walls_are_distant() {
        let hall = Environment::generate(EnvironmentKind::ConferenceHall, 4);
        let min_dist = hall
            .reflectors()
            .iter()
            .map(|r| r.position.norm())
            .fold(f64::INFINITY, f64::min);
        assert!(min_dist > 1.9, "nearest hall reflector at {min_dist} m");
    }

    #[test]
    fn reflectivities_are_positive() {
        for kind in EnvironmentKind::all() {
            let env = Environment::generate(kind, 0);
            assert!(env.reflectors().iter().all(|r| r.reflectivity > 0.0));
        }
    }

    #[test]
    fn first_order_room_has_six_wall_images() {
        let room = RoomModel::small_room();
        let images = room.images(Vec3::new(0.05, 0.0, 0.0));
        assert_eq!(images.len(), 6);
        let r = room.reflection_coeff();
        for (_, coeff) in &images {
            assert!((coeff - r).abs() < 1e-12, "first order bounces once");
        }
    }

    #[test]
    fn second_order_room_has_twenty_four_images() {
        let room = RoomModel::reverberant_room();
        assert_eq!(room.images(Vec3::new(0.0, 0.0, 0.0)).len(), 24);
    }

    #[test]
    fn images_lie_outside_the_room_and_mirror_the_receiver() {
        let room = RoomModel::small_room();
        let p = Vec3::new(0.1, 0.2, -0.1);
        for (img, _) in room.images(p) {
            let in_x = img.x + room.array_pos.x;
            let in_y = img.y + room.array_pos.y;
            let in_z = img.z + room.array_pos.z;
            let inside = (0.0..=room.size.x).contains(&in_x)
                && (0.0..=room.size.y).contains(&in_y)
                && (0.0..=room.size.z).contains(&in_z);
            assert!(!inside, "image at {img:?} must lie outside the room");
        }
        // The floor image (z-axis, q = -1) mirrors across z = 0: room
        // height of the receiver is array_pos.z + p.z = 0.8, so the
        // image sits at room height -0.8 → array z = -1.7.
        let floor = room
            .images(p)
            .into_iter()
            .map(|(v, _)| v)
            .find(|v| (v.x - p.x).abs() < 1e-12 && (v.y - p.y).abs() < 1e-12 && v.z < p.z)
            .expect("floor image exists");
        assert!(
            (floor.z - (-1.7)).abs() < 1e-12,
            "floor image z {}",
            floor.z
        );
    }

    #[test]
    fn absorption_scales_image_coefficients() {
        let soft = RoomModel {
            absorption: 0.9,
            ..RoomModel::small_room()
        };
        let hard = RoomModel {
            absorption: 0.1,
            ..RoomModel::small_room()
        };
        let p = Vec3::new(0.0, 0.0, 0.0);
        let c_soft = soft.images(p)[0].1;
        let c_hard = hard.images(p)[0].1;
        assert!(c_hard > 2.0 * c_soft, "{c_hard} vs {c_soft}");
    }

    #[test]
    fn zero_order_room_has_no_images() {
        let room = RoomModel {
            max_order: 0,
            ..RoomModel::small_room()
        };
        assert!(room.images(Vec3::new(0.0, 0.0, 0.0)).is_empty());
    }
}
