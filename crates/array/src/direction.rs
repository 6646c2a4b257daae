//! Incident directions: azimuth/elevation pairs and the paper's grid-angle
//! formulas (Eq. 11–12).

use crate::geometry::Vec3;

/// An incident direction `Ω = {θ, φ}` (paper Fig. 1).
///
/// * `azimuth` θ — angle in the x–y plane from the +x axis, radians.
/// * `elevation` φ — polar angle from the +z axis, radians (π/2 is the
///   horizontal plane).
///
/// The unit vector pointing *toward* the source is
/// `u = [sin φ cos θ, sin φ sin θ, cos φ]`; the paper's propagation vector
/// (Eq. 5) is `v = −u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Direction {
    azimuth: f64,
    elevation: f64,
}

impl Direction {
    /// Creates a direction from azimuth θ and elevation φ in radians.
    ///
    /// # Panics
    ///
    /// Panics if either angle is non-finite.
    pub fn new(azimuth: f64, elevation: f64) -> Self {
        assert!(
            azimuth.is_finite() && elevation.is_finite(),
            "angles must be finite"
        );
        Direction { azimuth, elevation }
    }

    /// Straight ahead of the array: θ = π/2 (along +y), φ = π/2
    /// (horizontal) — where the paper assumes the user stands.
    pub fn front() -> Self {
        Direction::new(std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2)
    }

    /// Azimuth θ in radians.
    pub fn azimuth(&self) -> f64 {
        self.azimuth
    }

    /// Elevation (polar angle) φ in radians.
    pub fn elevation(&self) -> f64 {
        self.elevation
    }

    /// Unit vector from the array origin toward the source.
    pub fn unit_toward_source(&self) -> Vec3 {
        let (st, ct) = (self.azimuth.sin(), self.azimuth.cos());
        let (sp, cp) = (self.elevation.sin(), self.elevation.cos());
        Vec3::new(sp * ct, sp * st, cp)
    }

    /// The paper's sound-propagation vector `v(Ω)` (Eq. 5): the direction
    /// the plane wave travels, i.e. from the source toward the array.
    pub fn propagation_vector(&self) -> Vec3 {
        -self.unit_toward_source()
    }

    /// Direction from the origin toward an arbitrary point.
    ///
    /// For a point `{x_k, D_p, z_k}` on the virtual imaging plane this
    /// reproduces the paper's Eq. 11–12:
    ///
    /// * `θ_k = arccos(x_k / √(x_k² + D_p²))`
    /// * `φ_k = arccos(z_k / √(x_k² + D_p² + z_k²))`
    ///
    /// # Panics
    ///
    /// Panics if `point` is the origin.
    pub fn toward_point(point: Vec3) -> Self {
        let r = point.norm();
        assert!(r > 0.0, "direction to the origin is undefined");
        let rho = (point.x * point.x + point.y * point.y).sqrt();
        // atan2 generalises the paper's arccos form (which assumes y > 0)
        // to the full azimuth range.
        let azimuth = if rho == 0.0 {
            0.0
        } else {
            point.y.atan2(point.x)
        };
        let elevation = (point.z / r).clamp(-1.0, 1.0).acos();
        Direction::new(azimuth, elevation)
    }
}

impl Default for Direction {
    fn default() -> Self {
        Direction::front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_3};

    #[test]
    fn front_points_along_plus_y() {
        let u = Direction::front().unit_toward_source();
        assert!((u.x).abs() < 1e-12);
        assert!((u.y - 1.0).abs() < 1e-12);
        assert!((u.z).abs() < 1e-12);
    }

    #[test]
    fn propagation_vector_is_negated_source_direction() {
        let d = Direction::new(0.7, 1.1);
        let u = d.unit_toward_source();
        let v = d.propagation_vector();
        assert!((u + v).norm() < 1e-12);
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq5_components_match_paper() {
        // v(Ω) = −[sinφ cosθ, sinφ sinθ, cosφ].
        let theta = 0.4;
        let phi = 1.2;
        let v = Direction::new(theta, phi).propagation_vector();
        assert!((v.x + phi.sin() * theta.cos()).abs() < 1e-12);
        assert!((v.y + phi.sin() * theta.sin()).abs() < 1e-12);
        assert!((v.z + phi.cos()).abs() < 1e-12);
    }

    #[test]
    fn toward_point_reproduces_eq_11_12() {
        // A grid point {x_k, D_p, z_k} on the imaging plane.
        let (x, dp, z) = (0.3, 0.7, -0.2);
        let d = Direction::toward_point(Vec3::new(x, dp, z));
        let theta_paper = (x / (x * x + dp * dp).sqrt()).acos();
        let phi_paper = (z / (x * x + dp * dp + z * z).sqrt()).acos();
        assert!((d.azimuth() - theta_paper).abs() < 1e-12);
        assert!((d.elevation() - phi_paper).abs() < 1e-12);
    }

    #[test]
    fn toward_point_round_trips_direction() {
        let d = Direction::new(1.9, 0.8);
        let p = d.unit_toward_source() * 2.5;
        let d2 = Direction::toward_point(p);
        assert!((d.azimuth() - d2.azimuth()).abs() < 1e-12);
        assert!((d.elevation() - d2.elevation()).abs() < 1e-12);
    }

    #[test]
    fn plane_centre_is_straight_ahead() {
        let d = Direction::toward_point(Vec3::new(0.0, 0.7, 0.0));
        assert!((d.azimuth() - FRAC_PI_2).abs() < 1e-12);
        assert!((d.elevation() - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn upper_body_steering_angles_are_representable() {
        // §V-B steers θ = π/2, φ ∈ [π/3, 2π/3].
        let d = Direction::new(FRAC_PI_2, FRAC_PI_3);
        let u = d.unit_toward_source();
        assert!(u.z > 0.0, "φ = π/3 looks upward");
        assert!(u.y > 0.0, "still toward the user");
    }

    #[test]
    #[should_panic(expected = "origin")]
    fn toward_origin_panics() {
        let _ = Direction::toward_point(Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_angles_rejected() {
        let _ = Direction::new(f64::NAN, 0.0);
    }
}
