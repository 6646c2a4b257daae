//! Array geometry: 3-D vectors, microphone positions, standard layouts.

/// A 3-D point/vector in metres.
///
/// The coordinate convention follows the paper's Fig. 1/Fig. 6: the array
/// centre sits at the origin in the x–o–z plane; the user stands along +y;
/// +z points up.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component (metres).
    pub x: f64,
    /// y component (metres) — toward the user.
    pub y: f64,
    /// z component (metres) — up.
    pub z: f64,
}

impl Vec3 {
    /// The origin.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance_to(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the same direction.
    ///
    /// # Panics
    ///
    /// Panics if the vector is zero.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalise the zero vector");
        self / n
    }

    /// Component-wise scaling.
    #[inline]
    pub fn scale(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, k: f64) -> Vec3 {
        self.scale(k)
    }
}

impl std::ops::Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, k: f64) -> Vec3 {
        Vec3::new(self.x / k, self.y / k, self.z / k)
    }
}

impl std::ops::Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A microphone array: the position vectors `P = {p_1, …, p_M}` of
/// paper Eq. 3–4.
///
/// # Example
///
/// ```
/// use echo_array::MicArray;
///
/// let arr = MicArray::circular(6, 0.05);
/// assert_eq!(arr.len(), 6);
/// // Adjacent microphones of a 6-element circle sit one radius apart.
/// assert!((arr.min_spacing() - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MicArray {
    positions: Vec<Vec3>,
}

impl MicArray {
    /// Builds an array from explicit microphone positions.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two microphones are given.
    pub fn from_positions(positions: Vec<Vec3>) -> Self {
        assert!(
            positions.len() >= 2,
            "an array needs at least two microphones"
        );
        MicArray { positions }
    }

    /// A uniform circular array of `m` microphones with the given radius,
    /// lying in the x–y plane and centred on the origin. Mic 0 sits on the
    /// +x axis.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` or `radius <= 0`.
    pub fn circular(m: usize, radius: f64) -> Self {
        assert!(m >= 2, "an array needs at least two microphones");
        assert!(radius > 0.0, "radius must be positive");
        let positions = (0..m)
            .map(|i| {
                let phi = 2.0 * std::f64::consts::PI * i as f64 / m as f64;
                Vec3::new(radius * phi.cos(), radius * phi.sin(), 0.0)
            })
            .collect();
        MicArray { positions }
    }

    /// The paper's prototype geometry: a ReSpeaker-like circular array of
    /// six microphones with ~5 cm adjacent spacing (§VI-A). For a regular
    /// hexagon the adjacent chord equals the radius, so radius = 5 cm.
    pub fn respeaker_6() -> Self {
        Self::circular(6, 0.05)
    }

    /// A uniform rectangular array of `nx × ny` microphones in the x–y
    /// plane, centred on the origin (smart displays and sound bars use
    /// this layout).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two microphones result or a spacing is not
    /// positive.
    pub fn rectangular(nx: usize, ny: usize, dx: f64, dy: f64) -> Self {
        assert!(nx * ny >= 2, "an array needs at least two microphones");
        assert!(dx > 0.0 && dy > 0.0, "spacing must be positive");
        let ox = (nx - 1) as f64 / 2.0;
        let oy = (ny - 1) as f64 / 2.0;
        let positions = (0..ny)
            .flat_map(|j| {
                (0..nx).map(move |i| Vec3::new((i as f64 - ox) * dx, (j as f64 - oy) * dy, 0.0))
            })
            .collect();
        MicArray { positions }
    }

    /// A uniform linear array of `m` microphones spaced `spacing` metres
    /// along the x axis, centred on the origin.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` or `spacing <= 0`.
    pub fn linear(m: usize, spacing: f64) -> Self {
        assert!(m >= 2, "an array needs at least two microphones");
        assert!(spacing > 0.0, "spacing must be positive");
        let offset = (m - 1) as f64 / 2.0;
        let positions = (0..m)
            .map(|i| Vec3::new((i as f64 - offset) * spacing, 0.0, 0.0))
            .collect();
        MicArray { positions }
    }

    /// The sub-array holding only the listed microphones — used by
    /// degraded-mode beamforming to image with the channels that survive
    /// health screening. Keeping the original indices strictly
    /// increasing preserves the channel↔position pairing of the parent
    /// capture.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two indices are given, they are not strictly
    /// increasing, or one is out of range.
    pub fn subset(&self, indices: &[usize]) -> MicArray {
        assert!(
            indices.len() >= 2,
            "an array needs at least two microphones"
        );
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "microphone indices must be strictly increasing"
        );
        assert!(
            indices.iter().all(|&i| i < self.positions.len()),
            "microphone index out of range"
        );
        MicArray {
            positions: indices.iter().map(|&i| self.positions[i]).collect(),
        }
    }

    /// Number of microphones `M`.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always `false`: construction requires at least two microphones.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Position of microphone `m` (paper Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn position(&self, m: usize) -> Vec3 {
        self.positions[m]
    }

    /// All microphone positions (paper Eq. 4).
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Geometric centre of the microphones.
    pub fn centroid(&self) -> Vec3 {
        let sum = self.positions.iter().fold(Vec3::ZERO, |acc, &p| acc + p);
        sum / self.positions.len() as f64
    }

    /// Largest inter-microphone distance (the aperture).
    pub fn aperture(&self) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.positions.len() {
            for j in i + 1..self.positions.len() {
                best = best.max(self.positions[i].distance_to(self.positions[j]));
            }
        }
        best
    }

    /// Smallest inter-microphone distance — the `d` of the grating-lobe
    /// condition `d < λ/2` (paper §V-A).
    pub fn min_spacing(&self) -> f64 {
        let mut best = f64::INFINITY;
        for i in 0..self.positions.len() {
            for j in i + 1..self.positions.len() {
                best = best.min(self.positions[i].distance_to(self.positions[j]));
            }
        }
        best
    }

    /// Highest frequency (Hz) free of grating lobes: `c / (2·min_spacing)`,
    /// from the paper's spatial-sampling condition `d < λ/2` (§V-A).
    pub fn max_unambiguous_frequency(&self, speed_of_sound: f64) -> f64 {
        speed_of_sound / (2.0 * self.min_spacing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_dsp::SPEED_OF_SOUND;

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -1.0, 0.5);
        assert_eq!(a + b, Vec3::new(5.0, 1.0, 3.5));
        assert_eq!(a - b, Vec3::new(-3.0, 3.0, 2.5));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 3.5);
    }

    #[test]
    fn vec3_norm_and_distance() {
        let a = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.distance_to(Vec3::ZERO), 5.0);
        let u = a.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalizing_zero_panics() {
        let _ = Vec3::ZERO.normalized();
    }

    #[test]
    fn circular_array_geometry() {
        let arr = MicArray::circular(6, 0.05);
        assert_eq!(arr.len(), 6);
        // All mics on the circle.
        for p in arr.positions() {
            assert!((p.norm() - 0.05).abs() < 1e-12);
            assert_eq!(p.z, 0.0);
        }
        // Centroid at origin.
        assert!(arr.centroid().norm() < 1e-12);
        // Hexagon: adjacent spacing equals radius, aperture equals diameter.
        assert!((arr.min_spacing() - 0.05).abs() < 1e-12);
        assert!((arr.aperture() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn respeaker_matches_paper_spec() {
        let arr = MicArray::respeaker_6();
        assert_eq!(arr.len(), 6);
        assert!(
            (arr.min_spacing() - 0.05).abs() < 1e-12,
            "≈5 cm adjacent spacing"
        );
    }

    #[test]
    fn grating_lobe_limit_allows_the_probing_band() {
        // Paper §V-A: with 4–7 cm spacing the beep must stay below ~3 kHz.
        let arr = MicArray::respeaker_6();
        let fmax = arr.max_unambiguous_frequency(SPEED_OF_SOUND);
        assert!(
            fmax > 3_000.0,
            "probing band must be unambiguous, fmax = {fmax}"
        );
        assert!(
            fmax < 4_000.0,
            "5 cm spacing caps fmax near 3.4 kHz, got {fmax}"
        );
    }

    #[test]
    fn linear_array_is_centred_and_uniform() {
        let arr = MicArray::linear(4, 0.04);
        assert_eq!(arr.len(), 4);
        assert!(arr.centroid().norm() < 1e-12);
        assert!((arr.min_spacing() - 0.04).abs() < 1e-12);
        assert!((arr.aperture() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn rectangular_array_geometry() {
        let arr = MicArray::rectangular(3, 2, 0.04, 0.06);
        assert_eq!(arr.len(), 6);
        assert!(arr.centroid().norm() < 1e-12);
        assert!((arr.min_spacing() - 0.04).abs() < 1e-12);
        // Diagonal of the 2×1-cell bounding box: √((2·0.04)² + 0.06²).
        let diag = (0.08f64 * 0.08 + 0.06 * 0.06).sqrt();
        assert!((arr.aperture() - diag).abs() < 1e-12);
        assert!(arr.positions().iter().all(|p| p.z == 0.0));
    }

    #[test]
    fn subset_preserves_positions() {
        let arr = MicArray::respeaker_6();
        let sub = arr.subset(&[0, 2, 3, 5]);
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.position(1), arr.position(2));
        // A full-mask subset is the identical geometry.
        let full = arr.subset(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(full.positions(), arr.positions());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_subset_rejected() {
        let _ = MicArray::respeaker_6().subset(&[3, 1]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_mic_subset_rejected() {
        let _ = MicArray::respeaker_6().subset(&[2]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn degenerate_rectangular_rejected() {
        let _ = MicArray::rectangular(1, 1, 0.04, 0.04);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_mic_rejected() {
        let _ = MicArray::circular(1, 0.05);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn non_positive_radius_rejected() {
        let _ = MicArray::circular(6, 0.0);
    }
}
