//! Grayscale images and resizing.
//!
//! Acoustic images (one intensity per imaging-plane grid cell) are
//! resized to the CNN's input resolution before feature extraction, just
//! as the paper resizes its images to match VGGish's input (§V-D).

/// A row-major grayscale image of `f64` intensities.
///
/// # Example
///
/// ```
/// use echo_ml::GrayImage;
///
/// let img = GrayImage::from_fn(4, 3, |x, y| (x + y) as f64);
/// assert_eq!(img.get(3, 2), 5.0);
/// let up = img.resize(8, 6);
/// assert_eq!(up.width(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f64>,
}

impl GrayImage {
    /// An all-zero image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        GrayImage {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Builds an image from a function of `(x, y)`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut img = GrayImage::zeros(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Wraps row-major pixel data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_data(width: usize, height: usize, data: Vec<f64>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(data.len(), width * height, "pixel count mismatch");
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = v;
    }

    /// Raw row-major pixels.
    pub fn pixels(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw pixels.
    pub fn pixels_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Bilinear resize to `new_width × new_height`.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn resize(&self, new_width: usize, new_height: usize) -> GrayImage {
        let mut taps = Vec::new();
        let mut data = Vec::new();
        resize_into(
            &self.data,
            self.width,
            self.height,
            new_width,
            new_height,
            &mut taps,
            &mut data,
        );
        GrayImage {
            width: new_width,
            height: new_height,
            data,
        }
    }

    /// Min–max normalises pixel values to `[0, 1]` in place; a constant
    /// image becomes all zeros.
    pub fn normalize(&mut self) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = hi - lo;
        if span <= 0.0 || !span.is_finite() {
            self.data.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        self.data.iter_mut().for_each(|v| *v = (*v - lo) / span);
    }

    /// Mean pixel intensity.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }
}

/// Bilinear-resize kernel over raw row-major pixels, writing into
/// caller-reused buffers.
///
/// This is the allocation-free engine behind [`GrayImage::resize`]:
/// `taps` caches the per-column interpolation weights and `out`
/// receives the resized pixels; both are cleared and refilled, so a
/// caller looping over many images (the CNN preprocessing path) pays
/// no per-image allocation once the buffers have grown. Values and
/// evaluation order are exactly the per-pixel loop's, and the
/// identity-size case is a plain copy — so results are bit-identical
/// to `resize` by construction (they share this code).
///
/// # Panics
///
/// Panics if a dimension is zero or `src.len() != width * height`.
pub fn resize_into(
    src: &[f64],
    width: usize,
    height: usize,
    new_width: usize,
    new_height: usize,
    taps: &mut Vec<(usize, usize, f64)>,
    out: &mut Vec<f64>,
) {
    assert!(width > 0 && height > 0, "image dimensions must be positive");
    assert!(
        new_width > 0 && new_height > 0,
        "image dimensions must be positive"
    );
    assert_eq!(src.len(), width * height, "pixel count mismatch");
    out.clear();
    if new_width == width && new_height == height {
        out.extend_from_slice(src);
        return;
    }
    let sx = width as f64 / new_width as f64;
    let sy = height as f64 / new_height as f64;
    // Horizontal taps depend only on x: compute them once per image
    // instead of once per row.
    taps.clear();
    taps.extend((0..new_width).map(|x| {
        // Sample at pixel centres.
        let fx = ((x as f64 + 0.5) * sx - 0.5).clamp(0.0, (width - 1) as f64);
        let x0 = fx.floor() as usize;
        let x1 = (x0 + 1).min(width - 1);
        (x0, x1, fx - x0 as f64)
    }));
    out.reserve(new_width * new_height);
    for y in 0..new_height {
        let fy = ((y as f64 + 0.5) * sy - 0.5).clamp(0.0, (height - 1) as f64);
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(height - 1);
        let wy = fy - y0 as f64;
        let omy = 1.0 - wy;
        let r0 = &src[y0 * width..(y0 + 1) * width];
        let r1 = &src[y1 * width..(y1 + 1) * width];
        for &(x0, x1, wx) in taps.iter() {
            let omx = 1.0 - wx;
            out.push(r0[x0] * omx * omy + r0[x1] * wx * omy + r1[x0] * omx * wy + r1[x1] * wx * wy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut img = GrayImage::zeros(3, 2);
        img.set(2, 1, 5.0);
        assert_eq!(img.get(2, 1), 5.0);
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.pixels().len(), 6);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let img = GrayImage::from_fn(3, 2, |x, y| (y * 10 + x) as f64);
        assert_eq!(img.pixels(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn resize_identity_is_noop() {
        let img = GrayImage::from_fn(4, 4, |x, y| (x * y) as f64);
        assert_eq!(img.resize(4, 4), img);
    }

    #[test]
    fn resize_constant_image_stays_constant() {
        let img = GrayImage::from_fn(5, 5, |_, _| 3.0);
        let r = img.resize(9, 7);
        assert!(r.pixels().iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn downsample_averages_gradient() {
        // A horizontal ramp keeps its mean under resizing.
        let img = GrayImage::from_fn(16, 16, |x, _| x as f64);
        let small = img.resize(4, 4);
        assert!((small.mean() - img.mean()).abs() < 0.6);
        // Monotone along x.
        for y in 0..4 {
            for x in 1..4 {
                assert!(small.get(x, y) > small.get(x - 1, y));
            }
        }
    }

    #[test]
    fn upsample_interpolates_between_pixels() {
        let img = GrayImage::from_data(2, 1, vec![0.0, 10.0]);
        let up = img.resize(4, 1);
        assert!(up.get(0, 0) < up.get(1, 0));
        assert!(up.get(1, 0) < up.get(2, 0));
        assert!(up.get(2, 0) < up.get(3, 0));
    }

    #[test]
    fn normalize_maps_to_unit_range() {
        let mut img = GrayImage::from_data(2, 2, vec![2.0, 4.0, 6.0, 10.0]);
        img.normalize();
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(1, 1), 1.0);
        let mut flat = GrayImage::from_fn(2, 2, |_, _| 7.0);
        flat.normalize();
        assert!(flat.pixels().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let img = GrayImage::zeros(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "pixel count")]
    fn bad_data_length_panics() {
        let _ = GrayImage::from_data(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn resize_into_reused_buffers_match_resize_bitwise() {
        let mut taps = Vec::new();
        let mut out = Vec::new();
        // Mixed shapes (up, down, identity, single-column) through the
        // SAME buffers: stale taps/pixels from the previous image must
        // never leak into the next result.
        let shapes = [(7usize, 5usize), (32, 32), (1, 9), (40, 3)];
        for (i, &(w, h)) in shapes.iter().enumerate() {
            let img = GrayImage::from_fn(w, h, |x, y| ((x * 13 + y * 7 + i) % 11) as f64 - 3.0);
            for &(nw, nh) in &[(32usize, 32usize), (w, h), (3, 8)] {
                resize_into(img.pixels(), w, h, nw, nh, &mut taps, &mut out);
                let fresh = img.resize(nw, nh);
                assert_eq!(out.len(), nw * nh);
                for (a, b) in out.iter().zip(fresh.pixels()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
