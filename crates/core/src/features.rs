//! Feature extraction from acoustic images (paper §V-D).
//!
//! The paper resizes each acoustic image to the VGGish input, runs the
//! frozen network and taps the 5th pooling layer as the feature vector.
//! This module wraps the reproduction's frozen CNN
//! ([`echo_ml::FeatureExtractor`], see DESIGN.md §1 for the
//! transfer-learning substitution) behind the same interface.

use crate::par::{parallel_map_indexed, worker_count};
use echo_ml::{FeatureExtractor, GrayImage};

/// Extracts fixed-length embeddings from acoustic images.
///
/// # Example
///
/// ```
/// use echoimage_core::features::ImageFeatures;
/// use echo_ml::GrayImage;
///
/// let fx = ImageFeatures::new();
/// let img = GrayImage::from_fn(32, 32, |x, y| (x * y) as f64);
/// let f = fx.extract(&img);
/// assert_eq!(f.len(), fx.feature_len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImageFeatures {
    extractor: FeatureExtractor,
}

impl ImageFeatures {
    /// The default frozen extractor (deterministic weights).
    pub fn new() -> Self {
        ImageFeatures {
            extractor: FeatureExtractor::paper_default(),
        }
    }

    /// Length of the extracted feature vector.
    pub fn feature_len(&self) -> usize {
        self.extractor.feature_len()
    }

    /// Extracts the embedding for one acoustic image.
    pub fn extract(&self, image: &GrayImage) -> Vec<f64> {
        self.extractor.extract(image)
    }

    /// Extracts embeddings for a batch of images on one thread, reusing
    /// one scratch arena across the whole batch (no per-image
    /// allocation). Output `i` equals `extract(&images[i])` bit for bit.
    pub fn extract_batch(&self, images: &[GrayImage]) -> Vec<Vec<f64>> {
        self.extractor.extract_batch(images)
    }

    /// [`ImageFeatures::extract_batch`] fanned over the deterministic
    /// work pool (`threads` follows the workspace convention: `0` =
    /// available parallelism, `1` = serial).
    ///
    /// Images are split into one contiguous chunk per worker and each
    /// worker runs the serial batch path with its own scratch, so the
    /// result is **bit-identical for every thread count and batch
    /// size** — the property the determinism suite pins.
    pub fn extract_batch_threaded(&self, images: &[GrayImage], threads: usize) -> Vec<Vec<f64>> {
        let workers = worker_count(threads, images.len());
        if workers <= 1 {
            return self.extract_batch(images);
        }
        let chunk = images.len().div_ceil(workers);
        let chunks: Vec<&[GrayImage]> = images.chunks(chunk).collect();
        parallel_map_indexed(&chunks, workers, |_, c| self.extractor.extract_batch(c))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Ablation baseline: the raw image, resized to the CNN input and
    /// flattened, without any convolutional mapping.
    pub fn raw_pixels(&self, image: &GrayImage) -> Vec<f64> {
        let size = self.extractor.input_size();
        let mut r = image.resize(size, size);
        r.normalize();
        r.pixels().to_vec()
    }
}

impl Default for ImageFeatures {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_is_deterministic() {
        let fx = ImageFeatures::new();
        let img = GrayImage::from_fn(40, 40, |x, y| ((x + 2 * y) % 5) as f64);
        assert_eq!(fx.extract(&img), fx.extract(&img));
    }

    #[test]
    fn batch_matches_single() {
        let fx = ImageFeatures::new();
        let imgs = vec![
            GrayImage::from_fn(32, 32, |x, _| x as f64),
            GrayImage::from_fn(32, 32, |_, y| y as f64),
        ];
        let batch = fx.extract_batch(&imgs);
        assert_eq!(batch[0], fx.extract(&imgs[0]));
        assert_eq!(batch[1], fx.extract(&imgs[1]));
    }

    #[test]
    fn threaded_batch_is_bit_identical_to_serial() {
        let fx = ImageFeatures::new();
        let imgs: Vec<GrayImage> = (0..7)
            .map(|k| GrayImage::from_fn(36, 36, move |x, y| ((x + k * y) % 9) as f64))
            .collect();
        let serial = fx.extract_batch_threaded(&imgs, 1);
        assert_eq!(serial.len(), imgs.len());
        for threads in [2, 3, 4, 0] {
            assert_eq!(fx.extract_batch_threaded(&imgs, threads), serial);
        }
        assert!(fx.extract_batch_threaded(&[], 4).is_empty());
    }

    #[test]
    fn raw_pixel_baseline_has_input_size_squared_length() {
        let fx = ImageFeatures::new();
        let img = GrayImage::from_fn(64, 64, |x, y| (x * y) as f64);
        let raw = fx.raw_pixels(&img);
        let s = 32; // paper_default input size
        assert_eq!(raw.len(), s * s);
        assert!(raw.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn different_images_give_different_features() {
        let fx = ImageFeatures::new();
        let a = fx.extract(&GrayImage::from_fn(32, 32, |x, _| x as f64));
        let b = fx.extract(&GrayImage::from_fn(32, 32, |_, y| y as f64));
        assert_ne!(a, b);
    }
}
