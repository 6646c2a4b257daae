//! Fig. 8 — acoustic-image feasibility study (paper §V-C).
//!
//! Two users stand 0.7 m from the array; two beeps each are imaged. The
//! paper observes that one user's images are very similar while two
//! users' images differ significantly. Similarity here is the cosine of
//! mean-centred pixels (the raw cosine is dominated by the common
//! "standing person" blob).

use crate::harness::{CaptureSpec, Harness};
use echo_ml::GrayImage;
use echo_sim::Population;
use echoimage_core::EchoImageError;

/// Configuration for the imaging feasibility study.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// User distance, metres (paper: 0.7).
    pub distance: f64,
    /// Beeps per user (paper: 2).
    pub beeps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 8,
            distance: 0.7,
            beeps: 2,
        }
    }
}

/// Results of the imaging feasibility study.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Mean same-user image similarity (user A beep 1 vs beep 2, same
    /// for user B).
    pub same_user_similarity: f64,
    /// Mean cross-user image similarity.
    pub cross_user_similarity: f64,
    /// Image side length (grid cells).
    pub grid_n: usize,
    /// User A's first acoustic image, min–max normalised, row-major.
    pub image_a: Vec<f64>,
    /// User B's first acoustic image, min–max normalised, row-major.
    pub image_b: Vec<f64>,
}

echo_obs::json_object!(Output {
    same_user_similarity,
    cross_user_similarity,
    grid_n,
    image_a,
    image_b
});

/// Runs the study.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let harness = Harness::new(config.seed);
    let pop = Population::paper_table1(config.seed);
    let spec_a = CaptureSpec {
        distance: config.distance,
        beeps: config.beeps,
        ..CaptureSpec::default_lab(config.beeps)
    };
    let spec_b = CaptureSpec {
        beep_offset: 7_777,
        ..spec_a.clone()
    };
    let (images_a, _) = harness.images_for(&pop.profiles()[0].body(), &spec_a)?;
    let (images_b, _) = harness.images_for(&pop.profiles()[1].body(), &spec_b)?;

    let same_a = centred_cosine(&images_a[0], &images_a[1]);
    let same_b = centred_cosine(&images_b[0], &images_b[1]);
    let mut cross = 0.0;
    for a in &images_a {
        for b in &images_b {
            cross += centred_cosine(a, b);
        }
    }
    cross /= (images_a.len() * images_b.len()) as f64;

    let norm = |img: &GrayImage| {
        let mut i = img.clone();
        i.normalize();
        i.pixels().to_vec()
    };
    Ok(Output {
        same_user_similarity: (same_a + same_b) / 2.0,
        cross_user_similarity: cross,
        grid_n: images_a[0].width(),
        image_a: norm(&images_a[0]),
        image_b: norm(&images_b[0]),
    })
}

/// Cosine similarity of mean-centred pixel vectors.
pub fn centred_cosine(a: &GrayImage, b: &GrayImage) -> f64 {
    let centred = |i: &GrayImage| -> Vec<f64> {
        let m = i.mean();
        i.pixels().iter().map(|p| p - m).collect()
    };
    echo_dsp::stats::cosine_similarity(&centred(a), &centred(b))
}
