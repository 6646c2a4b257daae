//! Quality-side ablations of EchoImage's design choices (per-stage
//! runtime is measured by the `feature_bench` binary):
//!
//! * beamformed MVDR ranging vs a single microphone,
//! * MVDR vs delay-and-sum imaging — does the image stay as
//!   user-discriminative?
//! * frozen-CNN features vs raw downsampled pixels,
//! * ranging error vs the number of averaged beeps L (Eq. 10).
//!
//! Run with `cargo run --release --example ablation_study`.

use echoimage::core::config::{BeamformerKind, ImagingConfig};
use echoimage::core::pipeline::{EchoImagePipeline, PipelineConfig};
use echoimage::dsp::stats::cosine_similarity;
use echoimage::ml::GrayImage;
use echoimage::sim::{BodyModel, Placement, Scene, SceneConfig};

fn centred(i: &GrayImage) -> Vec<f64> {
    let m = i.mean();
    i.pixels().iter().map(|p| p - m).collect()
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

fn main() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(42));
    let placement = Placement::standing_front(0.7);
    let alice = BodyModel::from_seed(1);
    let bella = BodyModel::from_seed(2);

    // ── Ablation 1: ranging error vs beep count L ────────────────────
    println!("ablation 1 — ranging error vs averaged beeps L (Eq. 10):");
    let pipeline = EchoImagePipeline::new(PipelineConfig::default());
    for l in [1usize, 2, 4, 8, 16] {
        let mut errs = Vec::new();
        for trial in 0..4 {
            let caps = scene.capture_train(&alice, &placement, trial, l, trial as u64 * 7_000);
            if let Ok(est) = pipeline.estimate_distance(&caps) {
                errs.push((est.horizontal_distance - 0.7).abs());
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let worst = errs.iter().cloned().fold(0.0f64, f64::max);
        println!("  L = {l:>2}: mean |error| {mean:.3} m, worst {worst:.3} m");
    }

    // ── Ablation 2: MVDR vs delay-and-sum imaging ────────────────────
    println!("\nablation 2 — imaging beamformer (same/cross-user image contrast):");
    for kind in [BeamformerKind::Mvdr, BeamformerKind::DelayAndSum] {
        let cfg = PipelineConfig {
            imaging: ImagingConfig {
                beamformer: kind,
                ..ImagingConfig::default()
            },
            ..PipelineConfig::default()
        };
        let p = EchoImagePipeline::new(cfg);
        let img = |body: &BodyModel, beep: u64| {
            let cap = scene.capture_beep(body, &placement, 0, beep);
            p.acoustic_image(&cap, 0.7).expect("imaging failed")
        };
        let a0 = img(&alice, 0);
        let a1 = img(&alice, 1);
        let b0 = img(&bella, 7);
        let same = cosine_similarity(&centred(&a0), &centred(&a1));
        let cross = cosine_similarity(&centred(&a0), &centred(&b0));
        println!(
            "  {kind:?}: same-user {same:.4}, cross-user {cross:.4}, contrast {:.4}",
            same - cross
        );
    }

    // ── Ablation 3: CNN features vs raw pixels ───────────────────────
    println!("\nablation 3 — feature extractor (intra/inter distance ratio, lower is better):");
    let p = EchoImagePipeline::new(PipelineConfig::default());
    let fx = p.feature_extractor();
    let img = |body: &BodyModel, beep: u64| {
        let cap = scene.capture_beep(body, &placement, 0, beep);
        p.acoustic_image(&cap, 0.7).expect("imaging failed")
    };
    let (a0, a1, b0) = (img(&alice, 0), img(&alice, 1), img(&bella, 7));
    type Extractor<'a> = Box<dyn Fn(&GrayImage) -> Vec<f64> + 'a>;
    let extractors: Vec<(&str, Extractor)> = vec![
        ("frozen CNN", Box::new(|i: &GrayImage| fx.extract(i))),
        ("raw pixels", Box::new(|i: &GrayImage| fx.raw_pixels(i))),
    ];
    for (label, f) in &extractors {
        let intra = dist(&f(&a0), &f(&a1));
        let inter = dist(&f(&a0), &f(&b0));
        println!(
            "  {label:<11}: intra {intra:.3}, inter {inter:.3}, ratio {:.3}",
            intra / inter
        );
    }

    // ── Ablation 4: beamformed vs single-microphone ranging ─────────
    println!("\nablation 4 — ranging front-end (error across 4 visits):");
    {
        // Beamformed (the paper's design) vs using channel 0 alone via a
        // pipeline with a single-mic \"array\" is not geometrically
        // comparable, so compare MVDR vs identity-covariance (DAS).
        use echoimage::core::config::CovarianceMode;
        for (label, mode) in [
            ("MVDR (isotropic ρ)", CovarianceMode::Isotropic),
            ("delay-and-sum", CovarianceMode::Identity),
        ] {
            let cfg = PipelineConfig {
                covariance: mode,
                ..PipelineConfig::default()
            };
            let p = EchoImagePipeline::new(cfg);
            let mut errs = Vec::new();
            for trial in 0..4 {
                let caps = scene.capture_train(&alice, &placement, trial, 8, trial as u64 * 7_000);
                if let Ok(est) = p.estimate_distance(&caps) {
                    errs.push((est.horizontal_distance - 0.7).abs());
                }
            }
            let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
            println!(
                "  {label:<20}: mean |error| {mean:.3} m over {} successful runs",
                errs.len()
            );
        }
    }
}
