//! Subcommand implementations.

use echo_sim::wav::{read_wav, write_wav};
use echo_sim::{BeepCapture, BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::auth::{AuthConfig, Authenticator};
use echoimage_core::enrollment::{enrollment_features, EnrollmentConfig};
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};

/// Parses `--key value` style options from `args`; positional arguments
/// collect separately.
struct Options {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                flags.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Options { positional, flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
            None => Ok(default),
        }
    }

    fn get_string(&self, key: &str, default: &str) -> String {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| default.to_string())
    }
}

/// `echoimage simulate` — render a capture to WAV.
pub fn simulate(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args)?;
    let seed: u64 = opts.get("seed", 7)?;
    let user: u64 = opts.get("user", 1)?;
    let distance: f64 = opts.get("distance", 0.7)?;
    let beeps: usize = opts.get("beeps", 1)?;
    if beeps == 0 {
        return Err("--beeps must be at least 1: a capture needs a beep".into());
    }
    let out = opts.get_string("out", "capture.wav");

    let scene = Scene::new(SceneConfig::laboratory_quiet(seed));
    let captures: Vec<BeepCapture> = if user == 0 {
        (0..beeps as u64)
            .map(|b| scene.capture_empty(0, b))
            .collect()
    } else {
        scene.capture_train(
            &BodyModel::from_seed(user),
            &Placement::standing_front(distance),
            0,
            beeps,
            0,
        )
    };
    // Concatenate beep windows into one multichannel recording.
    let m = captures[0].num_channels();
    let mut channels: Vec<Vec<f64>> = vec![Vec::new(); m];
    for cap in &captures {
        for (ch, buf) in channels.iter_mut().enumerate() {
            buf.extend_from_slice(cap.channel(ch));
        }
    }
    let fs = captures[0].sample_rate();
    let preroll = captures[0].preroll();
    let merged = BeepCapture::new(channels, fs, preroll);
    write_wav(&out, &merged, 0.25).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} channels × {} samples ({} beeps of {} samples, preroll {})",
        merged.num_channels(),
        merged.len(),
        beeps,
        captures[0].len(),
        preroll
    );
    Ok(())
}

/// Splits a concatenated WAV back into per-beep windows.
fn split_windows(merged: &BeepCapture, window: usize) -> Vec<BeepCapture> {
    let total = merged.len();
    let count = (total / window).max(1);
    (0..count)
        .map(|i| {
            let lo = i * window;
            let hi = ((i + 1) * window).min(total);
            BeepCapture::new(
                (0..merged.num_channels())
                    .map(|ch| merged.channel(ch)[lo..hi].to_vec())
                    .collect(),
                merged.sample_rate(),
                merged.preroll().min(hi - lo),
            )
        })
        .collect()
}

fn load_captures(path: &str, preroll: usize) -> Result<Vec<BeepCapture>, String> {
    let merged = read_wav(path, preroll).map_err(|e| format!("reading {path}: {e}"))?;
    // The simulator's standard window: preroll (10 ms) + 60 ms at 48 kHz.
    let window = ((0.070 * merged.sample_rate()).round() as usize).min(merged.len());
    if window == 0 {
        return Err(format!(
            "{path} holds no beep window ({} samples at {} Hz)",
            merged.len(),
            merged.sample_rate()
        ));
    }
    Ok(split_windows(&merged, window))
}

/// `echoimage range` — distance estimation on a WAV.
pub fn range(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args)?;
    let path = opts
        .positional
        .first()
        .ok_or("range needs a WAV path")?
        .clone();
    let preroll: usize = opts.get("preroll", 480)?;
    let captures = load_captures(&path, preroll)?;
    let pipeline = EchoImagePipeline::new(PipelineConfig::default());
    let est = pipeline
        .estimate_distance(&captures)
        .map_err(|e| format!("ranging failed: {e}"))?;
    println!("beeps analysed      : {}", captures.len());
    println!("slant distance D_f  : {:.3} m", est.slant_distance);
    println!("horizontal D_p      : {:.3} m", est.horizontal_distance);
    println!(
        "direct peak τ₁      : sample {} ({:.4} s)",
        est.direct_peak,
        est.direct_peak as f64 / captures[0].sample_rate()
    );
    println!(
        "body echo           : sample {} ({:.4} s)",
        est.echo_peak,
        est.echo_peak as f64 / captures[0].sample_rate()
    );
    Ok(())
}

/// `echoimage image` — acoustic image from a WAV, printed as ASCII.
pub fn image(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args)?;
    let path = opts
        .positional
        .first()
        .ok_or("image needs a WAV path")?
        .clone();
    let preroll: usize = opts.get("preroll", 480)?;
    let mut distance: f64 = opts.get("distance", 0.0)?;
    let captures = load_captures(&path, preroll)?;
    let pipeline = EchoImagePipeline::new(PipelineConfig::default());
    if distance <= 0.0 {
        distance = pipeline
            .estimate_distance(&captures)
            .map_err(|e| format!("ranging failed: {e}"))?
            .horizontal_distance;
        println!("estimated plane distance: {distance:.3} m");
    }
    let mut img = pipeline
        .acoustic_image(&captures[0], distance)
        .map_err(|e| format!("imaging failed: {e}"))?;
    img.normalize();
    let ramp: &[u8] = b" .:-=+*#%@";
    for row in 0..img.height() {
        let line: String = (0..img.width())
            .map(|col| ramp[((img.get(col, row) * 9.0) as usize).min(9)] as char)
            .collect();
        println!("{line}");
    }
    Ok(())
}

/// `echoimage demo` — end-to-end enrol/authenticate demonstration.
pub fn demo(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args)?;
    let seed: u64 = opts.get("seed", 7)?;
    let scene = Scene::new(SceneConfig::laboratory_quiet(seed));
    let pipeline = EchoImagePipeline::new(PipelineConfig::default());
    let placement = Placement::standing_front(0.7);

    let user = BodyModel::from_seed(seed.wrapping_add(1));
    println!("enrolling simulated user (4 visits × 6 beeps)…");
    let visits: Vec<_> = (0..4u32)
        .map(|v| scene.capture_train(&user, &placement, v, 6, v as u64 * 1_000))
        .collect();
    let features = enrollment_features(&pipeline, &visits, &EnrollmentConfig::default())
        .map_err(|e| format!("enrolment failed: {e}"))?;
    let auth = Authenticator::enroll(&[(1, features)], &AuthConfig::default())
        .map_err(|e| format!("enrolment failed: {e}"))?;

    let genuine = scene.capture_train(&user, &placement, 9, 3, 50_000);
    let g = pipeline
        .features_from_train(&genuine)
        .map_err(|e| format!("probe failed: {e}"))?;
    let accepted = g
        .iter()
        .filter(|f| auth.authenticate(f).is_accepted())
        .count();
    println!("genuine user : {accepted}/{} beeps accepted", g.len());

    let intruder = BodyModel::from_seed(seed.wrapping_add(1_000));
    let attack = scene.capture_train(&intruder, &placement, 9, 3, 60_000);
    let a = pipeline
        .features_from_train(&attack)
        .map_err(|e| format!("probe failed: {e}"))?;
    let accepted = a
        .iter()
        .filter(|f| auth.authenticate(f).is_accepted())
        .count();
    println!("intruder     : {accepted}/{} beeps accepted", a.len());
    Ok(())
}
