//! `device_auth`: the on-device path, driven in process.
//!
//! A seeded 4-member household enrols (2 visits × 6 beeps each, through
//! `enrollment_features` and then `Authenticator::enroll`), then one
//! caller authenticates pre-captured 3-beep trains in a closed loop:
//! 3 in 4 from members near their enrolment distance, 1 in 4 from
//! strangers. Imaging, ranging and preprocessing do almost all the work
//! here, and neither serve workload runs them.
//!
//! The loop cycles a fixed pool of trains, so each train runs some
//! forty times, spread over the run. The end-to-end figures are taken
//! over each train's fastest pass: a shared host slows floating-point
//! work by up to 70% for stretches of seconds to minutes, and a train's
//! fastest pass comes closest to its cost on an undisturbed device.

use crate::schedule::Rng;
use crate::stats::{
    best_per_input, mean, median, quantile, ratio, relative_cost_per_input, sorted, tail,
};
use crate::trace::Tracer;
use crate::{ms, procfs, Outcome};
use echo_obs::TraceCtx;
use echo_sim::{BeepCapture, BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::auth::{AuthAttempt, AuthConfig, Authenticator};
use echoimage_core::enrollment::{enrollment_features, EnrollmentConfig};
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
use echoimage_core::{distance, imaging, AuthDecision};
use std::time::{Duration, Instant};

const MEMBERS: u64 = 4;
const VISITS: u32 = 2;
const ENROL_BEEPS: usize = 6;
const TRAIN_BEEPS: usize = 3;
/// Distinct probe trains, cycled in a fixed order, so each train finds
/// the same cache state on every pass. 50 gives each train some forty
/// passes in a 45 s run, so its fastest is likely to find the host
/// quiet; with 100 trains, about twenty passes each, a busy host left
/// `p50_ms` up to 18% higher than with 50. It is more than the
/// steering-field cache holds (8), so cycling the pool does not make
/// every lookup a hit.
const POOL: usize = 50;
/// `tail_ms` is the p90 train. With 50 trains that leaves 5 beyond it,
/// not 10, and the run's note says so: 100 trains would leave each too
/// few passes.
const TAIL_PER_MILLE: usize = 900;

/// The process-wide cache counters the traced run turns into hit ratios.
const CACHES: [(&str, &str, &str); 3] = [
    (
        "core.steering_cache.hit_ratio",
        "steering_cache.hit",
        "steering_cache.miss",
    ),
    (
        "core.template_cache.hit_ratio",
        "template_cache.hit",
        "template_cache.miss",
    ),
    (
        "dsp.fft_plan_cache.hit_ratio",
        "fft_plan_cache.hit",
        "fft_plan_cache.miss",
    ),
];

struct Member {
    id: u64,
    body: BodyModel,
    /// Enrolment distance, metres.
    distance: f64,
}

struct Train {
    captures: Vec<BeepCapture>,
    claimed: u64,
    genuine: bool,
}

/// A caller's usual distance: 0.62–0.88 m in front of the device.
/// Nearer than about 0.55 m, ranging fails to find the body echo (the
/// near-field gap the reproduction gate tracks); this workload measures
/// speed, so every caller stands where ranging works.
fn usual_distance(rng: &mut Rng) -> f64 {
    0.62 + 0.26 * rng.next_f64()
}

/// Where a caller stands for one train: within 3 cm of `distance`, as
/// people do. Distance estimates come in ~4 mm steps and key the
/// steering-field cache, so a caller who stood on the same spot every
/// time would overstate the cache's hit ratio.
fn stand(distance: f64, rng: &mut Rng) -> Placement {
    Placement::standing_front(distance + 0.03 * (2.0 * rng.next_f64() - 1.0))
}

fn cache_counts() -> Vec<u64> {
    let snap = echo_obs::snapshot();
    CACHES
        .iter()
        .flat_map(|(_, hit, miss)| [*hit, *miss])
        .map(|name| snap.counter(name).unwrap_or(0))
        .collect()
}

/// Enrols the household one member at a time; after each, the device
/// retrains so that member can authenticate at once. Pushes the whole
/// enrolment's time to `setup_s`.
fn enrol_household(
    pipeline: &EchoImagePipeline,
    members: &[Member],
    visits: &[Vec<Vec<BeepCapture>>],
    mut tracer: Option<&mut Tracer>,
    setup_s: &mut Vec<f64>,
) -> Result<Authenticator, String> {
    let t0 = Instant::now();
    let mut enrolled: Vec<(usize, Vec<Vec<f64>>)> = Vec::new();
    let mut auth = None;
    for (m, v) in members.iter().zip(visits) {
        let tf = Instant::now();
        let feats = enrollment_features(pipeline, v, &EnrollmentConfig::default())
            .map_err(|e| format!("enrolment features of member {}: {e}", m.id))?;
        enrolled.push((m.id as usize, feats));
        let ts = Instant::now();
        auth = Some(
            Authenticator::enroll(&enrolled, &AuthConfig::default())
                .map_err(|e| format!("enrolment of member {}: {e}", m.id))?,
        );
        let end = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.record("core.enroll.features", m.id, None, tf, ts);
            t.record("ml.svm.enroll", m.id, None, ts, end);
        }
    }
    setup_s.push(t0.elapsed().as_secs_f64());
    auth.ok_or_else(|| "the household has no members".into())
}

/// Decision checks shared by the timed and the traced loop.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatch: u64,
    genuine: u64,
    genuine_accepted: u64,
    impostor: u64,
    impostor_accepted: u64,
}

impl Tally {
    /// Counts one decision; a wrong answer is a failure: an error, an
    /// accepted id outside the household, or a decision that differs
    /// from the one this train reached before.
    fn count(
        &mut self,
        train: &Train,
        outcome: Result<AuthDecision, String>,
        reference: &mut Option<AuthDecision>,
    ) -> bool {
        self.attempted += 1;
        let ok = match outcome {
            Err(e) => {
                eprintln!("device_auth: train failed: {e}");
                false
            }
            Ok(d) => {
                let known = d
                    .user_id()
                    .is_none_or(|u| (1..=MEMBERS).contains(&(u as u64)));
                let same = *reference.get_or_insert(d) == d;
                if !same {
                    self.mismatch += 1;
                }
                if train.genuine {
                    self.genuine += 1;
                    self.genuine_accepted += u64::from(d.user_id() == Some(train.claimed as usize));
                } else {
                    self.impostor += 1;
                    self.impostor_accepted += u64::from(d.is_accepted());
                }
                known && same
            }
        };
        self.failed += u64::from(!ok);
        ok
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // Inputs, drawn from the seed; capture rendering is not timed.
    let mut rng = Rng::stream(seed, 1);
    let scene = Scene::new(SceneConfig::laboratory_quiet(rng.next_u64()));
    let pipeline = EchoImagePipeline::new(PipelineConfig::default().with_threads(1));
    let members: Vec<Member> = (1..=MEMBERS)
        .map(|id| Member {
            id,
            body: BodyModel::from_seed(rng.next_u64()),
            distance: usual_distance(&mut rng),
        })
        .collect();
    let visits: Vec<Vec<Vec<BeepCapture>>> = members
        .iter()
        .map(|m| {
            (0..VISITS)
                .map(|v| {
                    let at = stand(m.distance, &mut rng);
                    scene.capture_train(&m.body, &at, v, ENROL_BEEPS, v as u64 * 1000)
                })
                .collect()
        })
        .collect();
    let pool: Vec<Train> = (0..POOL)
        .map(|i| {
            let claimed = &members[rng.below(MEMBERS) as usize];
            let genuine = i % 4 != 3;
            let stranger;
            let (body, distance) = if genuine {
                (&claimed.body, claimed.distance)
            } else {
                stranger = BodyModel::from_seed(rng.next_u64());
                (&stranger, usual_distance(&mut rng))
            };
            let at = stand(distance, &mut rng);
            let session = VISITS + 1 + i as u32;
            Train {
                captures: scene.capture_train(
                    body,
                    &at,
                    session,
                    TRAIN_BEEPS,
                    10_000 + 10 * i as u64,
                ),
                claimed: claimed.id,
                genuine,
            }
        })
        .collect();

    // The rendered inputs stay resident for the whole run; the peak
    // resident set counts from here, so `peak_rss_mb` is the device
    // path's own growth above them.
    let rss0 = procfs::reset_peak_rss_mb()
        .ok_or("cannot reset the peak resident set through /proc/self/clear_refs")?;

    // The household enrols three times: before the timed loop, halfway
    // through it and after it. The median of the three samples the host
    // at three moments of the run, and each enrolment finds the steering
    // cache filled by other trains, as on a device in use. The loop
    // authenticates against the first.
    let mut tracer = Tracer::new();
    let mut setup_s = Vec::new();
    let auth = enrol_household(
        &pipeline,
        &members,
        &visits,
        traced.then_some(&mut tracer),
        &mut setup_s,
    )?;

    let mut tally = Tally::default();
    let mut reference: Vec<Option<AuthDecision>> = vec![None; POOL];
    let mut next = 0usize;
    // The closed loop: one caller, one train at a time, timed whole, in
    // whole passes over the pool. Each pass records the pool index, the
    // latency and the caller's CPU time, both in ms; a failed pass has
    // infinite latency.
    let mut closed_loop = |span: Duration,
                           tally: &mut Tally,
                           reference: &mut [Option<AuthDecision>]|
     -> Result<Vec<(usize, f64, f64)>, String> {
        let mut passes = Vec::new();
        let end = Instant::now() + span;
        while Instant::now() < end || !next.is_multiple_of(POOL) {
            let k = next % POOL;
            let train = &pool[k];
            let cpu0 = procfs::thread_cpu_ns().ok_or("cannot read the thread CPU clock")?;
            let t = Instant::now();
            let d = auth.authenticate_train_claimed(&pipeline, &train.captures, train.claimed);
            let took = ms(t.elapsed());
            let cpu1 = procfs::thread_cpu_ns().ok_or("cannot read the thread CPU clock")?;
            let ok = tally.count(train, d.map_err(|e| e.to_string()), &mut reference[k]);
            let took = if ok { took } else { f64::INFINITY };
            passes.push((k, took, (cpu1 - cpu0) as f64 / 1e6));
            next += 1;
        }
        Ok(passes)
    };
    let latencies = |passes: &[(usize, f64, f64)]| -> Vec<(usize, f64)> {
        passes.iter().map(|&(k, took, _)| (k, took)).collect()
    };

    let half = Duration::from_secs_f64(seconds / 2.0);
    let schedstat = || procfs::this_thread().ok_or("cannot read /proc/thread-self/schedstat");
    let mut out = Outcome::default();
    if !traced {
        let mut passes = Vec::new();
        let mut wait_ns = 0;
        for _ in 0..2 {
            let (_, w0) = schedstat()?;
            passes.extend(closed_loop(half, &mut tally, &mut reference)?);
            let (_, w1) = schedstat()?;
            wait_ns += w1 - w0;
            enrol_household(&pipeline, &members, &visits, None, &mut setup_s)?;
        }
        // Passes run in whole cycles from pool index 0, so pass `i` is
        // train `i % POOL`.
        let in_order: Vec<f64> = passes.iter().map(|p| p.1).collect();
        let p50 = median(&sorted(&best_per_input(&latencies(&passes), POOL)));
        let t = tail(
            &sorted(&relative_cost_per_input(&in_order, POOL)),
            TAIL_PER_MILLE,
        );
        let cpu: Vec<(usize, f64)> = passes.iter().map(|&(k, _, c)| (k, c)).collect();
        out.metric("setup_s", median(&sorted(&setup_s)));
        out.metric("p50_ms", p50);
        out.metric("tail_ms", p50 * t.value);
        out.tail_note(&t);
        out.note(format!(
            "p50_ms is over each train's fastest of {} passes; tail_ms is p50_ms \
             times the {} train's cost relative to the median train",
            passes.len() / POOL,
            t.label
        ));
        out.metric(
            "cpu_ms_per_op",
            median(&sorted(&best_per_input(&cpu, POOL))),
        );
        let peak = procfs::peak_rss_mb(std::process::id()).ok_or("cannot read VmHWM")?;
        out.metric("peak_rss_mb", peak - rss0);
        // Every pass, as the host let it run: the gap to the figures
        // above is the host's slowdown.
        let all = sorted(&in_order);
        out.diag("all_passes.p50_ms", median(&all));
        out.diag("all_passes.p99_ms", quantile(&all, 990));
        out.diag("caller.runqueue_wait_ms", wait_ns as f64 / 1e6);
    } else {
        // First half: the untraced loop, for the overhead baseline and
        // the cache hit ratios the untraced run sees.
        let c0 = cache_counts();
        let base = sorted(&best_per_input(
            &latencies(&closed_loop(half, &mut tally, &mut reference)?),
            POOL,
        ));
        let c1 = cache_counts();
        enrol_household(
            &pipeline,
            &members,
            &visits,
            Some(&mut tracer),
            &mut setup_s,
        )?;
        // Second half: the same trains stage by stage, each span timed.
        let end = Instant::now() + half;
        let mut trains = 0usize;
        while Instant::now() < end {
            let k = next % POOL;
            let train = &pool[k];
            if reference[k].is_none() {
                reference[k] = auth
                    .authenticate_train_claimed(&pipeline, &train.captures, train.claimed)
                    .ok();
            }
            let d = staged(&mut tracer, next as u64, &pipeline, &auth, train);
            tally.count(train, d, &mut reference[k]);
            next += 1;
            trains += 1;
        }
        enrol_household(
            &pipeline,
            &members,
            &visits,
            Some(&mut tracer),
            &mut setup_s,
        )?;
        let train_ms = tracer.durations_ms("device.train");
        let stage = |name| tracer.total_ms_per(name, trains);
        let stages = [
            "core.health.screen",
            "core.pipeline.preprocess",
            "core.distance.estimate",
            "core.distance.covariance",
            "core.imaging.beep",
            "ml.cnn.train",
            "core.auth.decide",
        ];
        out.metric("core.health.screen_ms", stage("core.health.screen"));
        out.metric(
            "core.pipeline.preprocess_ms",
            stage("core.pipeline.preprocess"),
        );
        out.metric("core.distance.estimate_ms", stage("core.distance.estimate"));
        out.metric(
            "core.distance.covariance_ms",
            stage("core.distance.covariance"),
        );
        out.metric(
            "core.imaging.beep_ms",
            tracer.total_ms_per("core.imaging.beep", trains * TRAIN_BEEPS),
        );
        out.metric("ml.cnn.train_ms", stage("ml.cnn.train"));
        out.metric("core.auth.decide_us", 1e3 * stage("core.auth.decide"));
        out.metric(
            "core.unattributed_ms",
            mean(&tracer.self_ms("device.train")),
        );
        let covered: f64 = stages.iter().map(|s| stage(s)).sum();
        let share = 100.0 * covered / mean(&train_ms);
        out.note(format!(
            "stages cover {share:.1}% of the traced mean train latency"
        ));
        out.diag("trace.stage_share_pct", share);
        for (i, (name, _, _)) in CACHES.iter().enumerate() {
            let hits = c1[2 * i] - c0[2 * i];
            let misses = c1[2 * i + 1] - c0[2 * i + 1];
            out.metric(name, ratio(hits, hits + misses));
        }
        out.metric(
            "core.enroll.features_ms",
            mean(&tracer.durations_ms("core.enroll.features")),
        );
        out.metric(
            "ml.svm.enroll_ms",
            mean(&tracer.durations_ms("ml.svm.enroll")),
        );
        // Like the untraced figures, over each train's fastest pass.
        let staged: Vec<(usize, f64)> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "device.train")
            .map(|s| (s.id as usize % POOL, s.ns() as f64 / 1e6))
            .collect();
        let traced_p50 = median(&sorted(&best_per_input(&staged, POOL)));
        out.metric(
            "trace.overhead_pct",
            100.0 * (traced_p50 / median(&base) - 1.0),
        );
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.metric("ops.attempted", tally.attempted as f64);
    out.metric("ops.failed", tally.failed as f64);
    out.metric("ops.shed", 0.0);
    out.metric("ops.mismatch", tally.mismatch as f64);
    out.metric(
        "auth.genuine_accept_ratio",
        ratio(tally.genuine_accepted, tally.genuine),
    );
    out.metric(
        "auth.impostor_accept_ratio",
        ratio(tally.impostor_accepted, tally.impostor),
    );
    out.tracer = traced.then_some(tracer);
    Ok(out)
}

/// Re-runs one train through `authenticate_train_claimed`'s stages, one
/// public call per stage, each under its own span.
fn staged(
    tracer: &mut Tracer,
    id: u64,
    pipeline: &EchoImagePipeline,
    auth: &Authenticator,
    train: &Train,
) -> Result<AuthDecision, String> {
    let root = tracer.open("device.train", id, None);
    let p = Some(root);
    let result = (|| {
        let health = tracer
            .time("core.health.screen", id, p, || {
                pipeline.screen_train(&train.captures)
            })
            .map_err(|e| e.to_string())?;
        if !health.all_healthy() {
            return Err(
                "a channel failed the health screen; the degraded route is not replayed".into(),
            );
        }
        let filtered: Vec<BeepCapture> = train
            .captures
            .iter()
            .map(|c| tracer.time("core.pipeline.preprocess", id, p, || pipeline.preprocess(c)))
            .collect();
        let (array, config) = (pipeline.array(), pipeline.config());
        let est = tracer
            .time("core.distance.estimate", id, p, || {
                distance::estimate_distance(&filtered, array, config)
            })
            .map_err(|e| e.to_string())?;
        let cov = tracer.time("core.distance.covariance", id, p, || {
            distance::resolve_covariance(&filtered, array, config)
        });
        let images = filtered
            .iter()
            .map(|c| {
                tracer.time("core.imaging.beep", id, p, || {
                    imaging::construct_image_with_covariance(
                        c,
                        array,
                        est.horizontal_distance,
                        &cov,
                        config,
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let feats = tracer.time("ml.cnn.train", id, p, || pipeline.features_batch(&images));
        let attempt = AuthAttempt {
            claimed_user: Some(train.claimed),
            retry_index: 0,
        };
        tracer
            .time("core.auth.decide", id, p, || {
                auth.authenticate_features_traced(TraceCtx::none(), &feats, attempt)
            })
            .map_err(|e| e.to_string())
    })();
    tracer.close(root);
    result
}
