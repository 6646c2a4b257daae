//! Route shapes: the span tree and the deterministic counters of every
//! production route through the core library, pinned as a golden.
//!
//! A route is one entry point called the way its production caller
//! calls it. For each route the golden holds the span tree as
//! `(name, logical index, parent name)` tuples in the recorder's
//! canonical depth-first order, then every nonzero counter and each
//! histogram's observation count. It holds names, indices and counts
//! only — no floats, no timings, no attributes — so it is the same on
//! every host, thread count and SIMD mode, and a change to the entry
//! points shows up here as exactly the golden lines it moves.
//!
//! The golden is `route_shapes.golden`, one `## route` section per
//! route. On a mismatch the test prints every section that moved, as
//! it now renders. The routes run in one test because the recorder,
//! the registry and the process caches are global.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

use echo_sim::fault::{ChannelFault, FaultKind, FaultPlan};
use echo_sim::{BeepCapture, BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::auth::{AuthAttempt, AuthConfig, Authenticator};
use echoimage_core::config::{ImagingConfig, SpatialCheckConfig};
use echoimage_core::enrollment::{self, EnrollRequest, EnrollmentConfig};
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};
use echoimage_core::store::{self, IdentifyConfig, MemoryStore, TemplateBuilder};

const GOLDEN: &str = include_str!("route_shapes.golden");

/// `(screen, under a caller's span, captures, plane offsets, route)`.
type ImagingRoute<'a> = (bool, bool, &'a [BeepCapture], &'a [f64], &'a str);

fn train(beeps: usize, salt: u64) -> Vec<BeepCapture> {
    let scene = Scene::new(SceneConfig::laboratory_quiet(11));
    let body = BodyModel::from_seed(29);
    scene.capture_train(&body, &Placement::standing_front(0.7), 0, beeps, salt)
}

fn dead_mic_0(captures: &[BeepCapture]) -> Vec<BeepCapture> {
    FaultPlan::none()
        .with_fault(0, ChannelFault::from_severity(FaultKind::Dead, 1.0))
        .apply_train(captures)
}

/// Renders what a route recorded: spans as `span <name> <lidx> <-
/// <parent>` in canonical order (`-` for a root), then the nonzero
/// counters and histogram observation counts as `count <name> <n>`.
fn render() -> String {
    let spans = echo_obs::take_spans();
    let names: HashMap<(u64, u64), &str> =
        spans.iter().map(|s| ((s.trace, s.span), s.name)).collect();
    let mut out = String::new();
    for s in &spans {
        let parent = match s.parent {
            0 => "-",
            p => names.get(&(s.trace, p)).copied().unwrap_or("?"),
        };
        writeln!(out, "span {} {} <- {parent}", s.name, s.lidx).unwrap();
    }
    let snap = echo_obs::snapshot();
    let mut counts: BTreeMap<String, u64> =
        snap.counters.into_iter().filter(|&(_, v)| v != 0).collect();
    for (name, h) in snap.histograms.into_iter().filter(|(_, h)| h.count != 0) {
        counts.insert(format!("{name}#count"), h.count);
    }
    for (name, n) in counts {
        writeln!(out, "count {name} {n}").unwrap();
    }
    out
}

/// The golden section of `route`: the lines after `## route` up to the
/// next section header, or `None` when the golden has no such section.
fn golden(route: &str) -> Option<String> {
    let header = format!("## {route}");
    let mut lines = GOLDEN.lines().skip_while(|l| *l != header);
    lines.next()?;
    Some(
        lines
            .take_while(|l| !l.starts_with("## "))
            .filter(|l| !l.is_empty())
            .map(|l| format!("{l}\n"))
            .collect(),
    )
}

/// Runs `route` from cold caches, a zeroed registry and an empty
/// recorder, and appends its section to `moved` when it no longer
/// matches the golden.
fn check(moved: &mut String, route: &str, run: impl FnOnce()) {
    echo_dsp::plan::clear_plan_cache();
    echo_obs::reset();
    echo_obs::reset_traces();
    run();
    let rendered = render();
    if golden(route).as_ref() != Some(&rendered) {
        writeln!(moved, "## {route}\n{rendered}").unwrap();
    }
}

#[test]
fn every_production_route_keeps_its_shape() {
    echo_obs::set_enabled(true);
    echo_obs::set_trace_enabled(true);
    echo_obs::set_trace_sampling(1);
    let threads = echoimage_core::par::threads_from_env().expect("invalid ECHOIMAGE_THREADS");
    let p = EchoImagePipeline::new(PipelineConfig {
        imaging: ImagingConfig {
            grid_n: 16,
            grid_spacing: 0.1,
            ..ImagingConfig::default()
        },
        threads,
        ..PipelineConfig::default()
    });
    let enrolled = p.features_from_train(&train(6, 0)).unwrap();
    let auth = Authenticator::enroll(&[(1, enrolled.clone())], &Default::default()).unwrap();
    let probe = train(3, 7_000);
    // The daemon decides on features its batcher already extracted.
    let probe_features = p.features_from_train(&probe).unwrap();
    let builder = TemplateBuilder::new(auth.scaler().clone(), AuthConfig::default());
    let template = Arc::new(builder.build_user(1, &[enrolled]).unwrap());
    let memory = MemoryStore::from_templates(builder.scaler(), vec![template]).unwrap();
    let screening = EchoImagePipeline::new(PipelineConfig {
        spatial: SpatialCheckConfig {
            enabled: true,
            ..SpatialCheckConfig::default()
        },
        ..p.config().clone()
    });
    let served = AuthAttempt {
        claimed_user: Some(1),
        retry_index: 0,
    };
    let dead_probe = dead_mic_0(&probe);
    let visits: Vec<Vec<BeepCapture>> = (1..=2).map(|v| train(2, 500 * v)).collect();
    let dead_visits: Vec<Vec<BeepCapture>> = visits.iter().map(|v| dead_mic_0(v)).collect();
    let recipe = EnrollmentConfig::default();
    // The eval harness images at the enrolment recipe's plane offsets.
    let offsets = recipe.plane_offsets.clone();
    let (three, two) = (train(3, 0), train(2, 0));
    let (dead_three, dead_two) = (dead_mic_0(&three), dead_mic_0(&two));
    #[rustfmt::skip]
    let imaging: [ImagingRoute; 7] = [
        (false, true, &three, &[], "imaging_unscreened_under_caller"),
        (true, true, &dead_three, &[], "imaging_screened_under_caller"),
        (false, true, &two, &offsets, "imaging_multi_plane_unscreened_under_caller"),
        (true, true, &dead_two, &offsets, "imaging_multi_plane_screened_under_caller"),
        (false, false, &three, &[], "imaging_unscreened_own_root"),
        (false, false, &two, &offsets, "imaging_multi_plane_unscreened_own_root"),
        (true, false, &dead_two, &offsets, "imaging_multi_plane_screened_own_root"),
    ];

    let mut moved = String::new();
    check(&mut moved, "auth_claimed_healthy_train", || {
        auth.authenticate_train_claimed(&p, &probe, 1).unwrap();
    });
    check(&mut moved, "auth_claimed_dead_mic_train", || {
        auth.authenticate_train_claimed(&p, &dead_probe, 1).unwrap();
    });
    check(&mut moved, "auth_claimed_spatial_screen", || {
        auth.authenticate_train_claimed(&screening, &probe, 1)
            .unwrap();
    });
    check(&mut moved, "auth_features_under_caller", || {
        let caller = echo_obs::root_span("test.caller");
        auth.authenticate_features_traced(caller.ctx(), &probe_features, served)
            .unwrap();
    });
    check(&mut moved, "identify_memory_store_under_caller", || {
        let caller = echo_obs::root_span("test.caller");
        let identify = IdentifyConfig::default();
        let attempt = AuthAttempt::default();
        store::identify_traced(&memory, caller.ctx(), &probe_features, &identify, attempt).unwrap();
    });
    check(&mut moved, "enrollment_two_visits", || {
        enrollment::enrollment_features(&p, &visits, &recipe).unwrap();
    });
    check(&mut moved, "screened_enrollment_dead_mic_visits", || {
        let request = EnrollRequest {
            visits: &dead_visits,
            recipe: &recipe,
            screen: true,
            parent: None,
        };
        enrollment::enroll_features(&p, &request).unwrap();
    });
    check(&mut moved, "features_from_train", || {
        p.features_from_train(&three).unwrap();
    });
    for (screen, under_caller, captures, plane_offsets, route) in imaging {
        check(&mut moved, route, || {
            let caller = under_caller.then(|| echo_obs::root_span("test.caller"));
            let request = TrainRequest {
                captures,
                plane_offsets,
                screen,
                parent: caller.as_ref().map(|c| c.ctx()),
            };
            p.images(&request).unwrap();
        });
    }
    echo_obs::set_trace_enabled(false);
    assert!(
        moved.is_empty(),
        "routes changed shape; they now render as:\n{moved}"
    );
}
