//! Standing benchmark for the fast feature path.
//!
//! Times the two hot kernels this crate's evaluation sweeps re-pay
//! thousands of times per run:
//!
//! * **image → embedding** — the naive 6-deep convolution reference
//!   versus the im2col+GEMM forward pass (single image), and the batch
//!   path at several thread counts (asserted bit-identical),
//! * **matched filter** — the pre-plan three-FFT implementation versus
//!   the packed-real path and the cached-template
//!   [`MatchedFilterPlan`].
//!
//! A third section runs the full capture→features pipeline on a small
//! simulated train with the observability layer enabled and reports the
//! per-stage latency breakdown plus cache hit rates. A fourth runs the
//! `echo-serve` daemon in-process under a fixed load and records the
//! micro-batched end-to-end p99 (`serve.p99_ns`, also gated). A fifth
//! builds a 65k-user synthetic template shard and records the mmap
//! candidate-lookup p99 (`store.lookup_p99_ns`, also gated) — the
//! million-user version lives in `store_bench`.
//!
//! Writes `BENCH_features.json` at the repository root so successive
//! PRs accumulate a perf trajectory. `--quick` shrinks iteration counts
//! for CI smoke runs; `--out <path>` writes the JSON artefact to an
//! explicit path even under `--quick` (the bench-regression gate uses
//! this to collect a fresh sample without disturbing the baseline).

use echo_bench::{banner, flag_value, quick_mode, run_or_exit};
use echo_dsp::correlate::{matched_filter, CorrelationScratch, MatchedFilterPlan};
use echo_dsp::fft::{fft, ifft, next_pow2};
use echo_dsp::Complex;
use echo_ml::cnn::ConvScratch;
use echo_ml::{FeatureExtractor, GrayImage};
use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::config::ImagingConfig;
use echoimage_core::features::ImageFeatures;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};
use echoimage_core::{steering_cache, template_cache};
use std::time::Instant;

/// Best-of-`reps` mean nanoseconds per iteration of `f`.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

/// The pre-plan matched filter: pad both signals, three full FFTs.
fn matched_filter_unplanned(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let n = signal.len();
    let size = next_pow2(n + template.len() - 1);
    let mut a: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
    a.resize(size, Complex::ZERO);
    let mut b: Vec<Complex> = template.iter().map(|&x| Complex::from_real(x)).collect();
    b.resize(size, Complex::ZERO);
    fft(&mut a);
    fft(&mut b);
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x *= y.conj();
    }
    ifft(&mut a);
    a.truncate(n);
    a.into_iter().map(|v| v.re).collect()
}

fn bench_image(k: usize) -> GrayImage {
    GrayImage::from_fn(64, 64, move |x, y| ((x * 13 + y * 29 + k * 7) % 97) as f64)
}

/// Runs the full capture→features pipeline `iters` times with a cold
/// start and returns the observability snapshot: per-stage latency
/// histograms plus cache hit/miss counters. The first iteration pays
/// every cache miss; the rest measure the steady state the evaluation
/// sweeps actually run in.
fn pipeline_stage_snapshot(iters: usize) -> echo_obs::MetricsSnapshot {
    let scene = Scene::new(SceneConfig::laboratory_quiet(11));
    let body = BodyModel::from_seed(29);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 3, 0);
    let pipeline = EchoImagePipeline::new(PipelineConfig {
        imaging: ImagingConfig {
            grid_n: 16,
            grid_spacing: 0.1,
            ..ImagingConfig::default()
        },
        threads: 1,
        ..PipelineConfig::default()
    });
    steering_cache::clear_cache();
    template_cache::clear_template_cache();
    echo_dsp::plan::clear_plan_cache();
    echo_obs::reset();
    for _ in 0..iters {
        run_or_exit(pipeline.features_from_train(&caps), "pipeline run failed");
    }
    echo_obs::snapshot()
}

/// Hit/miss/hit-rate for one cache, from counter values in a snapshot.
fn cache_row(snap: &echo_obs::MetricsSnapshot, cache: &str) -> (u64, u64, f64) {
    let hits = snap.counter(&format!("{cache}.hit")).unwrap_or(0);
    let misses = snap.counter(&format!("{cache}.miss")).unwrap_or(0);
    let total = hits + misses;
    let rate = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    };
    (hits, misses, rate)
}

fn assert_bits_eq(label: &str, a: &[Vec<f64>], b: &[Vec<f64>]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.len(), y.len(), "{label}: width mismatch");
        for (p, q) in x.iter().zip(y.iter()) {
            assert_eq!(p.to_bits(), q.to_bits(), "{label}: bits diverged");
        }
    }
}

fn main() {
    banner(
        "feature_bench",
        "image→embedding and matched-filter hot paths",
        "standing perf gate: GEMM forward ≥ 4× naive; batch scales with \
         threads while staying bit-identical",
    );
    let simd_requested = std::env::var(echo_dsp::simd::SIMD_ENV).unwrap_or_else(|_| "auto".into());
    let simd_active = echo_dsp::simd::active().name();
    println!("SIMD dispatch: requested={simd_requested} active={simd_active}");
    let quick = quick_mode();
    let (reps, single_iters, batch_iters, mf_iters) = if quick {
        (2, 3, 1, 20)
    } else {
        (3, 20, 4, 200)
    };

    // ── image → embedding ────────────────────────────────────────────
    let fx = FeatureExtractor::paper_default();
    let image = bench_image(0);
    // Hold results in a sink so the optimiser cannot drop the work.
    let mut sink = 0.0f64;

    let naive_ns = time_ns(reps, single_iters, || {
        sink += fx.extract_reference(&image)[0];
    });
    let gemm_ns = time_ns(reps, single_iters, || {
        sink += fx.extract(&image)[0];
    });
    let mut scratch = ConvScratch::new();
    let gemm_scratch_ns = time_ns(reps, single_iters, || {
        sink += fx.extract_with_scratch(&image, &mut scratch)[0];
    });
    assert_bits_eq(
        "gemm vs naive",
        &[fx.extract(&image)],
        &[fx.extract_reference(&image)],
    );
    let single_speedup = naive_ns / gemm_ns;
    println!("single image → embedding (64×64 input):");
    println!("  naive reference : {:>12.0} ns", naive_ns);
    println!(
        "  im2col+GEMM     : {:>12.0} ns   ({single_speedup:.2}× vs naive)",
        gemm_ns
    );
    println!(
        "  + reused scratch: {:>12.0} ns   ({:.2}× vs naive)",
        gemm_scratch_ns,
        naive_ns / gemm_scratch_ns
    );

    // ── batch extraction across thread counts ────────────────────────
    let batch: Vec<GrayImage> = (0..16).map(bench_image).collect();
    let features = ImageFeatures::new();
    let reference = features.extract_batch_threaded(&batch, 1);
    let mut batch_rows = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nbatch of {} images → embeddings ({cores} core(s) available; \
         expect no scaling below 2):",
        batch.len()
    );
    for threads in [1usize, 4, 0] {
        let got = features.extract_batch_threaded(&batch, threads);
        assert_bits_eq("batch vs threads=1", &reference, &got);
        let ns = time_ns(reps, batch_iters, || {
            sink += features.extract_batch_threaded(&batch, threads)[0][0];
        });
        let label = if threads == 0 {
            "auto".into()
        } else {
            threads.to_string()
        };
        println!(
            "  threads={label:<5}: {:>12.0} ns/batch   ({:.2}× vs serial batch)",
            ns,
            batch_rows.first().map_or(1.0, |&(_, first)| first / ns)
        );
        batch_rows.push((label, ns));
    }

    // ── matched filter ───────────────────────────────────────────────
    let template: Vec<f64> = (0..96).map(|i| (i as f64 * 0.13).sin()).collect();
    let signal: Vec<f64> = (0..4_000)
        .map(|i| ((i * i) as f64 * 1.3e-4).sin())
        .collect();
    let mf_unplanned_ns = time_ns(reps, mf_iters, || {
        sink += matched_filter_unplanned(&signal, &template)[0];
    });
    let mf_packed_ns = time_ns(reps, mf_iters, || {
        sink += matched_filter(&signal, &template)[0];
    });
    let plan = MatchedFilterPlan::new(&template);
    let mut mf_scratch = CorrelationScratch::new();
    let mf_planned_ns = time_ns(reps, mf_iters, || {
        sink += plan.matched_filter_with(&signal, &mut mf_scratch)[0];
    });
    println!("\nmatched filter (4 000-sample capture, 96-sample chirp):");
    println!("  unplanned (pre-PR, 3 FFTs): {:>10.0} ns", mf_unplanned_ns);
    println!(
        "  packed-real (2 FFTs)      : {:>10.0} ns   ({:.2}× vs unplanned)",
        mf_packed_ns,
        mf_unplanned_ns / mf_packed_ns
    );
    println!(
        "  cached template + scratch : {:>10.0} ns   ({:.2}× vs unplanned)",
        mf_planned_ns,
        mf_unplanned_ns / mf_planned_ns
    );

    // ── end-to-end pipeline stage breakdown ──────────────────────────
    let stage_iters = if quick { 2 } else { 8 };
    let snap = pipeline_stage_snapshot(stage_iters);
    println!(
        "\npipeline stage breakdown ({stage_iters} cold-start train(s), \
         16×16 grid, 3 beeps):"
    );
    println!(
        "  {:<22} {:>6} {:>12} {:>12} {:>12}",
        "stage", "count", "mean µs", "min µs", "max µs"
    );
    let stages: Vec<&echo_obs::HistogramSnapshot> = snap
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("stage.") && h.count > 0)
        .collect();
    for h in &stages {
        println!(
            "  {:<22} {:>6} {:>12.1} {:>12.1} {:>12.1}",
            h.name,
            h.count,
            h.mean_ns().unwrap_or(0.0) / 1e3,
            h.min_ns.unwrap_or(0) as f64 / 1e3,
            h.max_ns.unwrap_or(0) as f64 / 1e3,
        );
    }
    const CACHES: [&str; 3] = ["steering_cache", "template_cache", "fft_plan_cache"];
    println!("  cache hit rates:");
    let mut cache_json = Vec::new();
    for cache in CACHES {
        let (hits, misses, rate) = cache_row(&snap, cache);
        println!(
            "    {cache:<16} {hits:>5} hits {misses:>5} misses   ({:.1}%)",
            rate * 100.0
        );
        cache_json.push(format!(
            "    {{\"name\": \"{}\", \"hits\": {hits}, \"misses\": {misses}, \
             \"hit_rate\": {rate:.4}}}",
            echo_obs::escape_json(cache)
        ));
    }
    // The distance and imaging stages are gated regression metrics
    // (`stage.distance.mean_ns` and `stage.imaging.mean_ns` in `cargo
    // xtask bench-check`), so they also go out as nested objects the
    // gate's dotted-path lookup can resolve.
    let stage_mean_ns = |name: &str| {
        stages
            .iter()
            .find(|h| h.name == name)
            .and_then(|h| h.mean_ns())
            .unwrap_or_else(|| {
                eprintln!("WARNING: no {name} samples in the snapshot");
                0.0
            })
    };
    let distance_mean_ns = stage_mean_ns("stage.distance");
    let imaging_mean_ns = stage_mean_ns("stage.imaging");
    let stage_json: Vec<String> = stages
        .iter()
        .map(|h| {
            format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"mean_ns\": {:.0}, \
                 \"min_ns\": {}, \"max_ns\": {}}}",
                echo_obs::escape_json(&h.name),
                h.count,
                h.mean_ns().unwrap_or(0.0),
                h.min_ns.unwrap_or(0),
                h.max_ns.unwrap_or(0)
            )
        })
        .collect();

    // ── anti-replay spatial check ────────────────────────────────────
    // The screen runs on every authentication attempt when enabled
    // (DESIGN.md §14), so its per-train cost is a gated regression
    // metric (`stage.spatial.mean_ns`). Timed over the images of a
    // 3-beep train at the deployed 32×32 grid.
    let spatial_cfg = echoimage_core::config::SpatialCheckConfig {
        enabled: true,
        ..Default::default()
    };
    let spatial_images = {
        let scene = Scene::new(SceneConfig::laboratory_quiet(11));
        let body = BodyModel::from_seed(29);
        let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 3, 0);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        run_or_exit(pipeline.images(&TrainRequest::new(&caps)), "imaging failed").images
    };
    let spatial_iters = if quick { 50 } else { 500 };
    let spatial_mean_ns = time_ns(reps, spatial_iters, || {
        sink += echoimage_core::spatial::train_spread(&spatial_cfg, &spatial_images).unwrap_or(0.0);
    });
    println!(
        "\nanti-replay spatial check (3-beep train, 32×32 images): {:.1} µs/train",
        spatial_mean_ns / 1e3
    );

    // ── serving path: micro-batched daemon e2e p99 ───────────────────
    // Deliberately the same load in quick and full mode: the committed
    // baseline and the CI smoke sample must measure the same thing for
    // `serve.p99_ns` to gate regressions rather than configuration.
    echo_obs::reset();
    let serve_spec = echo_serve::loadgen::LoadSpec {
        sessions: 200,
        qps: 400.0,
        tenants: 1,
        users_per_tenant: 1,
        beeps: 2,
        enroll_images: 20,
        image_side: 32,
    };
    let server = run_or_exit(
        echo_serve::server::ServerHandle::start(
            echo_serve::config::ServeConfig::default(),
            echo_serve::server::BindAddr::Tcp("127.0.0.1:0".into()),
        ),
        "serve bench: bind",
    );
    let serve_addr = run_or_exit(
        server.local_addr().ok_or("server has no TCP address"),
        "serve bench",
    );
    run_or_exit(
        echo_serve::loadgen::enroll_world(serve_addr, &serve_spec),
        "serve bench: enrol",
    );
    let serve_tallies = run_or_exit(
        echo_serve::loadgen::run_load(serve_addr, &serve_spec),
        "serve bench: load",
    );
    let serve_report = echo_serve::loadgen::report(serve_tallies, &echo_obs::snapshot());
    server.shutdown();
    let serve_p99_ns = serve_report.p99_ns.unwrap_or_else(|| {
        eprintln!("WARNING: no serve.e2e samples in the snapshot");
        0
    });
    println!(
        "\nserving path ({} sessions @ {:.0} QPS, {}-beep probes, default batch window):",
        serve_spec.sessions, serve_spec.qps, serve_spec.beeps
    );
    println!(
        "  achieved {:.0} QPS   p50 {:.2} ms   p99 {:.2} ms   mean batch {:.2}",
        serve_report.tallies.achieved_qps(),
        serve_report.p50_ns.unwrap_or(0) as f64 / 1e6,
        serve_p99_ns as f64 / 1e6,
        serve_report.mean_batch.unwrap_or(0.0),
    );

    // ── telemetry: Stats poll + Prometheus render ────────────────────
    // Timed over the windows the serve section just populated, so the
    // render walks realistic sketches rather than empty rings. The
    // gated number is the full cost a 1 Hz scraper or an `echo-top`
    // poll puts on the daemon's I/O thread: window snapshot → wire
    // report → JSON, plus the Prometheus text exposition.
    let stats_iters = if quick { 100 } else { 1_000 };
    let stats_render_ns = time_ns(reps, stats_iters, || {
        let report = echo_serve::stats::collect(None);
        let json = echo_serve::stats::report_to_json(&report);
        let snap = echo_obs::snapshot();
        let (global, tenants) = echo_obs::window::snapshot_windows();
        let mut text = echo_obs::export::prometheus_text(&snap);
        text.push_str(&echo_obs::export::prometheus_windows(&global, &tenants));
        sink += (json.len() + text.len()) as f64;
    });
    println!(
        "\ntelemetry stats poll (collect + JSON + Prometheus render): {:.1} µs",
        stats_render_ns / 1e3
    );

    // ── template store: candidate lookup at scale ────────────────────
    // Same population in quick and full mode, for the same reason as
    // the serve section: `store.lookup_p99_ns` gates regressions in the
    // prefilter and shard reader, not configuration drift.
    echo_obs::reset();
    let store_users = 65_536usize;
    let store_probes = 2_000usize;
    let store_dir = std::env::temp_dir().join(format!("echo-feature-bench-{}", std::process::id()));
    run_or_exit(
        std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string()),
        "store bench: tmp dir",
    );
    let t0 = Instant::now();
    let mut writer = echoimage_core::store::ShardWriter::new(&echo_bench::storegen::scaler());
    for t in echo_bench::storegen::population(store_users) {
        run_or_exit(writer.push(t), "store bench: push template");
    }
    let shard_path = store_dir.join("shard-000000.echoshard");
    run_or_exit(writer.write_to(&shard_path), "store bench: write shard");
    let store_build_ms = t0.elapsed().as_millis();
    let shard_bytes = std::fs::metadata(&shard_path).map(|m| m.len()).unwrap_or(0);
    let store = run_or_exit(
        echoimage_core::store::ShardStore::open_dir(&store_dir),
        "store bench: open shard dir",
    );
    use echoimage_core::store::TemplateStore as _;
    // Exact order statistics over the sorted sample (nearest-rank).
    let pct = |v: &[u64], p: f64| v[(((v.len() as f64) * p).ceil() as usize).clamp(1, v.len()) - 1];
    // Each probe is timed `store_reps` times and keeps its fastest run,
    // and the percentiles are taken over those per-probe minima — like
    // the kernel sections' best-of-reps, so one scheduler preemption
    // can't masquerade as a tail regression. The structural tail (the
    // probes that land in big cells) is exactly what survives.
    let store_reps = 3usize;
    let mut cand_total = 0usize;
    let mut lookup_ns: Vec<u64> = vec![u64::MAX; store_probes];
    for _ in 0..store_reps {
        for i in 0..store_probes as u64 {
            let user = echo_bench::storegen::splitmix(i) % store_users as u64;
            let xq: Vec<f32> = echo_bench::storegen::probe(user, 9_000 + i)
                .iter()
                .map(|&v| v as f32)
                .collect();
            let t = Instant::now();
            let cands = store.candidates(&xq, 16);
            let ns = t.elapsed().as_nanos() as u64;
            lookup_ns[i as usize] = lookup_ns[i as usize].min(ns);
            cand_total += cands.len();
        }
    }
    lookup_ns.sort_unstable();
    let store_lookup_p50_ns = pct(&lookup_ns, 0.50);
    let store_lookup_p99_ns = pct(&lookup_ns, 0.99);
    sink += cand_total as f64;
    let _ = std::fs::remove_dir_all(&store_dir);
    println!(
        "\ntemplate store ({store_users} users, mmap shard, \
         {store_probes} top-16 lookups × {store_reps} reps):"
    );
    println!(
        "  shard {:.1} MB built in {store_build_ms} ms   lookup p50 {:.1} µs   p99 {:.1} µs",
        shard_bytes as f64 / 1e6,
        store_lookup_p50_ns as f64 / 1e3,
        store_lookup_p99_ns as f64 / 1e3,
    );

    // ── artefact ─────────────────────────────────────────────────────
    let batch_json: Vec<String> = batch_rows
        .iter()
        .map(|(label, ns)| format!("    {{\"threads\": \"{label}\", \"ns_per_batch\": {ns:.0}}}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"feature_bench\",\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \
         \"simd\": {{\n    \"requested\": \"{}\",\n    \"active\": \"{}\"\n  }},\n  \
         \"single_image\": {{\n    \"naive_ns\": {naive_ns:.0},\n    \
         \"gemm_ns\": {gemm_ns:.0},\n    \"gemm_scratch_ns\": {gemm_scratch_ns:.0},\n    \
         \"speedup_vs_naive\": {single_speedup:.2}\n  }},\n  \
         \"batch_16_images\": [\n{}\n  ],\n  \
         \"matched_filter\": {{\n    \"unplanned_ns\": {mf_unplanned_ns:.0},\n    \
         \"packed_ns\": {mf_packed_ns:.0},\n    \"planned_ns\": {mf_planned_ns:.0},\n    \
         \"speedup_vs_unplanned\": {:.2}\n  }},\n  \
         \"stage\": {{\n    \"distance\": {{\"mean_ns\": {distance_mean_ns:.0}}},\n    \
         \"imaging\": {{\"mean_ns\": {imaging_mean_ns:.0}}},\n    \
         \"spatial\": {{\"mean_ns\": {spatial_mean_ns:.0}}}\n  }},\n  \
         \"serve\": {{\n    \"p99_ns\": {serve_p99_ns}\n  }},\n  \
         \"stats\": {{\n    \"render_ns\": {stats_render_ns:.0}\n  }},\n  \
         \"store\": {{\n    \"users\": {store_users},\n    \
         \"shard_bytes\": {shard_bytes},\n    \
         \"lookup_p50_ns\": {store_lookup_p50_ns},\n    \
         \"lookup_p99_ns\": {store_lookup_p99_ns}\n  }},\n  \
         \"stages\": [\n{}\n  ],\n  \
         \"caches\": [\n{}\n  ]\n}}\n",
        echo_obs::escape_json(&simd_requested),
        simd_active,
        batch_json.join(",\n"),
        mf_unplanned_ns / mf_planned_ns,
        stage_json.join(",\n"),
        cache_json.join(",\n"),
    );
    if let Some(out) = flag_value("--out").map(std::path::PathBuf::from) {
        // Explicit destination (the bench-regression gate): write the
        // sample wherever asked, quick or not, without touching the
        // committed baseline.
        if let Some(dir) = out.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&out, &json) {
            Ok(()) => println!("\nartefact: {}", out.display()),
            Err(e) => eprintln!("could not write {}: {e}", out.display()),
        }
    } else if quick {
        // Smoke runs have too few iterations to be worth recording;
        // keep the last full run's numbers in the artefact.
        println!("\n--quick: BENCH_features.json left untouched");
    } else {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let out = root.join("BENCH_features.json");
        match std::fs::write(&out, &json) {
            Ok(()) => println!("\nartefact: {}", out.display()),
            Err(e) => eprintln!("could not write {}: {e}", out.display()),
        }
    }

    // Defeat dead-code elimination of every timed body.
    if sink.is_nan() {
        println!("{sink}");
    }
    if single_speedup < 4.0 && !quick {
        eprintln!("WARNING: single-image speedup {single_speedup:.2}× below the 4× gate");
    }
    echo_bench::finish_metrics();
}
