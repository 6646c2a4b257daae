//! Extension — imaging-grid resolution sweep: how much resolution does
//! a 6-microphone array actually exploit?

use echo_bench::{artefact_note, banner, metrics_row, quick_mode, run_or_exit};
use echo_eval::experiments::ablation_grid;
use echo_eval::report;

fn main() {
    banner(
        "Ablations",
        "imaging-grid resolution over a fixed ±0.8 m plane",
        "the paper uses 180×180 cells of 1 cm; this build defaults to 32×32 of 5 cm",
    );
    let mut cfg = ablation_grid::Config::default();
    if quick_mode() {
        cfg.users = 2;
        cfg.spoofers = 1;
        cfg.grid_sizes = vec![8, 24];
        cfg.protocol.train_beeps = 8;
        cfg.protocol.test_beeps = 3;
    }
    let out = run_or_exit(ablation_grid::run(&cfg), "grid sweep failed");
    for p in &out.points {
        println!(
            "{}   ({:.1} cm cells)",
            metrics_row(&format!("{0}×{0}", p.grid_n), &p.metrics),
            p.grid_spacing * 100.0,
        );
        // Wall-clock timing goes to stderr: stdout and the artefact
        // stay byte-identical between seeded runs.
        eprintln!("{0}×{0}: ~{1:.1} ms/image", p.grid_n, p.ms_per_image);
    }
    match report::write_artefact("ablation_grid", &out) {
        Ok(p) => artefact_note(&p),
        Err(e) => eprintln!("could not write artefact: {e}"),
    }
    echo_bench::finish_metrics();
}
