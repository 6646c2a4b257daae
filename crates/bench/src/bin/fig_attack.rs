//! Extension — adversarial attack evaluation: replay and twin attacks
//! against the enrolled system, with the anti-replay spatial screen in
//! force (not in the paper; DESIGN.md §14).
//!
//! Exit status is the CI spoof gate: `--asr-ceiling <rate>` makes the
//! run fail (exit 1) when the population replay attack-success-rate at
//! the deployed spread ceiling exceeds `<rate>`. A `<rate>` that is not
//! a number in [0, 1] (`0.0x`, `NaN`, `2`) exits 2 before the run.

use echo_bench::{artefact_note, banner_with_flags, flag_value, quick_mode, run_or_exit};
use echo_eval::experiments::fig_attack;
use echo_eval::report;

fn main() {
    banner_with_flags(
        &["--asr-ceiling"],
        "Attack suite",
        "replay + twin attack-success-rate vs EER (extension)",
        "the paper evaluates zero-effort spoofers only",
    );
    let mut cfg = fig_attack::Config::default();
    if quick_mode() {
        cfg.users = 2;
        // Two probes per victim keep the within-subject fit estimable.
        cfg.probes = 2;
        cfg.population = 10_000;
        cfg.protocol.train_beeps = 8;
        cfg.protocol.test_beeps = 3;
        // The CI gate configuration asserts the collapse signature
        // under the conditions the screen is tuned for (free field,
        // free-field ceiling); the full run adds the shared room model
        // and reports how much margin reverberation costs.
        cfg.room = None;
        cfg.spatial = echoimage_core::config::SpatialCheckConfig {
            enabled: true,
            ..Default::default()
        };
    }
    let out = run_or_exit(fig_attack::run(&cfg), "attack evaluation failed");

    let a = &out.acoustic;
    println!(
        "acoustic tier: {} victims, {} genuine trains ({} rejected)",
        a.victims, a.genuine_trains, a.genuine_rejects
    );
    println!(
        "  replay: {}/{} accepted unscreened, {}/{} accepted screened  \
         (spread {:.3} genuine vs {:.3} replay, ceiling {:.3})",
        a.replay_accepts_unscreened,
        a.replay_attempts,
        a.replay_accepts_screened,
        a.replay_attempts,
        a.genuine_spread_mean,
        a.replay_spread_mean,
        out.spread_ceiling
    );
    println!(
        "  twin:   {}/{} accepted (radius matched to victim stature)",
        a.twin_accepts, a.twin_attempts
    );
    println!(
        "\n— population tier ({} subjects per side) —",
        cfg.population
    );
    for c in &out.curves {
        println!(
            "{:<8} channel {:<13} EER {:.4}  AUC {:.4}  ASR@op {:.4}  FRR@op {:.4}",
            c.kind.label(),
            c.channel,
            c.eer,
            c.auc,
            c.asr_at_operating_point,
            c.frr_at_operating_point
        );
    }
    println!(
        "replay combined ASR {:.4} (gate margin AND spread ceiling)",
        out.replay_combined_asr
    );
    println!(
        "\naudit pass: {} attempts — replay rejects {} ({} typed replay-signature), \
         twin rejects {} ({} typed)",
        out.audit.attempts,
        out.audit.replay_rejects,
        out.audit.replay_rejects_with_signature,
        out.audit.twin_rejects,
        out.audit.twin_rejects_typed
    );

    match report::write_artefact("fig_attack", &out) {
        Ok(p) => artefact_note(&p),
        Err(e) => eprintln!("could not write artefact: {e}"),
    }

    // `banner_with_flags` refused every value that is not a rate.
    let gate = flag_value("--asr-ceiling").and_then(|v| v.parse::<f64>().ok());
    echo_bench::finish_metrics();
    if let Some(ceiling) = gate {
        // A replay only succeeds when it clears BOTH the classifier
        // gate and the spatial screen; the combined rate is what the
        // deployment exposes, so that is what CI bounds.
        let replay_asr = out.replay_combined_asr;
        if replay_asr > ceiling {
            eprintln!("spoof gate: replay ASR {replay_asr:.4} exceeds ceiling {ceiling:.4}");
            std::process::exit(1);
        }
        println!("spoof gate: replay ASR {replay_asr:.4} within ceiling {ceiling:.4}");
    }
}
