//! `cargo xtask repro-gate` — the reproduction's headline numbers
//! against a committed golden.
//!
//! Runs the quick experiment binaries (`fig08_image_feasibility` has no
//! quick mode and runs at its own size), reads each headline out of its
//! `target/experiments/<bin>.json` artefact, and fails when one has
//! moved past its tolerance from [`GOLDEN`], or when a headline is
//! missing on either side. The binaries are seeded, so a rerun gives
//! the same numbers: a move is a change to the program, not noise.
//!
//! `--rebaseline <reason>` rewrites the golden from a fresh run instead,
//! and appends the reason, with every headline whose value changed, to
//! CHANGES.md. It refuses to run without a reason. Tolerances are set
//! in this file and recorded in the golden; the gate fails when the two
//! disagree, so an edit of the golden cannot widen one.

use echo_obs::json::Json;
use std::path::Path;
use std::process::{exit, Command, Stdio};

/// The committed golden, relative to the workspace root.
const GOLDEN: &str = "REPRO_quick.json";

/// Tolerance of a rate: accuracy, detection, recall, precision, F,
/// EER, AUC, ASR and FRR.
const RATE: f64 = 0.005;
/// Tolerance of a distance estimate, metres.
const METRES: f64 = 0.005;
/// Tolerance of an image similarity (Fig. 8).
const SIMILARITY: f64 = 0.002;

/// One headline number and the tolerance it is held to.
#[derive(Debug, Clone, PartialEq)]
struct Headline {
    name: String,
    value: f64,
    tol: f64,
}

fn headline(name: impl Into<String>, value: f64, tol: f64) -> Headline {
    Headline {
        name: name.into(),
        value,
        tol,
    }
}

/// One experiment binary, its arguments, and how to read its headlines
/// from its artefact (`None` when the artefact lacks a field).
struct Experiment {
    bin: &'static str,
    args: &'static [&'static str],
    headlines: fn(&Json) -> Option<Vec<Headline>>,
}

const EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        bin: "fig05_distance_feasibility",
        args: &["--quick"],
        headlines: fig05,
    },
    Experiment {
        bin: "fig08_image_feasibility",
        args: &[],
        headlines: fig08,
    },
    Experiment {
        bin: "fig11_confusion",
        args: &["--quick"],
        headlines: fig11,
    },
    Experiment {
        bin: "gate_roc",
        args: &["--quick"],
        headlines: gate_roc,
    },
    Experiment {
        bin: "fig12_environments",
        args: &["--quick"],
        headlines: fig12,
    },
    Experiment {
        bin: "fig13_distance",
        args: &["--quick"],
        headlines: fig13,
    },
    Experiment {
        bin: "fig14_augmentation",
        args: &["--quick"],
        headlines: fig14,
    },
    Experiment {
        bin: "fig_attack",
        args: &["--quick"],
        headlines: fig_attack,
    },
];

fn num(doc: &Json, path: &str) -> Option<f64> {
    doc.path(path)?.as_f64()
}

fn items<'a>(doc: &'a Json, key: &str) -> Option<&'a [Json]> {
    match doc.get(key)? {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

fn text<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    match doc.get(key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// Fig. 5: the slant and horizontal distance estimates.
fn fig05(doc: &Json) -> Option<Vec<Headline>> {
    Some(vec![
        headline("fig05.d_f_m", num(doc, "slant_distance")?, METRES),
        headline("fig05.d_p_m", num(doc, "horizontal_distance")?, METRES),
    ])
}

/// Fig. 8: same- and cross-user image similarity.
fn fig08(doc: &Json) -> Option<Vec<Headline>> {
    Some(vec![
        headline(
            "fig08.same_user",
            num(doc, "same_user_similarity")?,
            SIMILARITY,
        ),
        headline(
            "fig08.cross_user",
            num(doc, "cross_user_similarity")?,
            SIMILARITY,
        ),
    ])
}

/// Fig. 11: user identification and spoofer detection.
fn fig11(doc: &Json) -> Option<Vec<Headline>> {
    Some(vec![
        headline("fig11.user_id", num(doc, "user_identification")?, RATE),
        headline(
            "fig11.spoofer_detection",
            num(doc, "spoofer_detection")?,
            RATE,
        ),
    ])
}

/// The spoofer gate's ROC: EER and AUC.
fn gate_roc(doc: &Json) -> Option<Vec<Headline>> {
    Some(vec![
        headline("gate_roc.eer", num(doc, "eer")?, RATE),
        headline("gate_roc.auc", num(doc, "auc")?, RATE),
    ])
}

/// Fig. 12: the worst environment × noise cell's accuracy.
fn fig12(doc: &Json) -> Option<Vec<Headline>> {
    let worst = items(doc, "cells")?
        .iter()
        .map(|c| num(c, "metrics.accuracy"))
        .try_fold(f64::INFINITY, |w, a| Some(w.min(a?)))?;
    Some(vec![headline("fig12.worst_cell_accuracy", worst, RATE)])
}

/// Fig. 13: the F-measure at each distance and noise.
fn fig13(doc: &Json) -> Option<Vec<Headline>> {
    items(doc, "points")?
        .iter()
        .map(|p| {
            let name = format!("fig13.f.{}.{:.2}m", text(p, "noise")?, num(p, "distance")?);
            Some(headline(name, num(p, "metrics.f_measure")?, RATE))
        })
        .collect()
}

/// Fig. 14: recall and precision at each training size, without and
/// with augmentation.
fn fig14(doc: &Json) -> Option<Vec<Headline>> {
    let mut out = Vec::new();
    for p in items(doc, "points")? {
        let beeps = num(p, "train_beeps")?;
        for arm in ["without", "with"] {
            for metric in ["recall", "precision"] {
                let value = num(p, &format!("{arm}.{metric}"))?;
                out.push(headline(
                    format!("fig14.{beeps}_beeps.{arm}.{metric}"),
                    value,
                    RATE,
                ));
            }
        }
    }
    Some(out)
}

/// The attack suite: ASR and FRR at the operating point of every
/// population curve (replay and twin).
fn fig_attack(doc: &Json) -> Option<Vec<Headline>> {
    let mut out = Vec::new();
    for c in items(doc, "curves")? {
        let curve = format!(
            "fig_attack.{}.{}",
            text(c, "kind")?.to_lowercase(),
            text(c, "channel")?
        );
        out.push(headline(
            format!("{curve}.asr_at_op"),
            num(c, "asr_at_operating_point")?,
            RATE,
        ));
        out.push(headline(
            format!("{curve}.frr_at_op"),
            num(c, "frr_at_operating_point")?,
            RATE,
        ));
    }
    Some(out)
}

/// `cargo xtask repro-gate [--rebaseline <reason>]`.
pub fn repro_gate(args: &[String]) {
    let mut reason: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rebaseline" => reason = Some(crate::required_value(&mut it, "--rebaseline")),
            other => {
                eprintln!("unknown repro-gate flag `{other}`");
                exit(2);
            }
        }
    }
    if reason.as_ref().is_some_and(|r| r.trim().is_empty()) {
        eprintln!("--rebaseline needs a non-empty reason");
        exit(2);
    }

    let fresh = run_experiments();
    match reason {
        Some(reason) => rebaseline(&fresh, reason.trim()),
        None => {
            let golden = read_golden(Path::new(GOLDEN));
            print_table(&golden, &fresh);
            let failures = compare(&golden, &fresh);
            if failures.is_empty() {
                println!("repro-gate passed ({} headlines)", golden.len());
            } else {
                for f in &failures {
                    eprintln!("MOVED: {f}");
                }
                eprintln!(
                    "repro-gate failed ({} headline(s)). A deliberate move is \
                     `cargo xtask repro-gate --rebaseline \"<reason>\"`.",
                    failures.len()
                );
                exit(1);
            }
        }
    }
}

/// Builds the experiment binaries, runs each, and reads its headlines.
/// Each binary's stdout is kept under `target/repro-gate/`.
fn run_experiments() -> Vec<Headline> {
    crate::run(
        "build experiment bins (release)",
        &["build", "--release", "-q", "-p", "echo-bench", "--bins"],
        &[],
    );
    let out_dir = Path::new("target/repro-gate");
    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| {
        eprintln!("repro-gate: could not create {}: {e}", out_dir.display());
        exit(1);
    });
    let mut fresh = Vec::new();
    for exp in &EXPERIMENTS {
        println!("==> {} {}", exp.bin, exp.args.join(" "));
        // A binary that fails to write its artefact must not be read
        // through an earlier run's.
        let artefact = Path::new("target/experiments").join(format!("{}.json", exp.bin));
        let _ = std::fs::remove_file(&artefact);
        let stdout_path = out_dir.join(format!("{}.stdout", exp.bin));
        let stdout = std::fs::File::create(&stdout_path).unwrap_or_else(|e| {
            eprintln!(
                "repro-gate: could not create {}: {e}",
                stdout_path.display()
            );
            exit(1);
        });
        let status = Command::new(Path::new("target/release").join(exp.bin))
            .args(exp.args)
            .stdout(Stdio::from(stdout))
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("repro-gate: {} failed with {s}", exp.bin);
                exit(1);
            }
            Err(e) => {
                eprintln!("repro-gate: {} could not start: {e}", exp.bin);
                exit(1);
            }
        }
        let doc = parse_file(&artefact);
        let headlines = (exp.headlines)(&doc).unwrap_or_else(|| {
            eprintln!("repro-gate: {} lacks a headline field", artefact.display());
            exit(1);
        });
        fresh.extend(headlines);
    }
    fresh
}

fn parse_file(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("repro-gate: could not read {}: {e}", path.display());
        exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("repro-gate: could not parse {}: {e}", path.display());
        exit(1);
    })
}

fn read_golden(path: &Path) -> Vec<Headline> {
    let doc = parse_file(path);
    let parsed = match doc.get("headlines") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(name, h)| Some(headline(name.clone(), num(h, "value")?, num(h, "tol")?)))
            .collect::<Option<Vec<_>>>(),
        _ => None,
    };
    parsed.unwrap_or_else(|| {
        eprintln!(
            "repro-gate: {} wants `headlines: {{name: {{value, tol}}}}`",
            path.display()
        );
        exit(1);
    })
}

/// Every headline that moved past its tolerance, whose tolerance
/// differs from the golden's, or that is missing on either side. The
/// gate never shrinks silently: a headline the run no longer reports
/// fails as surely as one that moved.
fn compare(golden: &[Headline], fresh: &[Headline]) -> Vec<String> {
    let mut failures = Vec::new();
    for g in golden {
        match fresh.iter().find(|f| f.name == g.name) {
            Some(f) if f.tol != g.tol => failures.push(format!(
                "{}: tolerance ±{} here but ±{} in {GOLDEN}",
                g.name, f.tol, g.tol
            )),
            Some(f) if (f.value - g.value).abs() <= f.tol => {}
            Some(f) => failures.push(format!(
                "{}: {} vs golden {} (tolerance ±{})",
                g.name, f.value, g.value, g.tol
            )),
            None => failures.push(format!("{}: missing from the run", g.name)),
        }
    }
    for f in fresh {
        if !golden.iter().any(|g| g.name == f.name) {
            failures.push(format!("{}: missing from {GOLDEN}", f.name));
        }
    }
    failures
}

fn print_table(golden: &[Headline], fresh: &[Headline]) {
    println!(
        "{:<40} {:>9} {:>9} {:>9} {:>7}",
        "headline", "golden", "fresh", "delta", "tol"
    );
    for g in golden {
        match fresh.iter().find(|f| f.name == g.name) {
            Some(f) => println!(
                "{:<40} {:>9.4} {:>9.4} {:>+9.4} {:>7.3}",
                g.name,
                g.value,
                f.value,
                f.value - g.value,
                g.tol
            ),
            None => println!("{:<40} {:>9.4} {:>9}", g.name, g.value, "missing"),
        }
    }
}

/// Writes the fresh run as the golden and appends `reason`, with every
/// headline whose value changed, to CHANGES.md.
fn rebaseline(fresh: &[Headline], reason: &str) {
    let old = if Path::new(GOLDEN).exists() {
        read_golden(Path::new(GOLDEN))
    } else {
        Vec::new()
    };
    let doc = Json::Obj(vec![
        ("reason".into(), Json::Str(reason.into())),
        (
            "headlines".into(),
            Json::Obj(
                fresh
                    .iter()
                    .map(|h| {
                        let entry = Json::Obj(vec![
                            ("value".into(), Json::Float(h.value)),
                            ("tol".into(), Json::Float(h.tol)),
                        ]);
                        (h.name.clone(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    let text = doc.to_pretty().unwrap_or_else(|e| {
        eprintln!("repro-gate: a headline is not finite: {e}");
        exit(1);
    });
    if let Err(e) = echo_obs::export::write_atomic(Path::new(GOLDEN), (text + "\n").as_bytes()) {
        eprintln!("repro-gate: could not write {GOLDEN}: {e}");
        exit(1);
    }
    let line = changes_line(reason, &old, fresh);
    let appended = std::fs::OpenOptions::new()
        .append(true)
        .open("CHANGES.md")
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{line}\n").as_bytes()));
    if let Err(e) = appended {
        eprintln!("repro-gate: wrote {GOLDEN} but could not append to CHANGES.md: {e}");
        exit(1);
    }
    println!(
        "{GOLDEN} rewritten ({} headlines); CHANGES.md: {line}",
        fresh.len()
    );
}

/// The CHANGES.md line of a rebaseline: the reason, then each headline
/// whose value changed (old → new), flagging those past tolerance.
fn changes_line(reason: &str, old: &[Headline], fresh: &[Headline]) -> String {
    let moved: Vec<String> = fresh
        .iter()
        .filter_map(|f| match old.iter().find(|o| o.name == f.name) {
            Some(o) if o.value == f.value => None,
            Some(o) => {
                let (was, now) = (format!("{:.4}", o.value), format!("{:.4}", f.value));
                Some(if was == now {
                    format!("{} {was} ({:+.1e})", f.name, f.value - o.value)
                } else if (f.value - o.value).abs() > o.tol {
                    format!("{} {was} → {now} (past tolerance)", f.name)
                } else {
                    format!("{} {was} → {now}", f.name)
                })
            }
            None => Some(format!("{} new at {:.4}", f.name, f.value)),
        })
        .collect();
    let moved = if old.is_empty() {
        format!("{} headlines recorded", fresh.len())
    } else if moved.is_empty() {
        "no headline changed".to_string()
    } else {
        moved.join("; ")
    };
    format!("- repro-gate rebaseline of `{GOLDEN}`: {reason}. {moved}.")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Vec<Headline> {
        vec![
            headline("a", 0.5, RATE),
            headline("b", 0.676, METRES),
            headline("c", 0.99, SIMILARITY),
        ]
    }

    #[test]
    fn moves_inside_the_tolerance_pass() {
        let fresh = vec![
            headline("a", 0.504, RATE),
            headline("b", 0.672, METRES),
            headline("c", 0.9885, SIMILARITY),
        ];
        assert!(compare(&golden(), &fresh).is_empty());
    }

    #[test]
    fn a_move_past_the_tolerance_fails() {
        let mut fresh = golden();
        fresh[2].value += 0.0021;
        let failures = compare(&golden(), &fresh);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("c:"));
    }

    #[test]
    fn a_tolerance_edited_in_the_golden_fails() {
        let mut wide = golden();
        wide[0].tol = 0.05;
        assert_eq!(compare(&wide, &golden()).len(), 1);
    }

    #[test]
    fn a_headline_missing_on_either_side_fails() {
        let fresh = golden()[..2].to_vec();
        assert_eq!(compare(&golden(), &fresh).len(), 1);
        assert_eq!(compare(&fresh, &golden()).len(), 1);
    }

    #[test]
    fn extractors_read_the_artefact_fields() {
        let doc = Json::parse(
            r#"{"cells": [{"metrics": {"accuracy": 0.9}}, {"metrics": {"accuracy": 0.86}}],
                "points": [{"distance": 0.6, "noise": "quiet", "metrics": {"f_measure": 0.94}}]}"#,
        )
        .unwrap();
        assert_eq!(
            fig12(&doc).unwrap(),
            vec![headline("fig12.worst_cell_accuracy", 0.86, RATE)]
        );
        assert_eq!(
            fig13(&doc).unwrap(),
            vec![headline("fig13.f.quiet.0.60m", 0.94, RATE)]
        );
        assert!(fig05(&doc).is_none(), "a missing field is reported");
    }

    #[test]
    fn the_changes_line_names_every_changed_headline() {
        let mut fresh = golden();
        fresh[0].value = 0.51;
        fresh[1].value = 0.677;
        fresh[2].value += 1e-12;
        let line = changes_line("why", &golden(), &fresh);
        assert!(line.contains(": why. "), "{line}");
        assert!(
            line.contains("a 0.5000 → 0.5100 (past tolerance); "),
            "{line}"
        );
        assert!(line.contains("b 0.6760 → 0.6770; "), "{line}");
        assert!(line.contains("c 0.9900 (+1.0e-12)."), "{line}");
        assert!(changes_line("why", &golden(), &golden()).contains("no headline changed"));
        assert!(changes_line("why", &[], &golden()).ends_with("3 headlines recorded."));
    }
}
