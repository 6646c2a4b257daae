//! `cargo xtask trace-report` — offline analysis of a flight-recorder
//! trace written by `--trace-out`.
//!
//! The input is the JSONL stream `echo_obs::export::trace_jsonl`
//! produces: span lines (hierarchical stage spans) and audit lines (one
//! per authentication decision), discriminated by `"type"`. The report
//! prints per-stage statistics with critical-path attribution, the
//! slowest traces, and every failed (rejected) authentication attempt.
//! `--chrome <out>` additionally re-exports the spans as Chrome
//! trace-event JSON loadable in Perfetto (`ui.perfetto.dev`).

use echo_obs::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::exit;

/// One span line, decoded from JSONL.
#[derive(Debug, Clone)]
struct Span {
    trace: u64,
    span: u64,
    parent: Option<u64>,
    name: String,
    lidx: u64,
    start_ns: u64,
    dur_ns: u64,
    seq: u64,
    attrs: Vec<(String, Json)>,
}

/// One audit line, decoded from JSONL.
#[derive(Debug, Clone)]
struct Audit {
    trace: u64,
    claimed_user: Option<u64>,
    retry_index: u64,
    degraded_mask: u64,
    rejected: bool,
    reject_reason: String,
}

pub fn trace_report(args: &[String]) {
    let mut file: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut top = 5usize;
    let mut selftest = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chrome" => chrome_out = Some(crate::required_value(&mut it, "--chrome")),
            "--top" => {
                let v = crate::required_value(&mut it, "--top");
                top = v.parse().unwrap_or_else(|_| {
                    eprintln!("--top wants a number, got `{v}`");
                    exit(2);
                });
            }
            "--selftest" => selftest = true,
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => {
                eprintln!("unknown trace-report argument `{other}`");
                exit(2);
            }
        }
    }
    if selftest {
        trace_report_selftest();
        return;
    }
    let Some(file) = file else {
        eprintln!("usage: cargo xtask trace-report <trace.jsonl> [--chrome <out>] [--top <n>]");
        exit(2);
    };
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("could not read {file}: {e}");
        exit(1);
    });
    let (spans, audits) = parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("could not parse {file}: {e}");
        exit(1);
    });
    print!("{}", render_report(&spans, &audits, top));
    if let Some(out) = chrome_out {
        write_chrome(&spans, Path::new(&out));
    }
}

/// Splits a JSONL document into decoded spans and audits, skipping
/// blank lines. Unknown `"type"` values are an error — the file is not
/// a flight-recorder trace. So is a span id that repeats within its
/// trace: the recorder derives ids from (parent, name, logical index),
/// so they are unique, and the critical-path walk relies on it.
fn parse_jsonl(text: &str) -> Result<(Vec<Span>, Vec<Audit>), String> {
    let mut spans = Vec::new();
    let mut audits = Vec::new();
    let mut span_lines: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = doc
            .get("type")
            .and_then(|t| match t {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
        match kind {
            "span" => {
                let span = decode_span(&doc, lineno + 1)?;
                if let Some(first) = span_lines.insert((span.trace, span.span), lineno + 1) {
                    return Err(format!(
                        "line {}: span {:016x} of trace {} repeats line {first}",
                        lineno + 1,
                        span.span,
                        span.trace
                    ));
                }
                spans.push(span);
            }
            "audit" => audits.push(decode_audit(&doc, lineno + 1)?),
            other => return Err(format!("line {}: unknown type `{other}`", lineno + 1)),
        }
    }
    Ok((spans, audits))
}

fn field_u64(doc: &Json, key: &str, lineno: usize) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("line {lineno}: missing numeric \"{key}\""))
}

fn field_str(doc: &Json, key: &str, lineno: usize) -> Result<String, String> {
    match doc.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("line {lineno}: missing string \"{key}\"")),
    }
}

/// Span/parent ids are 16-digit hex strings in the JSONL (64-bit hashes
/// exceed JSON's exact-integer range).
fn hex_id(doc: &Json, key: &str, lineno: usize) -> Result<Option<u64>, String> {
    match doc.get(key) {
        Some(Json::Str(s)) => u64::from_str_radix(s, 16)
            .map(Some)
            .map_err(|e| format!("line {lineno}: bad hex id \"{key}\": {e}")),
        Some(Json::Null) | None => Ok(None),
        Some(_) => Err(format!("line {lineno}: \"{key}\" is neither hex nor null")),
    }
}

fn decode_span(doc: &Json, lineno: usize) -> Result<Span, String> {
    let attrs = match doc.get("attrs") {
        Some(Json::Obj(members)) => members.clone(),
        _ => Vec::new(),
    };
    Ok(Span {
        trace: field_u64(doc, "trace", lineno)?,
        span: hex_id(doc, "span", lineno)?
            .ok_or_else(|| format!("line {lineno}: missing \"span\""))?,
        parent: hex_id(doc, "parent", lineno)?,
        name: field_str(doc, "name", lineno)?,
        lidx: field_u64(doc, "lidx", lineno)?,
        start_ns: field_u64(doc, "start_ns", lineno)?,
        dur_ns: field_u64(doc, "dur_ns", lineno)?,
        seq: field_u64(doc, "seq", lineno)?,
        attrs,
    })
}

fn decode_audit(doc: &Json, lineno: usize) -> Result<Audit, String> {
    Ok(Audit {
        trace: field_u64(doc, "trace", lineno)?,
        claimed_user: doc
            .get("claimed_user")
            .and_then(Json::as_f64)
            .map(|v| v as u64),
        retry_index: field_u64(doc, "retry_index", lineno)?,
        degraded_mask: field_u64(doc, "degraded_mask", lineno)?,
        // Anything that is not an accept counts as a failed attempt —
        // biometric rejects and serving-layer `overloaded` sheds alike.
        rejected: field_str(doc, "verdict", lineno)? != "accepted",
        reject_reason: field_str(doc, "reject_reason", lineno)?,
    })
}

/// Per-stage aggregate.
#[derive(Debug, Default, Clone)]
struct StageStats {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    /// Nanoseconds this stage contributed to critical paths: for every
    /// span on a trace's critical path (the root-to-leaf chain through
    /// the longest child at each level), its duration minus the chain
    /// child's duration.
    critical_ns: u64,
}

/// Walks each trace's critical path — from the root, repeatedly descend
/// into the child with the largest duration — and attributes each
/// chain node's *exclusive* time (duration minus the chosen child's) to
/// its stage.
fn attribute_critical_path(spans: &[Span], stats: &mut BTreeMap<String, StageStats>) {
    let mut children: BTreeMap<(u64, u64), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry((s.trace, parent)).or_default().push(s);
        }
    }
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let mut node = root;
        loop {
            let longest = children
                .get(&(node.trace, node.span))
                .and_then(|c| c.iter().max_by_key(|s| (s.dur_ns, s.seq)).copied());
            let child_ns = longest.map_or(0, |c| c.dur_ns);
            let entry = stats.entry(node.name.clone()).or_default();
            entry.critical_ns += node.dur_ns.saturating_sub(child_ns);
            match longest {
                Some(next) => node = next,
                None => break,
            }
        }
    }
}

/// Builds the textual report: per-stage table (sorted by critical-path
/// contribution), slowest traces, failed attempts.
fn render_report(spans: &[Span], audits: &[Audit], top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace report: {} spans, {} traces, {} audit records",
        spans.len(),
        {
            let mut traces: Vec<u64> = spans.iter().map(|s| s.trace).collect();
            traces.sort_unstable();
            traces.dedup();
            traces.len()
        },
        audits.len()
    );

    let mut stats: BTreeMap<String, StageStats> = BTreeMap::new();
    for s in spans {
        let entry = stats.entry(s.name.clone()).or_default();
        entry.count += 1;
        entry.total_ns += s.dur_ns;
        entry.max_ns = entry.max_ns.max(s.dur_ns);
    }
    attribute_critical_path(spans, &mut stats);

    let _ = writeln!(
        out,
        "\n  {:<28} {:>7} {:>12} {:>12} {:>12} {:>14}",
        "stage", "count", "total µs", "mean µs", "max µs", "critical µs"
    );
    let mut rows: Vec<(&String, &StageStats)> = stats.iter().collect();
    rows.sort_by(|a, b| b.1.critical_ns.cmp(&a.1.critical_ns).then(a.0.cmp(b.0)));
    for (name, s) in rows {
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>12.1} {:>12.1} {:>12.1} {:>14.1}",
            name,
            s.count,
            s.total_ns as f64 / 1e3,
            s.total_ns as f64 / s.count.max(1) as f64 / 1e3,
            s.max_ns as f64 / 1e3,
            s.critical_ns as f64 / 1e3,
        );
    }

    if let Some(serve) = render_serve_breakdown(spans) {
        out.push_str(&serve);
    }

    let mut roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    roots.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.trace.cmp(&b.trace)));
    if !roots.is_empty() {
        let _ = writeln!(out, "\n  slowest traces:");
        for root in roots.iter().take(top) {
            let _ = writeln!(
                out,
                "    trace {:<6} {:<28} {:>12.1} µs",
                root.trace,
                root.name,
                root.dur_ns as f64 / 1e3
            );
        }
    }

    let failed: Vec<&Audit> = audits.iter().filter(|a| a.rejected).collect();
    if failed.is_empty() {
        let _ = writeln!(out, "\n  failed attempts: none");
    } else {
        let _ = writeln!(out, "\n  failed attempts ({}):", failed.len());
        for a in failed.iter().take(top.max(failed.len().min(20))) {
            let claimed = a
                .claimed_user
                .map_or("unclaimed".to_string(), |u| format!("user {u}"));
            let _ = writeln!(
                out,
                "    trace {:<6} {:<12} retry {}  mask {:#b}  — {}",
                a.trace, claimed, a.retry_index, a.degraded_mask, a.reject_reason
            );
        }
    }
    out
}

/// Daemon-trace breakdown: for `serve.request` roots, splits the
/// summed end-to-end time into batcher wait (`serve.queue_wait`),
/// pipeline time (`serve.decide`), and the remainder (framing,
/// extraction batching, outbox writes). Answers the on-call question
/// "is serving latency queueing or compute?" without reading the full
/// stage table. `None` when the trace has no daemon spans.
fn render_serve_breakdown(spans: &[Span]) -> Option<String> {
    use std::fmt::Write as _;
    let (count, total_ns) = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "serve.request")
        .fold((0u64, 0u64), |(c, t), s| (c + 1, t + s.dur_ns));
    if count == 0 {
        return None;
    }
    let sum_of = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    };
    let wait_ns = sum_of("serve.queue_wait");
    let decide_ns = sum_of("serve.decide");
    let other_ns = total_ns.saturating_sub(wait_ns + decide_ns);
    let mut out = String::new();
    let _ = writeln!(out, "\n  serve e2e breakdown ({count} requests):");
    for (label, ns) in [
        ("batcher wait", wait_ns),
        ("pipeline (decide)", decide_ns),
        ("other (framing/batch/outbox)", other_ns),
    ] {
        let _ = writeln!(
            out,
            "    {:<30} {:>12.1} µs total {:>10.1} µs/req {:>6.1}%",
            label,
            ns as f64 / 1e3,
            ns as f64 / count as f64 / 1e3,
            100.0 * ns as f64 / total_ns.max(1) as f64,
        );
    }
    Some(out)
}

/// Re-exports the parsed spans through the canonical Chrome trace-event
/// serialiser, so the Perfetto file matches what the recorder itself
/// would emit.
fn write_chrome(spans: &[Span], out: &Path) {
    let events: Vec<echo_obs::SpanEvent> = spans
        .iter()
        .map(|s| echo_obs::SpanEvent {
            trace: s.trace,
            span: s.span,
            parent: s.parent.unwrap_or(0),
            // SpanEvent names are &'static str (recorder spans use
            // literals); a one-shot CLI leaks its handful of decoded
            // names to bridge the type.
            name: Box::leak(s.name.clone().into_boxed_str()),
            lidx: s.lidx,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            seq: s.seq,
            attrs: s
                .attrs
                .iter()
                .filter_map(|(k, v)| {
                    let key: &'static str = Box::leak(k.clone().into_boxed_str());
                    let value = match v {
                        Json::Bool(b) => echo_obs::trace::AttrValue::Bool(*b),
                        Json::Str(s) => echo_obs::trace::AttrValue::Str(s.clone()),
                        _ => echo_obs::trace::AttrValue::F64(v.as_f64()?),
                    };
                    Some((key, value))
                })
                .collect(),
        })
        .collect();
    let doc = echo_obs::export::chrome_trace_json(&events);
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(out, doc) {
        Ok(()) => println!("chrome trace: {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            exit(1);
        }
    }
}

/// A fixture covering every report feature: two traces (one with a
/// nested critical path), one accepted and one rejected audit.
const SELFTEST_JSONL: &str = concat!(
    "{\"type\":\"span\",\"trace\":1,\"seq\":0,\"span\":\"0000000000000010\",\"parent\":null,",
    "\"name\":\"auth.train\",\"lidx\":0,\"start_ns\":0,\"dur_ns\":10000,\"attrs\":{}}\n",
    "{\"type\":\"span\",\"trace\":1,\"seq\":1,\"span\":\"0000000000000020\",",
    "\"parent\":\"0000000000000010\",\"name\":\"stage.auth\",\"lidx\":0,\"start_ns\":100,",
    "\"dur_ns\":9000,\"attrs\":{\"accepted\":true}}\n",
    "{\"type\":\"span\",\"trace\":1,\"seq\":2,\"span\":\"0000000000000030\",",
    "\"parent\":\"0000000000000020\",\"name\":\"stage.imaging\",\"lidx\":0,\"start_ns\":200,",
    "\"dur_ns\":6000,\"attrs\":{\"grid_n\":32}}\n",
    "{\"type\":\"span\",\"trace\":2,\"seq\":0,\"span\":\"0000000000000040\",\"parent\":null,",
    "\"name\":\"auth.train\",\"lidx\":0,\"start_ns\":20000,\"dur_ns\":4000,\"attrs\":{}}\n",
    "{\"type\":\"span\",\"trace\":3,\"seq\":0,\"span\":\"0000000000000050\",\"parent\":null,",
    "\"name\":\"serve.request\",\"lidx\":0,\"start_ns\":30000,\"dur_ns\":8000,",
    "\"attrs\":{\"tenant\":1,\"op\":\"auth\"}}\n",
    "{\"type\":\"span\",\"trace\":3,\"seq\":1,\"span\":\"0000000000000060\",",
    "\"parent\":\"0000000000000050\",\"name\":\"serve.queue_wait\",\"lidx\":0,",
    "\"start_ns\":30100,\"dur_ns\":3000,\"attrs\":{}}\n",
    "{\"type\":\"span\",\"trace\":3,\"seq\":2,\"span\":\"0000000000000070\",",
    "\"parent\":\"0000000000000050\",\"name\":\"serve.decide\",\"lidx\":0,",
    "\"start_ns\":33200,\"dur_ns\":4000,\"attrs\":{}}\n",
    "{\"type\":\"audit\",\"trace\":1,\"seq\":1,\"claimed_user\":7,\"beeps\":3,",
    "\"votes\":[[7,3]],\"votes_needed\":2,\"best_gate_margin\":0.25,\"channels\":6,",
    "\"degraded_mask\":0,\"retry_index\":0,\"verdict\":\"accepted\",\"accepted_user\":7,",
    "\"reject_reason\":\"\"}\n",
    "{\"type\":\"audit\",\"trace\":2,\"seq\":2,\"claimed_user\":null,\"beeps\":3,",
    "\"votes\":[],\"votes_needed\":2,\"best_gate_margin\":null,\"channels\":6,",
    "\"degraded_mask\":5,\"retry_index\":1,\"verdict\":\"rejected\",\"accepted_user\":null,",
    "\"reject_reason\":\"spoofer gate rejected every beep\"}\n",
);

/// Proves the parser, the critical-path attribution and the report
/// renderer against the inline fixture, without touching the
/// filesystem.
fn trace_report_selftest() {
    let (spans, audits) = parse_jsonl(SELFTEST_JSONL).expect("selftest fixture must parse");
    assert_eq!(spans.len(), 7, "selftest: span count");
    assert_eq!(audits.len(), 2, "selftest: audit count");
    assert_eq!(spans[1].parent, Some(0x10), "selftest: hex parent decodes");

    let mut stats: BTreeMap<String, StageStats> = BTreeMap::new();
    attribute_critical_path(&spans, &mut stats);
    // Trace 1: root 10 000 − 9 000 exclusive; stage.auth 9 000 − 6 000;
    // stage.imaging 6 000 (leaf). Trace 2: root 4 000 (leaf).
    assert_eq!(stats["auth.train"].critical_ns, 1_000 + 4_000);
    assert_eq!(stats["stage.auth"].critical_ns, 3_000);
    assert_eq!(stats["stage.imaging"].critical_ns, 6_000);

    let report = render_report(&spans, &audits, 5);
    assert!(report.contains("7 spans, 3 traces, 2 audit records"));
    assert!(report.contains("stage.imaging"), "per-stage row present");
    assert!(report.contains("serve e2e breakdown (1 requests):"));
    // 3 µs of 8 µs queued, 4 µs deciding, 1 µs everything else.
    assert!(report.contains("batcher wait"), "serve breakdown row");
    assert!(report.contains("37.5%"), "batcher wait share:\n{report}");
    assert!(report.contains("50.0%"), "pipeline share:\n{report}");
    assert!(report.contains("slowest traces:"));
    assert!(
        report.contains("spoofer gate rejected every beep"),
        "rejected audit surfaces its reason"
    );
    println!("trace-report selftest passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span line with id `…aa` in `trace`, under `parent` (a quoted
    /// hex id or `null`).
    fn span_aa(trace: u64, parent: &str) -> String {
        format!(
            "{{\"type\":\"span\",\"trace\":{trace},\"seq\":0,\"span\":\"00000000000000aa\",\
             \"parent\":{parent},\"name\":\"auth.train\",\"lidx\":0,\"start_ns\":0,\
             \"dur_ns\":10,\"attrs\":{{}}}}\n"
        )
    }

    #[test]
    fn repeated_span_ids_are_an_error() {
        // A root `…aa` and a span `…aa` that names itself as parent: the
        // critical-path walk would follow it forever.
        let jsonl = span_aa(1, "null") + &span_aa(1, "\"00000000000000aa\"");
        let err = parse_jsonl(&jsonl).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("repeats line 1"), "{err}");
        // The same id in another trace is another span.
        let (spans, _) = parse_jsonl(&(span_aa(1, "null") + &span_aa(2, "null"))).unwrap();
        assert_eq!(spans.len(), 2);
    }
}
