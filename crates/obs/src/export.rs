//! Trace/audit exporters: JSONL for tooling, Chrome trace-event JSON
//! for Perfetto / `chrome://tracing`.
//!
//! The JSONL stream mixes span and audit lines, discriminated by a
//! `"type"` field, so one `--trace-out` file carries the whole flight
//! record. Span and parent ids are emitted as 16-digit hex *strings* —
//! they are full 64-bit hashes, and JSON numbers lose integer precision
//! past 2⁵³ in most consumers.

use crate::audit::{AuthAudit, AuthVerdict};
use crate::json::{escape_json, json_f64};
use crate::snapshot::MetricsSnapshot;
use crate::trace::{AttrValue, SpanEvent};
use crate::window::{WindowSnapshot, REJECT_LABELS, ROLLUP_SPANS};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// Writes `contents` to `path` atomically and durably: the bytes go to
/// a sibling temporary file first, are flushed and fsynced, and only
/// then renamed over the destination. A reader (or a crash, `kill -9`,
/// or an overloaded server shedding work mid-export) therefore sees
/// either the complete previous file or the complete new one — never a
/// truncated metrics snapshot or a torn half-written JSONL trace line.
///
/// On any error the destination is left exactly as it was and the
/// temporary file is cleaned up on a best-effort basis.
///
/// # Errors
///
/// Propagates the underlying I/O error (create, write, fsync or
/// rename), with the temporary path named in the message.
pub fn write_atomic<P: AsRef<Path>>(path: P, contents: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let cleanup_on = |e: io::Error, what: &str| {
        let _ = std::fs::remove_file(&tmp);
        io::Error::new(e.kind(), format!("{what} {}: {e}", tmp.display()))
    };
    let mut f = std::fs::File::create(&tmp)
        .map_err(|e| io::Error::new(e.kind(), format!("creating {}: {e}", tmp.display())))?;
    f.write_all(contents)
        .and_then(|()| f.flush())
        .map_err(|e| cleanup_on(e, "writing"))?;
    // Durability half of the contract: the data must be on disk before
    // the rename publishes it, or a power cut could publish an empty
    // file through the (metadata-ordered) rename.
    f.sync_all().map_err(|e| cleanup_on(e, "syncing"))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| cleanup_on(e, "renaming"))
}

fn attr_json(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => format!("{v}"),
        AttrValue::F64(v) => json_f64(*v),
        AttrValue::Bool(v) => format!("{v}"),
        AttrValue::Str(v) => format!("\"{}\"", escape_json(v)),
    }
}

fn attrs_json(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(key), attr_json(value));
    }
    out.push('}');
    out
}

/// One span as a JSONL line (no trailing newline).
pub fn span_to_json(ev: &SpanEvent) -> String {
    let parent = if ev.parent == 0 {
        "null".to_string()
    } else {
        format!("\"{:016x}\"", ev.parent)
    };
    format!(
        "{{\"type\":\"span\",\"trace\":{},\"seq\":{},\"span\":\"{:016x}\",\"parent\":{},\
         \"name\":\"{}\",\"lidx\":{},\"start_ns\":{},\"dur_ns\":{},\"attrs\":{}}}",
        ev.trace,
        ev.seq,
        ev.span,
        parent,
        escape_json(ev.name),
        ev.lidx,
        ev.start_ns,
        ev.dur_ns,
        attrs_json(&ev.attrs)
    )
}

/// One audit record as a JSONL line (no trailing newline).
pub fn audit_to_json(a: &AuthAudit) -> String {
    let tenant = match a.tenant {
        Some(t) => format!("{t}"),
        None => "null".to_string(),
    };
    let claimed = match a.claimed_user {
        Some(u) => format!("{u}"),
        None => "null".to_string(),
    };
    let votes = {
        let mut s = String::from("[");
        for (i, (user, count)) in a.votes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{user},{count}]");
        }
        s.push(']');
        s
    };
    let margin = match a.best_gate_margin {
        Some(m) => json_f64(m),
        None => "null".to_string(),
    };
    let (verdict, accepted_user) = match &a.verdict {
        AuthVerdict::Accepted { user_id } => ("accepted", format!("{user_id}")),
        AuthVerdict::Rejected => ("rejected", "null".to_string()),
        AuthVerdict::Overloaded => ("overloaded", "null".to_string()),
    };
    let coherence = match a.spatial_coherence {
        Some(c) => json_f64(c),
        None => "null".to_string(),
    };
    format!(
        "{{\"type\":\"audit\",\"trace\":{},\"seq\":{},\"tenant\":{},\"claimed_user\":{},\
         \"beeps\":{},\
         \"votes\":{},\"votes_needed\":{},\"best_gate_margin\":{},\"channels\":{},\
         \"degraded_mask\":{},\"retry_index\":{},\"verdict\":\"{}\",\"accepted_user\":{},\
         \"reject_kind\":\"{}\",\"reject_reason\":\"{}\",\"spatial_coherence\":{}}}",
        a.trace,
        a.seq,
        tenant,
        claimed,
        a.beeps,
        votes,
        a.votes_needed,
        margin,
        a.channels,
        a.degraded_mask,
        a.retry_index,
        verdict,
        accepted_user,
        a.reject_kind.label(),
        escape_json(&a.reject_reason),
        coherence
    )
}

/// Serialises spans then audits as a JSONL document (newline per line,
/// trailing newline included when non-empty).
pub fn trace_jsonl(spans: &[SpanEvent], audits: &[AuthAudit]) -> String {
    let mut out = String::new();
    for ev in spans {
        out.push_str(&span_to_json(ev));
        out.push('\n');
    }
    for a in audits {
        out.push_str(&audit_to_json(a));
        out.push('\n');
    }
    out
}

/// Serialises spans as a Chrome trace-event JSON document loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
///
/// Mapping: every trace becomes one "thread" (tid = trace id) in a
/// single process, every span a complete event (`ph: "X"`) with
/// microsecond timestamps, attributes in `args`. A metadata record
/// names each trace's row after its root span.
pub fn chrome_trace_json(spans: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"echoimage\"}}",
    );
    // One thread-name row per trace, labelled by its root span.
    let mut seen: Vec<u64> = Vec::new();
    for ev in spans {
        if ev.parent == 0 && !seen.contains(&ev.trace) {
            seen.push(ev.trace);
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"trace {} · {}\"}}}}",
                ev.trace,
                ev.trace,
                escape_json(ev.name)
            );
        }
    }
    for ev in spans {
        let ts_us = ev.start_ns as f64 / 1_000.0;
        let dur_us = (ev.dur_ns as f64 / 1_000.0).max(0.001);
        let mut args = format!("\"seq\":{},\"lidx\":{}", ev.seq, ev.lidx);
        for (key, value) in &ev.attrs {
            let _ = write!(args, ",\"{}\":{}", escape_json(key), attr_json(value));
        }
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"echoimage\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
            escape_json(ev.name),
            ev.trace,
            ts_us,
            dur_us,
            args
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Rewrites a dotted metric name into a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Dots and every other invalid character
/// become `_`; a leading digit gets a `_` prefix.
pub fn prometheus_sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label *value* for the Prometheus text exposition format:
/// backslash, double quote, and newline are escaped; everything else
/// passes through verbatim (the format is UTF-8).
pub fn prometheus_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Renders a [`MetricsSnapshot`] in the Prometheus text exposition
/// format (version 0.0.4): one `# HELP`/`# TYPE` pair per metric,
/// counters as `counter`, gauges as `gauge`, and latency histograms as
/// native Prometheus histograms with **cumulative** `_bucket{le="…"}`
/// series (bounds in nanoseconds), a `+Inf` bucket, `_sum` and
/// `_count`. Metric names are sanitised with
/// [`prometheus_sanitize_name`]; output is sorted by name, so equal
/// registry states render byte-identically.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = prometheus_sanitize_name(name);
        let _ = writeln!(out, "# HELP {n} Event counter `{}`.", escape_json(name));
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snap.gauges {
        let n = prometheus_sanitize_name(name);
        let _ = writeln!(out, "# HELP {n} Level gauge `{}`.", escape_json(name));
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, h) in &snap.histograms {
        let n = format!("{}_ns", prometheus_sanitize_name(name));
        let _ = writeln!(
            out,
            "# HELP {n} Latency histogram `{}` (nanoseconds).",
            escape_json(name)
        );
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.iter_buckets() {
            cumulative += count;
            let le: &dyn std::fmt::Display = bound.as_ref().map_or(&"+Inf", |b| b);
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_sum {}", h.sum_ns);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out
}

fn window_series(out: &mut String, snap: &WindowSnapshot) {
    let tenant = snap
        .tenant
        .map_or_else(|| "global".to_string(), |t| t.to_string());
    let t = prometheus_escape_label(&tenant);
    let _ = writeln!(out, "echo_tenant_epoch{{tenant=\"{t}\"}} {}", snap.epoch);
    let _ = writeln!(
        out,
        "echo_tenant_decisions_total{{tenant=\"{t}\"}} {}",
        snap.cum.decisions
    );
    let _ = writeln!(
        out,
        "echo_tenant_accepted_total{{tenant=\"{t}\"}} {}",
        snap.cum.accepted
    );
    for (label, &count) in REJECT_LABELS.iter().zip(snap.cum.rejects.iter()) {
        let _ = writeln!(
            out,
            "echo_tenant_rejects_total{{tenant=\"{t}\",kind=\"{}\"}} {count}",
            prometheus_escape_label(label)
        );
    }
    if let Some(drift) = snap.drift {
        let _ = writeln!(
            out,
            "echo_tenant_drift{{tenant=\"{t}\"}} {}",
            prom_f64(drift)
        );
    }
    for (span, w) in ROLLUP_SPANS.iter().zip(snap.windows.iter()) {
        let _ = writeln!(
            out,
            "echo_tenant_qps{{tenant=\"{t}\",window=\"{span}\"}} {}",
            prom_f64(w.qps)
        );
    }
    // Quantiles over the full retained window (64 epochs).
    let wide = &snap.windows[ROLLUP_SPANS.len() - 1];
    for q in [0.5, 0.99] {
        if let Some(m) = wide.margins.quantile(q) {
            let _ = writeln!(
                out,
                "echo_tenant_gate_margin{{tenant=\"{t}\",quantile=\"{q}\"}} {}",
                prom_f64(m)
            );
        }
        if let Some(ns) = wide.lat.quantile_ns(q) {
            let _ = writeln!(
                out,
                "echo_tenant_latency_ns{{tenant=\"{t}\",quantile=\"{q}\"}} {ns}"
            );
        }
    }
}

/// Renders the global and per-tenant [`WindowSnapshot`]s as
/// tenant-labelled Prometheus series (the global window gets
/// `tenant="global"`): decision/accept/reject totals, per-span QPS
/// gauges, drift scores, and wide-window gate-margin / latency
/// quantiles.
pub fn prometheus_windows(global: &WindowSnapshot, tenants: &[WindowSnapshot]) -> String {
    let mut out = String::new();
    let help: [(&str, &str, &str); 7] = [
        (
            "echo_tenant_epoch",
            "gauge",
            "Current logical epoch number.",
        ),
        (
            "echo_tenant_decisions_total",
            "counter",
            "Authentication decisions since window creation.",
        ),
        (
            "echo_tenant_accepted_total",
            "counter",
            "Accepted decisions since window creation.",
        ),
        (
            "echo_tenant_rejects_total",
            "counter",
            "Rejected decisions by kind since window creation.",
        ),
        (
            "echo_tenant_drift",
            "gauge",
            "PSI drift of live gate margins vs the enrolment reference.",
        ),
        (
            "echo_tenant_qps",
            "gauge",
            "Decisions per second over the trailing window (epochs).",
        ),
        (
            "echo_tenant_gate_margin",
            "gauge",
            "Gate-margin quantiles over the retained window.",
        ),
    ];
    for (name, kind, text) in help {
        let _ = writeln!(out, "# HELP {name} {text}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }
    let _ = writeln!(
        out,
        "# HELP echo_tenant_latency_ns End-to-end latency quantiles over the retained window."
    );
    let _ = writeln!(out, "# TYPE echo_tenant_latency_ns gauge");
    window_series(&mut out, global);
    for snap in tenants {
        window_series(&mut out, snap);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, span: u64, parent: u64, name: &'static str) -> SpanEvent {
        SpanEvent {
            trace,
            span,
            parent,
            name,
            lidx: 0,
            start_ns: 1_500,
            dur_ns: 2_000,
            seq: 0,
            attrs: vec![
                ("beeps", AttrValue::U64(3)),
                ("hit", AttrValue::Bool(true)),
                ("margin", AttrValue::F64(-0.5)),
            ],
        }
    }

    #[test]
    fn span_jsonl_line_is_wellformed() {
        let line = span_to_json(&span(1, 0xabc, 0, "root"));
        assert!(line.starts_with("{\"type\":\"span\""));
        assert!(line.contains("\"parent\":null"));
        assert!(line.contains("\"span\":\"0000000000000abc\""));
        assert!(line.contains("\"attrs\":{\"beeps\":3,\"hit\":true,\"margin\":-0.5}"));
        assert_eq!(line.matches('"').count() % 2, 0);
    }

    #[test]
    fn audit_jsonl_line_round_trips_reason() {
        let audit = AuthAudit {
            trace: 2,
            seq: 9,
            tenant: Some(4),
            claimed_user: None,
            beeps: 3,
            votes: vec![(1, 1), (4, 2)],
            votes_needed: 2,
            best_gate_margin: None,
            channels: 6,
            degraded_mask: 0b101,
            retry_index: 1,
            verdict: AuthVerdict::Rejected,
            reject_kind: crate::audit::RejectKind::NoMajority,
            reject_reason: "weird \"quoted\" reason".to_string(),
            spatial_coherence: Some(0.25),
        };
        let line = audit_to_json(&audit);
        assert!(line.contains("\"tenant\":4"));
        assert!(line.contains("\"claimed_user\":null"));
        assert!(line.contains("\"votes\":[[1,1],[4,2]]"));
        assert!(line.contains("\"best_gate_margin\":null"));
        assert!(line.contains("\"degraded_mask\":5"));
        assert!(line.contains("\"reject_kind\":\"no_majority\""));
        assert!(line.contains("\"spatial_coherence\":0.25"));
        assert!(line.contains("weird \\\"quoted\\\" reason"));
    }

    #[test]
    fn overloaded_verdict_serialises_distinctly() {
        let audit = AuthAudit {
            trace: 3,
            seq: 1,
            tenant: None,
            claimed_user: Some(9),
            beeps: 1,
            votes: vec![],
            votes_needed: 1,
            best_gate_margin: None,
            channels: 0,
            degraded_mask: 0,
            retry_index: 0,
            verdict: AuthVerdict::Overloaded,
            reject_kind: crate::audit::RejectKind::Overloaded,
            reject_reason: "overloaded: tenant 9 queue full (4/4)".to_string(),
            spatial_coherence: None,
        };
        let line = audit_to_json(&audit);
        assert!(line.contains("\"tenant\":null"));
        assert!(line.contains("\"verdict\":\"overloaded\""));
        assert!(line.contains("\"accepted_user\":null"));
        assert!(line.contains("\"reject_kind\":\"overloaded\""));
        assert!(line.contains("\"spatial_coherence\":null"));
        assert!(line.contains("queue full"));
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("echoimage-write-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        write_atomic(&path, b"{\"a\":1}\n").unwrap();
        write_atomic(&path, b"{\"a\":2}\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"a\":2}\n");
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(leftovers, 0, "temporary files must not survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Torn-write regression: a failed export must leave the previous
    /// complete file untouched — never a truncated or half-replaced one.
    #[test]
    fn write_atomic_failure_preserves_previous_contents() {
        let dir = std::env::temp_dir().join("echoimage-write-atomic-fail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let old = b"{\"type\":\"audit\",\"seq\":1}\n";
        write_atomic(&path, old).unwrap();
        // The temp file is created next to the destination; making the
        // destination a *directory* forces the final rename to fail
        // after the bytes were already written — the worst-case torn
        // moment for a non-atomic writer.
        let blocked = dir.join("blocked.jsonl");
        std::fs::create_dir_all(&blocked).unwrap();
        // Seed the would-be destination's directory form with a marker
        // file so we can verify nothing inside it was disturbed either.
        std::fs::write(blocked.join("marker"), b"x").unwrap();
        assert!(write_atomic(&blocked, b"new contents").is_err());
        assert_eq!(std::fs::read(blocked.join("marker")).unwrap(), b"x");
        // And the original file is still byte-identical.
        assert_eq!(std::fs::read(&path).unwrap(), old);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prometheus_text_renders_types_and_cumulative_buckets() {
        let mut e2e = crate::HistogramSnapshot::default();
        for ns in [500, 1_000, 2_000, 3_000, 5_000, 11_000_000_000] {
            e2e.observe_ns(ns);
        }
        e2e.sum_ns = 12_345;
        let snap = MetricsSnapshot {
            enabled: true,
            counters: vec![("auth.attempts".into(), 7)],
            gauges: vec![("serve.queue_depth".into(), -2)],
            histograms: vec![("serve.e2e".into(), e2e)],
        };
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE auth_attempts counter"));
        assert!(text.contains("auth_attempts 7"));
        assert!(text.contains("# TYPE serve_queue_depth gauge"));
        assert!(text.contains("serve_queue_depth -2"));
        assert!(text.contains("# TYPE serve_e2e_ns histogram"));
        assert!(text.contains("serve_e2e_ns_bucket{le=\"1000\"} 2"));
        assert!(
            text.contains("serve_e2e_ns_bucket{le=\"5000\"} 5"),
            "cumulative"
        );
        assert!(text.contains("serve_e2e_ns_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("serve_e2e_ns_sum 12345"));
        assert!(text.contains("serve_e2e_ns_count 6"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "malformed line: {line}");
        }
    }

    #[test]
    fn prometheus_name_and_label_rules() {
        assert_eq!(prometheus_sanitize_name("serve.p99_ns"), "serve_p99_ns");
        assert_eq!(prometheus_sanitize_name("9lives"), "_9lives");
        assert_eq!(prometheus_sanitize_name("a b\"c"), "a_b_c");
        assert_eq!(prometheus_escape_label("plain"), "plain");
        assert_eq!(prometheus_escape_label("a\\b"), "a\\\\b");
        assert_eq!(prometheus_escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(prometheus_escape_label("two\nlines"), "two\\nlines");
    }

    #[test]
    fn prometheus_windows_labels_tenants() {
        let _guard = crate::unit_test_lock();
        crate::window::reset_windows();
        crate::window::set_epoch_len(2);
        let audit = AuthAudit {
            trace: 0,
            seq: 0,
            tenant: Some(7),
            claimed_user: None,
            beeps: 3,
            votes: vec![],
            votes_needed: 2,
            best_gate_margin: Some(0.2),
            channels: 6,
            degraded_mask: 0,
            retry_index: 0,
            verdict: AuthVerdict::Accepted { user_id: 1 },
            reject_kind: crate::audit::RejectKind::None,
            reject_reason: String::new(),
            spatial_coherence: None,
        };
        for _ in 0..4 {
            crate::window::observe_decision(7, &audit);
            crate::window::observe_latency(7, 2_000);
        }
        let (global, tenants) = crate::window::snapshot_windows();
        let text = prometheus_windows(&global, &tenants);
        assert!(text.contains("# TYPE echo_tenant_drift gauge"));
        assert!(text.contains("echo_tenant_decisions_total{tenant=\"global\"} 4"));
        assert!(text.contains("echo_tenant_decisions_total{tenant=\"7\"} 4"));
        assert!(text.contains("echo_tenant_accepted_total{tenant=\"7\"} 4"));
        assert!(text.contains("echo_tenant_rejects_total{tenant=\"7\",kind=\"no_majority\"} 0"));
        assert!(text.contains("echo_tenant_gate_margin{tenant=\"7\",quantile=\"0.5\"}"));
        assert!(text.contains("echo_tenant_latency_ns{tenant=\"7\",quantile=\"0.99\"}"));
        crate::window::reset_windows();
    }

    #[test]
    fn chrome_export_contains_complete_events() {
        let spans = vec![
            span(1, 0x10, 0, "root"),
            span(1, 0x20, 0x10, "stage.imaging"),
        ];
        let doc = chrome_trace_json(&spans);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"stage.imaging\""));
        assert!(doc.contains("\"ts\":1.500"));
        assert!(doc.contains("thread_name"));
        assert!(doc.trim_end().ends_with("]}"));
    }
}
