//! Point-in-time registry snapshots and the streaming JSON exporter.
//!
//! The exporter writes straight into a `String` rather than building a
//! [`crate::json::Json`] tree; string escaping goes through the shared
//! [`crate::json::escape_json`] so metric names containing `"` or `\`
//! serialise identically here and in the trace exporters.

use crate::histogram::HistogramSnapshot;
use crate::json::escape_json as escape;
use crate::registry::{is_enabled, registry};

/// Every registered metric frozen at one point in time, sorted by name
/// within each kind.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub enabled: bool,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Takes a [`MetricsSnapshot`] of the process-wide registry.
pub fn snapshot() -> MetricsSnapshot {
    let mut counters: Vec<(String, u64)> = registry()
        .counters()
        .into_iter()
        .map(|(name, c)| (name.to_string(), c.get()))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));

    let mut gauges: Vec<(String, i64)> = registry()
        .gauges()
        .into_iter()
        .map(|(name, g)| (name.to_string(), g.get()))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));

    let mut histograms: Vec<(String, HistogramSnapshot)> = registry()
        .histograms()
        .into_iter()
        .map(|(name, h)| (name.to_string(), h.snapshot()))
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));

    MetricsSnapshot {
        enabled: is_enabled(),
        counters,
        gauges,
        histograms,
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

impl MetricsSnapshot {
    /// Value of the named counter at snapshot time, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of the named gauge at snapshot time, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The named histogram snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serialises the snapshot as pretty-printed JSON. Counters and
    /// gauges become name→value objects; each histogram carries count,
    /// sum/min/max/mean in ns, and a `buckets` array of
    /// `{"le_ns": bound-or-null, "count": n}` rows. Key order is sorted
    /// by metric name, so two snapshots of the same registry state
    /// serialise byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));

        out.push_str("  \"counters\": {");
        let rows: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("\n    \"{}\": {v}", escape(name)))
            .collect();
        if rows.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str(&rows.join(","));
            out.push_str("\n  },\n");
        }

        out.push_str("  \"gauges\": {");
        let rows: Vec<String> = self
            .gauges
            .iter()
            .map(|(name, v)| format!("\n    \"{}\": {v}", escape(name)))
            .collect();
        if rows.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str(&rows.join(","));
            out.push_str("\n  },\n");
        }

        out.push_str("  \"histograms\": [");
        let rows: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, h)| histogram_json(name, h))
            .collect();
        if rows.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str(&rows.join(","));
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

fn histogram_json(name: &str, h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .iter_buckets()
        .map(|(bound, count)| format!("{{\"le_ns\": {}, \"count\": {count}}}", opt_u64(bound)))
        .collect();
    let mean = h
        .mean_ns()
        .map_or_else(|| "null".into(), |m| format!("{m:.1}"));
    format!(
        "\n    {{\n      \"name\": \"{}\",\n      \"count\": {},\n      \
         \"sum_ns\": {},\n      \"min_ns\": {},\n      \"max_ns\": {},\n      \
         \"mean_ns\": {mean},\n      \"buckets\": [{}]\n    }}",
        escape(name),
        h.count,
        h.sum_ns,
        opt_u64(h.min_ns),
        opt_u64(h.max_ns),
        buckets.join(", ")
    )
}
