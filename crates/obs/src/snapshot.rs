//! Point-in-time registry snapshots and the streaming JSON exporter.
//!
//! The exporter writes straight into a `String` rather than building a
//! [`crate::json::Json`] tree; string escaping goes through the shared
//! [`crate::json::escape_json`] so metric names containing `"` or `\`
//! serialise identically here and in the trace exporters.

use crate::json::escape_json as escape;
use crate::metrics::BUCKET_BOUNDS_NS;
use crate::registry::{is_enabled, registry};

/// One histogram frozen at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: Option<u64>,
    pub max_ns: Option<u64>,
    /// Counts per bucket; `buckets[i]` covers observations ≤
    /// [`BUCKET_BOUNDS_NS`]`[i]`, and the final entry is the overflow
    /// bucket (bound reported as `null` in JSON).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation in nanoseconds, or `None` before the first one.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, or `None`
    /// while the histogram is empty or `q` is out of range.
    ///
    /// The estimate walks the cumulative bucket counts to the bucket
    /// containing the requested rank and interpolates linearly inside
    /// it, with the bucket edges tightened to the observed `min`/`max`
    /// so single-bucket histograms report sensible values instead of a
    /// whole log-ladder decade. Coarse by construction — the ladder has
    /// 16 buckets — but monotone in `q` and good enough for the
    /// p50/p99/p999 the serving layer reports.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            let before = seen;
            seen += in_bucket;
            if seen < rank {
                continue;
            }
            // Nominal bucket edges from the ladder; the overflow bucket
            // is open-ended above the last bound.
            let lo = if i == 0 { 0 } else { BUCKET_BOUNDS_NS[i - 1] };
            let hi = BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX);
            // Tighten to what was actually observed.
            let lo = self.min_ns.map_or(lo, |m| lo.max(m));
            let hi = self.max_ns.map_or(hi, |m| hi.min(m)).max(lo);
            let frac = (rank - before) as f64 / in_bucket as f64;
            return Some(lo + ((hi - lo) as f64 * frac).round() as u64);
        }
        self.max_ns
    }
}

/// Every registered metric frozen at one point in time, sorted by name
/// within each kind.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub enabled: bool,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<HistogramSnapshot>,
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

    let mut histograms: Vec<HistogramSnapshot> = registry()
        .histograms()
        .into_iter()
        .map(|(name, h)| HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum_ns: h.sum_ns(),
            min_ns: h.min_ns(),
            max_ns: h.max_ns(),
            buckets: h.bucket_counts().to_vec(),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));

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
        self.histograms.iter().find(|h| h.name == name)
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
        let rows: Vec<String> = self.histograms.iter().map(histogram_json).collect();
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

fn histogram_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            let bound = BUCKET_BOUNDS_NS
                .get(i)
                .map_or_else(|| "null".into(), |b| b.to_string());
            format!("{{\"le_ns\": {bound}, \"count\": {count}}}")
        })
        .collect();
    let mean = h
        .mean_ns()
        .map_or_else(|| "null".into(), |m| format!("{m:.1}"));
    format!(
        "\n    {{\n      \"name\": \"{}\",\n      \"count\": {},\n      \
         \"sum_ns\": {},\n      \"min_ns\": {},\n      \"max_ns\": {},\n      \
         \"mean_ns\": {mean},\n      \"buckets\": [{}]\n    }}",
        escape(&h.name),
        h.count,
        h.sum_ns,
        opt_u64(h.min_ns),
        opt_u64(h.max_ns),
        buckets.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(buckets: Vec<u64>, min_ns: u64, max_ns: u64) -> HistogramSnapshot {
        let count = buckets.iter().sum();
        HistogramSnapshot {
            name: "t".into(),
            count,
            sum_ns: 0,
            min_ns: (count > 0).then_some(min_ns),
            max_ns: (count > 0).then_some(max_ns),
            buckets,
        }
    }

    #[test]
    fn quantile_of_empty_or_bad_q_is_none() {
        let h = hist(vec![0; BUCKET_BOUNDS_NS.len() + 1], 0, 0);
        assert_eq!(h.quantile_ns(0.5), None);
        let mut b = vec![0; BUCKET_BOUNDS_NS.len() + 1];
        b[0] = 1;
        let h = hist(b, 500, 500);
        assert_eq!(h.quantile_ns(-0.1), None);
        assert_eq!(h.quantile_ns(1.5), None);
    }

    #[test]
    fn quantile_is_monotone_and_bracketed_by_min_max() {
        // 10 obs ≤1µs, 80 in (1µs, 5µs], 10 in (5µs, 10µs].
        let mut b = vec![0u64; BUCKET_BOUNDS_NS.len() + 1];
        (b[0], b[1], b[2]) = (10, 80, 10);
        let h = hist(b, 800, 9_000);
        let p50 = h.quantile_ns(0.50).unwrap();
        let p99 = h.quantile_ns(0.99).unwrap();
        let p999 = h.quantile_ns(0.999).unwrap();
        assert!(p50 >= 800 && p999 <= 9_000, "{p50} {p999}");
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        // The median rank lands in the middle bucket.
        assert!((1_000..=5_000).contains(&p50), "{p50}");
    }

    #[test]
    fn single_bucket_histogram_stays_inside_observed_range() {
        let mut b = vec![0u64; BUCKET_BOUNDS_NS.len() + 1];
        b[6] = 100; // all obs in (500µs, 1ms]
        let h = hist(b, 700_000, 800_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile_ns(q).unwrap();
            assert!((700_000..=800_000).contains(&v), "q={q} → {v}");
        }
    }

    #[test]
    fn overflow_bucket_quantile_uses_observed_max() {
        let mut b = vec![0u64; BUCKET_BOUNDS_NS.len() + 1];
        *b.last_mut().unwrap() = 4; // beyond the 10s ladder top
        let h = hist(b, 11_000_000_000, 12_000_000_000);
        let v = h.quantile_ns(0.99).unwrap();
        assert!((11_000_000_000..=12_000_000_000).contains(&v), "{v}");
    }
}
