//! Building [`StatsReport`]s: the bridge between the `echo-obs` window
//! substrate and the wire.
//!
//! [`collect`] runs on the I/O thread per `Stats` request; it only
//! reads the window mutex and a handful of atomics, so a stats poll
//! costs microseconds and never touches the batcher queue. Gate-margin
//! quantiles are computed here, server-side, from the window sketches —
//! sketches never cross the wire. Latency histograms do cross it, with
//! their extremes, and the reader computes latency quantiles from them.

use crate::protocol::{RollupStats, StatsReport, TenantStats};
use echo_obs::json::json_f64;
use echo_obs::window::{self, WindowRollup, WindowSnapshot, REJECT_LABELS};

fn rollup_stats(r: &WindowRollup) -> RollupStats {
    RollupStats {
        epochs: r.epochs,
        decisions: r.decisions,
        accepted: r.accepted,
        rejects: r.rejects,
        qps: r.qps,
        margin_p50: r.margins.quantile(0.5),
        margin_p99: r.margins.quantile(0.99),
        lat: r.lat.clone(),
    }
}

fn tenant_stats(w: &WindowSnapshot) -> TenantStats {
    TenantStats {
        tenant: w.tenant,
        epoch: w.epoch,
        drift: w.drift,
        cum: rollup_stats(&w.cum),
        windows: w.windows.iter().map(rollup_stats).collect(),
    }
}

/// Assembles a [`StatsReport`] from the live windows and registry.
/// `filter` restricts the per-tenant list to one tenant id (the global
/// window is always included).
pub fn collect(filter: Option<u64>) -> StatsReport {
    let (global, tenants) = window::snapshot_windows();
    let tenants: Vec<TenantStats> = tenants
        .iter()
        .filter(|w| filter.is_none() || w.tenant == filter)
        .map(tenant_stats)
        .collect();
    let queue_depth = echo_obs::registry().gauge("serve.queue_depth").get();
    let batch = echo_obs::histogram!("serve.batch_size").snapshot();
    let fill = echo_obs::histogram!("serve.batch_fill_pct").snapshot();
    StatsReport {
        epoch_len: window::epoch_len(),
        queue_depth,
        batch_count: batch.count,
        batch_sum: batch.sum_ns,
        fill_count: fill.count,
        fill_sum: fill.sum_ns,
        global: tenant_stats(&global),
        tenants,
    }
}

fn opt_f64_json(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), json_f64)
}

fn opt_u64_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

fn rollup_json(r: &RollupStats) -> String {
    let rejects: Vec<String> = REJECT_LABELS
        .iter()
        .zip(r.rejects.iter())
        .map(|(label, count)| format!("\"{label}\": {count}"))
        .collect();
    format!(
        "{{\"epochs\": {}, \"decisions\": {}, \"accepted\": {}, \"rejects\": {{{}}}, \
         \"qps\": {}, \"margin_p50\": {}, \"margin_p99\": {}, \"lat_count\": {}, \
         \"lat_mean_ns\": {}, \"lat_p50_ns\": {}, \"lat_p99_ns\": {}}}",
        r.epochs,
        r.decisions,
        r.accepted,
        rejects.join(", "),
        json_f64(r.qps),
        opt_f64_json(r.margin_p50),
        opt_f64_json(r.margin_p99),
        r.lat.count,
        opt_f64_json(r.lat.mean_ns()),
        opt_u64_json(r.lat.quantile_ns(0.5)),
        opt_u64_json(r.lat.quantile_ns(0.99)),
    )
}

fn tenant_json(t: &TenantStats) -> String {
    let windows: Vec<String> = t.windows.iter().map(rollup_json).collect();
    format!(
        "{{\"tenant\": {}, \"epoch\": {}, \"drift\": {}, \"cum\": {}, \"windows\": [{}]}}",
        t.tenant
            .map_or_else(|| "null".to_string(), |v| v.to_string()),
        t.epoch,
        opt_f64_json(t.drift),
        rollup_json(&t.cum),
        windows.join(", "),
    )
}

/// Serialises a [`StatsReport`] as a JSON document — the payload of
/// `echo-top --once --json`, asserted by the CI `obs-smoke` job.
/// Latency quantiles and means are precomputed so scripts don't need
/// the bucket ladder.
pub fn report_to_json(s: &StatsReport) -> String {
    let tenants: Vec<String> = s.tenants.iter().map(tenant_json).collect();
    let mean_batch = (s.batch_count > 0)
        .then(|| s.batch_sum as f64 / s.batch_count as f64)
        .map_or_else(|| "null".into(), json_f64);
    let mean_fill = (s.fill_count > 0)
        .then(|| s.fill_sum as f64 / s.fill_count as f64)
        .map_or_else(|| "null".into(), json_f64);
    format!(
        "{{\n  \"epoch_len\": {},\n  \"queue_depth\": {},\n  \"mean_batch\": {mean_batch},\n  \
         \"mean_fill_pct\": {mean_fill},\n  \"global\": {},\n  \"tenants\": [{}]\n}}\n",
        s.epoch_len,
        s.queue_depth,
        tenant_json(&s.global),
        tenants.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_obs::HistogramSnapshot;

    fn roll(decisions: u64) -> RollupStats {
        let mut lat = HistogramSnapshot::default();
        for _ in 0..decisions {
            lat.observe_ns(2_000_000);
        }
        RollupStats {
            epochs: 2,
            decisions,
            accepted: decisions / 2,
            rejects: [0, 0, 1, 2, 0],
            qps: 50.0,
            margin_p50: Some(-0.01),
            margin_p99: None,
            lat,
        }
    }

    #[test]
    fn report_json_is_wellformed_and_carries_tenants() {
        let report = StatsReport {
            epoch_len: 32,
            queue_depth: 3,
            batch_count: 4,
            batch_sum: 18,
            fill_count: 4,
            fill_sum: 290,
            global: TenantStats {
                tenant: None,
                epoch: 5,
                drift: None,
                cum: roll(20),
                windows: vec![roll(4), roll(12), roll(20)],
            },
            tenants: vec![TenantStats {
                tenant: Some(9),
                epoch: 5,
                drift: Some(0.03),
                cum: roll(20),
                windows: vec![roll(4), roll(12), roll(20)],
            }],
        };
        let json = report_to_json(&report);
        assert!(json.contains("\"tenant\": null"));
        assert!(json.contains("\"tenant\": 9"));
        assert!(json.contains("\"drift\": 0.03"));
        assert!(json.contains("\"mean_batch\": 4.5"));
        assert!(json.contains("\"mean_fill_pct\": 72.5"));
        assert!(json.contains("\"spoofer_gate\": 1"));
        assert!(json.contains("\"margin_p99\": null"));
        assert!(json.contains("\"lat_p99_ns\""));
        assert_eq!(json.matches('"').count() % 2, 0);
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
