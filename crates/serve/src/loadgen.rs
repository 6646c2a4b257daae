//! Deterministic load generation against a running daemon.
//!
//! The generator builds a synthetic world of tenants and users whose
//! acoustic images are distinct low-frequency patterns with per-capture
//! jitter — the same (tenant, user, variant) triple always produces the
//! same image, so load runs are reproducible without any RNG state.
//! It enrols the world over the wire, then replays paced, pipelined
//! auth sessions at a target QPS from one open-loop sender while a
//! reader thread tallies responses.
//!
//! Latency percentiles are *not* measured here: they come from the
//! daemon's own `serve.e2e` histogram (see
//! [`crate::loadgen::report`]), so the numbers the load test prints are
//! the numbers the observability layer exports — one source of truth.

use crate::client::{Client, ClientError};
use crate::protocol::{Opcode, Request, StatsReport, Status};
use echo_ml::GrayImage;
use echo_obs::MetricsSnapshot;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Shape of a load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// Auth sessions to replay.
    pub sessions: usize,
    /// Target aggregate arrival rate.
    pub qps: f64,
    /// Tenants in the world (requests round-robin across them).
    pub tenants: u64,
    /// Enrolled users per tenant.
    pub users_per_tenant: u64,
    /// Images per auth request (the beep train length).
    pub beeps: usize,
    /// Enrolment captures per user.
    pub enroll_images: usize,
    /// Image side in pixels.
    pub image_side: usize,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            sessions: 2000,
            qps: 600.0,
            tenants: 2,
            users_per_tenant: 2,
            beeps: 3,
            enroll_images: 30,
            image_side: 32,
        }
    }
}

/// Raw outcome tallies of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTallies {
    pub sessions: usize,
    pub accepted: u64,
    pub rejected: u64,
    pub overloaded: u64,
    pub errors: u64,
    /// First send to last response.
    pub wall_s: f64,
}

impl LoadTallies {
    /// Sessions per second actually completed.
    pub fn achieved_qps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sessions as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// The load test's summary: tallies plus the serving histograms'
/// latency and batching view.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    pub tallies: LoadTallies,
    /// `serve.e2e` quantiles (admission → response encoded).
    pub p50_ns: Option<u64>,
    pub p99_ns: Option<u64>,
    pub p999_ns: Option<u64>,
    /// Mean and max of `serve.batch_size` — the direct evidence that
    /// micro-batching actually coalesced concurrent requests.
    pub mean_batch: Option<f64>,
    pub max_batch: Option<u64>,
}

impl LoadReport {
    /// Hand-rolled JSON (all fields numeric; `null` for absent).
    pub fn to_json(&self) -> String {
        fn opt_u(v: Option<u64>) -> String {
            v.map_or_else(|| "null".into(), |v| v.to_string())
        }
        let t = &self.tallies;
        format!(
            "{{\n  \"sessions\": {},\n  \"accepted\": {},\n  \"rejected\": {},\n  \
             \"overloaded\": {},\n  \"errors\": {},\n  \"wall_s\": {:.3},\n  \
             \"achieved_qps\": {:.1},\n  \"p50_ns\": {},\n  \"p99_ns\": {},\n  \
             \"p999_ns\": {},\n  \"mean_batch\": {},\n  \"max_batch\": {}\n}}\n",
            t.sessions,
            t.accepted,
            t.rejected,
            t.overloaded,
            t.errors,
            t.wall_s,
            t.achieved_qps(),
            opt_u(self.p50_ns),
            opt_u(self.p99_ns),
            opt_u(self.p999_ns),
            self.mean_batch
                .map_or_else(|| "null".into(), |m| format!("{m:.2}")),
            opt_u(self.max_batch),
        )
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Triangular wave on [0, 1) — a cheap, fully deterministic stand-in
/// for a sinusoid.
fn tri(t: f64) -> f64 {
    let f = t - t.floor();
    1.0 - (2.0 * f - 1.0).abs()
}

/// The deterministic synthetic capture for `(tenant, user, variant)`:
/// a user-specific oriented ramp pattern plus small per-variant sway,
/// standing in for the acoustic image of that user's body at that
/// moment.
///
/// The per-capture variation is deliberately **low-dimensional** —
/// a small phase shift and amplitude change of the whole pattern, like
/// the global image change a swaying body produces — plus only a tiny
/// per-pixel noise floor. Independent per-pixel noise would put every
/// fresh capture on its own orthogonal shell in feature space (the
/// high-dimensional concentration effect) and no domain description
/// could wrap it; a low-dimensional sway manifold is what enrolment
/// actually samples and what fresh probes interpolate inside.
pub fn synth_image(tenant: u64, user: u64, variant: u64, side: usize) -> GrayImage {
    let seed = splitmix(tenant.wrapping_mul(0x51A7_637B).wrapping_add(user));
    let fx = (seed % 4) as f64 + 1.0;
    let fy = ((seed >> 8) % 4) as f64 + 1.0;
    let phase = ((seed >> 16) & 0xFFFF) as f64 / 65536.0;
    let sway = splitmix(seed ^ splitmix(variant));
    let dphase = ((sway & 0xFFFF) as f64 / 65536.0 - 0.5) * 0.08;
    let amp = 1.0 + (((sway >> 16) & 0xFFFF) as f64 / 65536.0 - 0.5) * 0.1;
    GrayImage::from_fn(side, side, |x, y| {
        let u = x as f64 / side as f64;
        let v = y as f64 / side as f64;
        let base = amp * tri(fx * u + fy * v + phase + dphase);
        let j = splitmix(seed ^ splitmix(variant) ^ (((x as u64) << 32) | y as u64));
        base + ((j & 0xFFFF) as f64 / 65536.0 - 0.5) * 0.01
    })
}

/// Enrols every user of every tenant in `spec` over the wire.
///
/// # Errors
///
/// [`ClientError`] on transport failure; a non-`Ok` enrol response
/// surfaces as an [`ClientError::Io`] of kind `InvalidData` naming the
/// server's reason.
pub fn enroll_world(addr: SocketAddr, spec: &LoadSpec) -> Result<(), ClientError> {
    let mut client = Client::connect_tcp(addr)?;
    let mut rid = 1_000_000u64;
    for tenant in 0..spec.tenants {
        for user in 1..=spec.users_per_tenant {
            let images: Vec<GrayImage> = (0..spec.enroll_images as u64)
                .map(|v| synth_image(tenant, user, v, spec.image_side))
                .collect();
            rid += 1;
            let resp = client.call(&Request {
                op: Opcode::Enroll,
                request_id: rid,
                tenant,
                user,
                images,
            })?;
            if resp.status != Status::Ok {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "enrol of tenant {tenant} user {user} failed: {}",
                        resp.reason
                    ),
                )));
            }
        }
    }
    Ok(())
}

/// Replays `spec.sessions` paced auth sessions against `addr` and
/// tallies the responses. Open-loop: the sender never waits for a
/// response, so the offered rate tracks `spec.qps` even when the
/// server queues.
///
/// # Errors
///
/// [`ClientError`] when the connection fails or the server stops
/// responding (10 s read timeout).
pub fn run_load(addr: SocketAddr, spec: &LoadSpec) -> Result<LoadTallies, ClientError> {
    let sender_client = Client::connect_tcp(addr)?;
    let mut reader_client = sender_client.try_clone()?;
    reader_client.set_read_timeout(Some(Duration::from_secs(10)))?;

    let sessions = spec.sessions;
    let reader = std::thread::Builder::new()
        .name("load-reader".into())
        .spawn(move || -> Result<(u64, u64, u64, u64), ClientError> {
            let (mut acc, mut rej, mut over, mut err) = (0u64, 0u64, 0u64, 0u64);
            for _ in 0..sessions {
                match reader_client.recv()?.status {
                    Status::Accepted => acc += 1,
                    Status::Rejected => rej += 1,
                    Status::Overloaded => over += 1,
                    Status::Error | Status::Ok => err += 1,
                }
            }
            Ok((acc, rej, over, err))
        })
        .map_err(ClientError::Io)?;

    let mut sender = sender_client;
    let start = Instant::now();
    for i in 0..sessions {
        let due = start + Duration::from_secs_f64(i as f64 / spec.qps);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let tenant = i as u64 % spec.tenants;
        let user = (i as u64 / spec.tenants) % spec.users_per_tenant + 1;
        let images: Vec<GrayImage> = (0..spec.beeps as u64)
            .map(|b| synth_image(tenant, user, 1_000 + i as u64 * 8 + b, spec.image_side))
            .collect();
        sender.send(&Request {
            op: Opcode::Auth,
            request_id: i as u64,
            tenant,
            user,
            images,
        })?;
    }

    let (accepted, rejected, overloaded, errors) = reader
        .join()
        .map_err(|_| ClientError::Closed)
        .and_then(|r| r)?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(LoadTallies {
        sessions,
        accepted,
        rejected,
        overloaded,
        errors,
        wall_s,
    })
}

/// Fetches one [`StatsReport`] from the daemon at `addr` over the
/// wire (all tenants).
///
/// # Errors
///
/// [`ClientError`] on transport failure; a non-`Ok` status or a
/// response without a stats block surfaces as an [`ClientError::Io`]
/// of kind `InvalidData`.
pub fn fetch_stats(addr: SocketAddr) -> Result<StatsReport, ClientError> {
    let mut client = Client::connect_tcp(addr)?;
    let resp = client.call(&Request {
        op: Opcode::Stats,
        request_id: 0,
        tenant: u64::MAX,
        user: u64::MAX,
        images: Vec::new(),
    })?;
    let invalid =
        |msg: String| ClientError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
    if resp.status != Status::Ok {
        return Err(invalid(format!("stats request failed: {}", resp.reason)));
    }
    resp.stats
        .ok_or_else(|| invalid("stats response carried no stats block".into()))
}

/// Builds the load summary from **deltas between two [`StatsReport`]s**
/// bracketing the run, so back-to-back runs in one process (or against
/// one long-lived daemon) never contaminate each other through the
/// cumulative process-wide histograms. The per-flush `max_batch` is not
/// part of the stats block, so it is `None` here; the batching evidence
/// is the delta mean.
pub fn report_from_stats(
    tallies: LoadTallies,
    before: &StatsReport,
    after: &StatsReport,
) -> LoadReport {
    let lat = after.global.cum.lat.delta_since(&before.global.cum.lat);
    let batch_count = after.batch_count.saturating_sub(before.batch_count);
    let batch_sum = after.batch_sum.saturating_sub(before.batch_sum);
    LoadReport {
        tallies,
        p50_ns: lat.quantile_ns(0.50),
        p99_ns: lat.quantile_ns(0.99),
        p999_ns: lat.quantile_ns(0.999),
        mean_batch: (batch_count > 0).then(|| batch_sum as f64 / batch_count as f64),
        max_batch: None,
    }
}

/// Combines run tallies with the daemon's own **cumulative** histograms
/// into the summary the bench harness reads. Only valid when nothing
/// else has driven the serving histograms in this process; the load
/// test itself uses [`report_from_stats`].
pub fn report(tallies: LoadTallies, snapshot: &MetricsSnapshot) -> LoadReport {
    let e2e = snapshot.histogram("serve.e2e");
    let batch = snapshot.histogram("serve.batch_size");
    LoadReport {
        tallies,
        p50_ns: e2e.and_then(|h| h.quantile_ns(0.50)),
        p99_ns: e2e.and_then(|h| h.quantile_ns(0.99)),
        p999_ns: e2e.and_then(|h| h.quantile_ns(0.999)),
        mean_batch: batch.and_then(|h| h.mean_ns()),
        max_batch: batch.and_then(|h| h.max_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_images_are_deterministic_and_user_distinct() {
        let a = synth_image(0, 1, 5, 16);
        let b = synth_image(0, 1, 5, 16);
        assert_eq!(a, b);
        let other_user = synth_image(0, 2, 5, 16);
        assert_ne!(a, other_user);
        let other_variant = synth_image(0, 1, 6, 16);
        assert_ne!(a, other_variant);
    }

    #[test]
    fn stats_report_deltas_ignore_prior_runs() {
        use crate::protocol::{RollupStats, TenantStats};
        use echo_obs::HistogramSnapshot;

        fn rollup(lat: HistogramSnapshot) -> RollupStats {
            RollupStats {
                epochs: 1,
                decisions: lat.count,
                accepted: lat.count,
                rejects: [0; 5],
                qps: 0.0,
                margin_p50: None,
                margin_p99: None,
                lat,
            }
        }
        fn snap(lat: HistogramSnapshot, batch_count: u64, batch_sum: u64) -> StatsReport {
            StatsReport {
                epoch_len: 32,
                queue_depth: 0,
                batch_count,
                batch_sum,
                fill_count: 0,
                fill_sum: 0,
                global: TenantStats {
                    tenant: None,
                    epoch: 0,
                    drift: None,
                    cum: rollup(lat),
                    windows: Vec::new(),
                },
                tenants: Vec::new(),
            }
        }

        // A "previous run" left 100 very slow observations behind.
        let mut stale = HistogramSnapshot::default();
        for _ in 0..100 {
            stale.observe_ns(900_000_000);
        }
        let mut after_lat = stale.clone();
        for _ in 0..50 {
            after_lat.observe_ns(1_000_000);
        }
        let tallies = LoadTallies {
            sessions: 50,
            accepted: 50,
            rejected: 0,
            overloaded: 0,
            errors: 0,
            wall_s: 1.0,
        };
        let before = snap(stale, 40, 200);
        let after = snap(after_lat, 50, 250);
        let r = report_from_stats(tallies, &before, &after);
        // Only this run's 1 ms observations survive the delta; the
        // stale 900 ms tail from the earlier run is subtracted out.
        assert!(r.p99_ns.unwrap() < 100_000_000, "{:?}", r.p99_ns);
        assert_eq!(r.mean_batch, Some(5.0));
        assert_eq!(r.max_batch, None);
    }

    #[test]
    fn report_serialises_null_for_missing_histograms() {
        let r = report(
            LoadTallies {
                sessions: 10,
                accepted: 9,
                rejected: 1,
                overloaded: 0,
                errors: 0,
                wall_s: 0.5,
            },
            &MetricsSnapshot {
                enabled: true,
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
            },
        );
        let json = r.to_json();
        assert!(json.contains("\"p99_ns\": null"), "{json}");
        assert!(json.contains("\"achieved_qps\": 20.0"), "{json}");
    }
}
