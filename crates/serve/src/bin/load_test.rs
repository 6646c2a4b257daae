//! Load-tests the daemon: replay thousands of simulated auth sessions
//! at a target QPS and report latency/batching from the daemon's own
//! histograms.
//!
//! ```text
//! load_test [--sessions N] [--qps F] [--beeps N] [--tenants N] [--users N]
//!           [--window-us N] [--max-batch N] [--queue-bound N] [--threads N]
//!           [--metrics-out PATH] [--quick] [--connect ADDR]
//! ```
//!
//! The in-process daemon's batching knobs default to
//! [`ServeConfig::default`]: a zero window (the batcher flushes as soon
//! as it is free), flushes of at most 32 requests and 256 queued jobs
//! per tenant. `decided_qps` in the report counts the requests the
//! daemon decided per second; `achieved_qps` counts every session,
//! shed and errored ones included.
//!
//! By default the server runs in-process on an ephemeral TCP port;
//! `--connect ADDR` drives an already-running daemon instead. Either
//! way the reported latency and batching numbers come from **`Stats`
//! snapshots bracketing the run** (delta of the daemon's cumulative
//! histograms), so back-to-back runs against one process never
//! contaminate each other. The run self-checks: it fails (non-zero
//! exit) if any request errored or the p99 is missing, which is what
//! the CI smoke leans on.

use echo_serve::config::ServeConfig;
use echo_serve::loadgen::{self, LoadSpec};
use echo_serve::server::{BindAddr, ServerHandle};
use std::process::ExitCode;
use std::time::Duration;

fn flag_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        return None;
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}: `{v}` is not a valid value")),
    }
}

fn run() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = take_flag(&mut args, "--quick");
    let default_sessions = if quick { 200 } else { 2000 };
    let mut spec = LoadSpec {
        sessions: parse_flag(&mut args, "--sessions", default_sessions)?,
        qps: parse_flag(&mut args, "--qps", 600.0)?,
        beeps: parse_flag(&mut args, "--beeps", LoadSpec::default().beeps)?,
        tenants: parse_flag(&mut args, "--tenants", 2)?,
        users_per_tenant: parse_flag(&mut args, "--users", 2)?,
        ..LoadSpec::default()
    };
    spec.tenants = spec.tenants.max(1);
    spec.users_per_tenant = spec.users_per_tenant.max(1);
    let d = ServeConfig::default();
    let window_us: u64 = parse_flag(&mut args, "--window-us", d.batch_window.as_micros() as u64)?;
    let max_batch: usize = parse_flag(&mut args, "--max-batch", d.max_batch)?;
    let queue_bound: usize = parse_flag(&mut args, "--queue-bound", d.queue_bound)?;
    let threads = match flag_value(&mut args, "--threads") {
        Some(v) => echoimage_core::par::parse_threads(&v).map_err(|e| e.to_string())?,
        None => echoimage_core::par::threads_from_env().map_err(|e| e.to_string())?,
    };
    let metrics_out = flag_value(&mut args, "--metrics-out");
    let connect = flag_value(&mut args, "--connect");
    if let Some(extra) = args.first() {
        return Err(format!("unrecognised argument `{extra}`"));
    }

    // In-process daemon unless --connect points at a running one.
    let (server, addr) = match connect {
        Some(addr) => {
            let addr = addr
                .parse()
                .map_err(|_| format!("--connect: bad address `{addr}`"))?;
            (None, addr)
        }
        None => {
            let cfg = ServeConfig::validated(
                Duration::from_micros(window_us),
                max_batch,
                queue_bound,
                threads,
            )
            .map_err(|e| e.to_string())?;
            let server = ServerHandle::start(cfg, BindAddr::Tcp("127.0.0.1:0".into()))
                .map_err(|e| format!("bind: {e}"))?;
            let addr = server
                .local_addr()
                .ok_or_else(|| "server has no TCP address".to_string())?;
            (Some(server), addr)
        }
    };

    loadgen::enroll_world(addr, &spec).map_err(|e| format!("enrol: {e}"))?;
    let before = loadgen::fetch_stats(addr).map_err(|e| format!("stats (before): {e}"))?;
    let tallies = loadgen::run_load(addr, &spec).map_err(|e| format!("load: {e}"))?;
    let after = loadgen::fetch_stats(addr).map_err(|e| format!("stats (after): {e}"))?;
    let report = loadgen::report_from_stats(tallies, &before, &after);
    print!("{}", report.to_json());

    if let Some(path) = metrics_out {
        let snapshot = echo_obs::snapshot();
        echo_obs::export::write_atomic(&path, snapshot.to_json().as_bytes())
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    if let Some(server) = server {
        server.shutdown();
    }

    let healthy = report.tallies.errors == 0 && report.p99_ns.is_some();
    if !healthy {
        eprintln!(
            "load_test: unhealthy run: {} errors, p99 {:?}",
            report.tallies.errors, report.p99_ns
        );
    }
    Ok(healthy)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("load_test: {e}");
            ExitCode::FAILURE
        }
    }
}
