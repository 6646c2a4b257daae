//! The daemon binary: bind, serve, exit on a `Shutdown` frame.
//!
//! ```text
//! echo_serve [--tcp ADDR | --unix PATH] [--window-us N] [--max-batch N]
//!            [--queue-bound N] [--threads N] [--prom-out PATH]
//! ```
//!
//! The batching knobs default to [`ServeConfig::default`]: a zero
//! window (the batcher flushes as soon as it is free), flushes of at
//! most 32 requests and 256 queued jobs per tenant.
//!
//! Every knob is validated before the socket is bound; a bad flag is a
//! one-line typed error on stderr and a non-zero exit, never a panic.

use echo_serve::config::ServeConfig;
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

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let tcp = flag_value(&mut args, "--tcp");
    let unix = flag_value(&mut args, "--unix");
    let prom_out = flag_value(&mut args, "--prom-out");
    let d = ServeConfig::default();
    let window_us: u64 = parse_flag(&mut args, "--window-us", d.batch_window.as_micros() as u64)?;
    let max_batch: usize = parse_flag(&mut args, "--max-batch", d.max_batch)?;
    let queue_bound: usize = parse_flag(&mut args, "--queue-bound", d.queue_bound)?;
    let threads = match flag_value(&mut args, "--threads") {
        Some(v) => echoimage_core::par::parse_threads(&v).map_err(|e| e.to_string())?,
        None => echoimage_core::par::threads_from_env().map_err(|e| e.to_string())?,
    };
    if let Some(extra) = args.first() {
        return Err(format!("unrecognised argument `{extra}`"));
    }

    let mut cfg = ServeConfig::validated(
        Duration::from_micros(window_us),
        max_batch,
        queue_bound,
        threads,
    )
    .map_err(|e| e.to_string())?;
    cfg.prom_out = prom_out.map(Into::into);

    let bind = match (tcp, unix) {
        (Some(_), Some(_)) => return Err("--tcp and --unix are mutually exclusive".into()),
        (None, Some(path)) => BindAddr::Unix(path.into()),
        (Some(addr), None) => BindAddr::Tcp(addr),
        (None, None) => BindAddr::Tcp("127.0.0.1:7777".into()),
    };

    let server =
        ServerHandle::start(cfg, bind.clone()).map_err(|e| format!("bind {bind:?}: {e}"))?;
    match server.local_addr() {
        Some(addr) => eprintln!("echo-serve listening on tcp://{addr}"),
        None => eprintln!("echo-serve listening on {bind:?}"),
    }
    server.wait();
    eprintln!("echo-serve: shutdown complete");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("echo_serve: {e}");
            ExitCode::FAILURE
        }
    }
}
