//! `echo-serve`: the EchoImage authentication daemon.
//!
//! The rest of the workspace authenticates one attempt at a time — a
//! CLI invocation, an eval-harness call. This crate turns that library
//! into a long-lived service: a daemon that accepts authentication
//! requests over a length-prefixed binary protocol (TCP or unix-domain
//! socket), coalesces concurrent requests into **micro-batches** so the
//! feature extractor's batched path does the heavy lifting, applies
//! per-tenant admission control with typed `Overloaded` load shedding,
//! and reports itself through the `echo-obs` counters, gauges,
//! histograms, traces, and audit log.
//!
//! The moving parts, one module each:
//!
//! * [`protocol`] — the wire format: `u32`-length-prefixed frames, all
//!   decoding panic-free with byte-offset error context.
//! * [`config`] — [`config::ServeConfig`], every knob validated at
//!   parse time.
//! * [`tenant`] — per-tenant authenticator snapshots (`Arc`-swapped on
//!   enrol) and the admission counters behind load shedding.
//! * [`server`] — the `poll(2)`-driven I/O loop and
//!   [`server::ServerHandle`].
//! * [`client`] — a small blocking client for the protocol.
//! * [`loadgen`] — deterministic load generation for the `load_test`
//!   bin and the serving benchmark.
//!
//! Requests carry acoustic **images**, not raw microphone captures and
//! not features: the device-side DSP (beamforming, imaging) is cheap
//! and personal to the device's array geometry, while feature
//! extraction is the server's hot loop and exactly the stage that
//! batches well. See DESIGN.md §11 for the full architecture.
//!
//! # Example
//!
//! ```
//! use echo_serve::config::ServeConfig;
//! use echo_serve::protocol::{Opcode, Request, Status};
//! use echo_serve::server::{BindAddr, ServerHandle};
//! use echo_serve::{client::Client, loadgen};
//!
//! let server = ServerHandle::start(
//!     ServeConfig::default(),
//!     BindAddr::Tcp("127.0.0.1:0".into()),
//! )
//! .unwrap();
//! let addr = server.local_addr().unwrap();
//!
//! let mut client = Client::connect_tcp(addr).unwrap();
//! // Enrol user 1 of tenant 0 from twenty synthetic captures…
//! let images: Vec<_> = (0..20).map(|v| loadgen::synth_image(0, 1, v, 32)).collect();
//! let resp = client
//!     .call(&Request { op: Opcode::Enroll, request_id: 1, tenant: 0, user: 1, images })
//!     .unwrap();
//! assert_eq!(resp.status, Status::Ok);
//! // …then authenticate a fresh capture of the same user.
//! let probe: Vec<_> = (100..103).map(|v| loadgen::synth_image(0, 1, v, 32)).collect();
//! let resp = client
//!     .call(&Request { op: Opcode::Auth, request_id: 2, tenant: 0, user: 1, images: probe })
//!     .unwrap();
//! assert_eq!(resp.status, Status::Accepted);
//! server.shutdown();
//! ```

pub mod client;
pub mod config;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod tenant;

mod batcher;
#[allow(unsafe_code)] // the `poll(2)` wrapper
mod poll;

pub use client::{Client, ClientError};
pub use config::{ServeConfig, ServeConfigError};
pub use protocol::{
    Opcode, ProtocolError, Request, Response, RollupStats, StatsReport, Status, TenantStats,
};
pub use server::{BindAddr, ServerHandle};
