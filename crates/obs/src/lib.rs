//! `echo-obs` — observability substrate for the EchoImage pipeline.
//!
//! A process-wide, thread-safe registry of three metric kinds:
//!
//! * [`Counter`] — monotonically increasing `u64` (cache hits, beeps
//!   processed, degraded-mode activations),
//! * [`Gauge`] — a settable `i64` level (cache occupancy, configured
//!   thread count),
//! * [`Histogram`] — fixed-bucket latency distribution in nanoseconds,
//!   fed by stage timers ([`stage!`]): one clock reading per scope that
//!   also times the scope's trace span when traced. Its plain value
//!   form, [`HistogramSnapshot`], is the one histogram type everything
//!   else carries: registry snapshots, window epochs and rollups, and
//!   the serving layer's Stats wire.
//!
//! Call sites name metrics through the [`counter!`], [`gauge!`],
//! [`histogram!`] and [`stage!`] macros, which resolve the registry entry
//! once per call site and cache the `&'static` handle in a local
//! `OnceLock` — after the first pass a counter bump is one relaxed
//! atomic load (the enabled flag) plus one relaxed `fetch_add`.
//!
//! The whole registry can be disabled ([`set_enabled`]): every metric
//! operation then reduces to the single flag load and untraced stage
//! timers skip the clock entirely, so instrumented hot paths run at
//! ~zero overhead.
//!
//! # Determinism contract
//!
//! **Counter values are deterministic**: for a fixed workload they are
//! bit-for-bit identical across worker-thread counts and repeated runs,
//! because every counter counts *logical events* (a train imaged, a
//! cache slot created) rather than anything timing-dependent. The cache
//! layers in `echo-dsp` / `echoimage-core` uphold this by publishing a
//! shared in-flight slot under their lock before computing, so a cold
//! miss is counted exactly once no matter how many workers race for the
//! same key. **Histogram contents and gauges are wall-clock- or
//! machine-dependent** and are explicitly outside the contract; only
//! the *number* of histogram observations is deterministic.
//!
//! # Tracing and audit
//!
//! Beyond the aggregate metrics, the crate carries a per-attempt flight
//! recorder: [`trace`] mints a trace id per top-level unit of work and
//! records hierarchical [`TraceSpan`]s (opt-in via
//! [`set_trace_enabled`], deterministic 1-in-N [`set_trace_sampling`]),
//! and [`audit`] keeps one [`AuthAudit`] record per authentication
//! decision (on by default, disabled with the registry). The [`export`]
//! module serialises both as JSONL and as Chrome trace-event JSON for
//! Perfetto. See the module docs for the determinism contract.
//!
//! # Example
//!
//! ```
//! use echo_obs::TraceCtx;
//!
//! echo_obs::counter!("doc.events").inc();
//! {
//!     let _timer = echo_obs::stage!(TraceCtx::none(), "doc.stage");
//!     // ... timed work ...
//! }
//! let snap = echo_obs::snapshot();
//! assert!(snap.counter("doc.events").unwrap() >= 1);
//! assert_eq!(snap.histogram("doc.stage").unwrap().count, 1);
//! assert!(snap.to_json().contains("\"doc.stage\""));
//! ```

pub mod audit;
pub mod export;
mod fnv;
mod histogram;
pub mod json;
mod metrics;
mod registry;
pub mod sketch;
mod snapshot;
pub mod trace;
pub mod window;

pub use audit::{
    record_audit, reset_audits, take_audits, tenant_scope, AuthAudit, AuthVerdict, RejectKind,
    TenantScope,
};
pub use fnv::{fnv1a64, Fnv1a};
pub use histogram::{Histogram, HistogramSnapshot};
pub use json::escape_json;
pub use metrics::{Counter, Gauge};
pub use registry::{is_enabled, registry, reset, set_enabled, Registry};
pub use sketch::{psi, Sketch, SKETCH_BINS};
pub use snapshot::{snapshot, MetricsSnapshot};
pub use trace::{
    reset_traces, root_span, set_trace_enabled, set_trace_sampling, take_spans, trace_enabled,
    trace_events_dropped, trace_sampling, SpanEvent, TraceCtx, TraceSpan,
};
pub use window::{DriftAlarm, WindowRollup, WindowSnapshot};

#[cfg(test)]
pub(crate) fn unit_test_lock() -> std::sync::MutexGuard<'static, ()> {
    // Unit tests that toggle process-global observability state
    // (enabled flag, trace flag, ring buffers) serialise on this lock
    // so the parallel test runner cannot interleave them.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resolves (and on first use registers) the named [`Counter`], caching
/// the handle per call site. `$name` must be a `&'static str`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Resolves (and on first use registers) the named [`Gauge`], caching
/// the handle per call site. `$name` must be a `&'static str`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Resolves (and on first use registers) the named [`Histogram`],
/// caching the handle per call site. `$name` must be a `&'static str`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Opens the stage timer `$name` as child `$lidx` (default 0) of the
/// [`TraceCtx`] `$ctx`: a [`TraceSpan`] that feeds its one measured
/// duration to the same-named [`Histogram`] (resolved once per call site,
/// as [`histogram!`] does) and, when `$ctx` is live, records it as a
/// trace span too. Under [`TraceCtx::none`] only the histogram records.
/// Bind it — `let _t = stage!(ctx, "stage.imaging", lidx);` — or the
/// timer closes immediately.
#[macro_export]
macro_rules! stage {
    ($ctx:expr, $name:expr) => {
        $crate::stage!($ctx, $name, 0)
    };
    ($ctx:expr, $name:expr, $lidx:expr) => {{
        let mut span = $ctx.child_at($name, $lidx);
        span.time_into($crate::histogram!($name));
        span
    }};
}
