//! Serving-layer configuration, validated at parse time.
//!
//! Every knob that reaches the daemon from the outside world — CLI
//! flags, the `ECHOIMAGE_THREADS` environment variable — goes through
//! [`ServeConfig::validated`] before a socket is ever bound, so a typo
//! is a typed error at startup instead of a pathological batcher at
//! 3am. The bounds are deliberately generous: they reject obvious
//! garbage (a zero-slot queue, a one-minute batch window), not tuned
//! operating points.

use echoimage_core::par::ThreadsParseError;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Longest accepted micro-batch window. A window is added to every
/// request's latency in the worst case; anything beyond a second is a
/// misconfiguration, not a tuning choice.
pub const MAX_BATCH_WINDOW: Duration = Duration::from_secs(1);

/// Largest accepted flush size.
pub const MAX_MAX_BATCH: usize = 4096;

/// Largest accepted per-tenant admission-queue bound.
pub const MAX_QUEUE_BOUND: usize = 65_536;

/// A serving knob that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `batch_window` exceeds [`MAX_BATCH_WINDOW`].
    BatchWindowTooLong {
        /// The rejected window.
        got_ms: u128,
    },
    /// `max_batch` is zero or exceeds [`MAX_MAX_BATCH`].
    MaxBatchOutOfRange {
        /// The rejected flush size.
        got: usize,
    },
    /// `queue_bound` is zero or exceeds [`MAX_QUEUE_BOUND`].
    QueueBoundOutOfRange {
        /// The rejected bound.
        got: usize,
    },
    /// The worker-thread count failed the workspace-wide parse
    /// (see [`echoimage_core::par::parse_threads`]).
    Threads(ThreadsParseError),
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::BatchWindowTooLong { got_ms } => write!(
                f,
                "batch window {got_ms} ms exceeds the maximum of {} ms",
                MAX_BATCH_WINDOW.as_millis()
            ),
            ServeConfigError::MaxBatchOutOfRange { got } => {
                write!(f, "max batch {got} is outside 1..={MAX_MAX_BATCH}")
            }
            ServeConfigError::QueueBoundOutOfRange { got } => {
                write!(f, "queue bound {got} is outside 1..={MAX_QUEUE_BOUND}")
            }
            ServeConfigError::Threads(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeConfigError {}

impl From<ThreadsParseError> for ServeConfigError {
    fn from(e: ThreadsParseError) -> Self {
        ServeConfigError::Threads(e)
    }
}

/// Validated serving parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// How long the batcher holds the oldest queued request hoping for
    /// company before flushing anyway. Zero removes the wait, not the
    /// coalescing: each flush still takes every job queued by the time
    /// the batcher looks, up to `max_batch`.
    pub batch_window: Duration,
    /// Flush immediately once this many requests are queued.
    pub max_batch: usize,
    /// Per-tenant admission bound: requests arriving while this many of
    /// the tenant's jobs are already queued are shed with a typed
    /// `Overloaded` response instead of growing the queue without
    /// limit.
    pub queue_bound: usize,
    /// Worker threads for batched feature extraction (workspace
    /// convention: `0` = available parallelism, `1` = serial).
    pub threads: usize,
    /// When set, the I/O loop atomically rewrites this file about once
    /// a second with the Prometheus text exposition (registry metrics
    /// plus the tenant windows) for file-based scraping. A path, not a
    /// bounded knob, so it is set after [`ServeConfig::validated`]
    /// rather than through it.
    pub prom_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_window: Duration::from_millis(3),
            max_batch: 32,
            queue_bound: 256,
            threads: 0,
            prom_out: None,
        }
    }
}

impl ServeConfig {
    /// Validates raw knob values into a [`ServeConfig`].
    ///
    /// # Errors
    ///
    /// One [`ServeConfigError`] per out-of-range knob, checked in field
    /// order.
    pub fn validated(
        batch_window: Duration,
        max_batch: usize,
        queue_bound: usize,
        threads: usize,
    ) -> Result<Self, ServeConfigError> {
        if batch_window > MAX_BATCH_WINDOW {
            return Err(ServeConfigError::BatchWindowTooLong {
                got_ms: batch_window.as_millis(),
            });
        }
        if max_batch == 0 || max_batch > MAX_MAX_BATCH {
            return Err(ServeConfigError::MaxBatchOutOfRange { got: max_batch });
        }
        if queue_bound == 0 || queue_bound > MAX_QUEUE_BOUND {
            return Err(ServeConfigError::QueueBoundOutOfRange { got: queue_bound });
        }
        if threads > echoimage_core::par::MAX_THREADS {
            return Err(ThreadsParseError::OutOfRange { value: threads }.into());
        }
        Ok(ServeConfig {
            batch_window,
            max_batch,
            queue_bound,
            threads,
            prom_out: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let d = ServeConfig::default();
        assert_eq!(
            ServeConfig::validated(d.batch_window, d.max_batch, d.queue_bound, d.threads),
            Ok(d)
        );
    }

    #[test]
    fn each_knob_is_bounds_checked_with_a_typed_error() {
        let d = ServeConfig::default();
        assert!(matches!(
            ServeConfig::validated(Duration::from_secs(2), d.max_batch, d.queue_bound, 0),
            Err(ServeConfigError::BatchWindowTooLong { got_ms: 2000 })
        ));
        assert!(matches!(
            ServeConfig::validated(d.batch_window, 0, d.queue_bound, 0),
            Err(ServeConfigError::MaxBatchOutOfRange { got: 0 })
        ));
        assert!(matches!(
            ServeConfig::validated(d.batch_window, 5000, d.queue_bound, 0),
            Err(ServeConfigError::MaxBatchOutOfRange { got: 5000 })
        ));
        assert!(matches!(
            ServeConfig::validated(d.batch_window, d.max_batch, 0, 0),
            Err(ServeConfigError::QueueBoundOutOfRange { got: 0 })
        ));
        assert!(matches!(
            ServeConfig::validated(d.batch_window, d.max_batch, d.queue_bound, 2000),
            Err(ServeConfigError::Threads(_))
        ));
        // A zero window is legal: it means "never wait for company";
        // whatever is already queued still shares a flush.
        assert!(ServeConfig::validated(Duration::ZERO, 1, 1, 1).is_ok());
    }

    #[test]
    fn errors_render_actionable_messages() {
        let e = ServeConfig::validated(Duration::ZERO, 0, 1, 0).unwrap_err();
        assert!(e.to_string().contains("max batch"), "{e}");
    }
}
