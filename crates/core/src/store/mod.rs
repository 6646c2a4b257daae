//! Template store: identification at millions-of-users scale.
//!
//! The [`crate::auth::Authenticator`] keeps every enrolled user's SVDD
//! gate in heap memory and scores probes against all of them — linear
//! in population, fine for the paper's ~20 subjects, fatal for the
//! roadmap's millions. This module replaces that in-memory model map on
//! the **identification** path with a trait-based [`TemplateStore`]:
//!
//! 1. **Compact binary templates** — per user, a quantized (`f32`)
//!    embedding centroid plus the exact (`f64`) SVDD support vectors,
//!    coefficients, ρ and calibrated threshold — written to versioned,
//!    checksummed shard files ([`shard`], [`format`](mod@format)) and
//!    decoded onto the heap when a shard is opened.
//! 2. **A coarse centroid prefilter** ([`prefilter`]) — an IVF-style
//!    index over per-user centroids queried with the
//!    `echo_dsp::simd::sqdist_f32` kernel — prunes the population to a
//!    top-K candidate set before the expensive per-user SVDD vote. An
//!    exhaustive-scan oracle ([`IdentifyConfig::exhaustive`]) proves
//!    decision parity.
//! 3. **Epoch-style snapshot reloads** ([`snapshot`]) — re-enrolment
//!    builds a new snapshot off to the side and publishes it with an
//!    `Arc` swap; readers in flight keep their snapshot, steady-state
//!    readers revalidate a thread-local cache against an epoch counter
//!    and touch no lock.
//!
//! # Exactness contract
//!
//! Quantization touches **only** the prefilter: centroids are stored as
//! `f32` and used solely to rank candidates. Gate scoring always runs
//! on the bit-preserved `f64` support vectors with the same arithmetic
//! as [`echo_ml::OneClassSvm::decision`], so a template that round-trips
//! through a shard file yields margins — and therefore decisions —
//! bit-identical to the in-memory path. The proptest suite pins this.

pub mod format;
pub mod prefilter;
pub mod shard;
pub mod snapshot;
pub mod template;

pub use prefilter::CoarseIndex;
pub use shard::{Shard, ShardWriter};
pub use snapshot::{ShardStore, StoreHandle};
pub use template::{GateTemplate, MemoryStore, TemplateBuilder, UserTemplate};

use crate::auth::{attempt_audit, AuthAttempt, AuthDecision, BeepVotes};
use crate::error::EchoImageError;
use echo_obs::{AuthAudit, TraceCtx};
use std::fmt;

/// Candidate-lookup latency histogram (per beep): the time the coarse
/// prefilter takes to produce the top-K candidate set.
pub const LOOKUP_HISTOGRAM: &str = "store.lookup";
/// Gauge holding the candidate-set size of the most recent lookup.
pub const CANDIDATES_GAUGE: &str = "store.candidates";
/// Beeps where the prefiltered candidate set contained an accepting
/// user. A pure function of probe and store contents — bit-identical
/// across `ECHOIMAGE_THREADS`.
pub const PREFILTER_HIT: &str = "store.prefilter.hit";
/// Beeps where no prefiltered candidate accepted (spoofer probe, or a
/// legitimate user pruned by the prefilter).
pub const PREFILTER_MISS: &str = "store.prefilter.miss";

/// Typed errors from the template store, carrying byte-offset context
/// wherever a shard file is at fault.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// An OS-level file operation failed.
    Io {
        /// Path of the file being read or written.
        path: String,
        /// The OS error, stringified (kept `Clone`/`PartialEq`).
        message: String,
    },
    /// The file does not start with the shard magic.
    BadMagic {
        /// Byte offset of the magic (always 0; spelled for uniformity).
        offset: u64,
    },
    /// The shard format version is not supported by this build.
    BadVersion {
        /// Byte offset of the version field.
        offset: u64,
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The file ends before a section or field it promises.
    Truncated {
        /// Byte offset where the missing data was expected.
        offset: u64,
        /// Bytes needed at that offset.
        needed: u64,
        /// Actual file length.
        file_len: u64,
        /// Which structure was being read.
        what: &'static str,
    },
    /// The trailing FNV-1a checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum recomputed over the file body.
        expected: u64,
        /// Checksum stored in the trailer.
        found: u64,
    },
    /// An internal invariant of the format is violated (non-monotone
    /// record table, out-of-range member index, …).
    Corrupt {
        /// Byte offset of the offending structure.
        offset: u64,
        /// What is wrong.
        what: &'static str,
    },
    /// A template cannot be represented in the shard format.
    InvalidTemplate(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "shard I/O failed on {path}: {message}")
            }
            StoreError::BadMagic { offset } => {
                write!(f, "not a template shard (bad magic at byte {offset})")
            }
            StoreError::BadVersion {
                offset,
                found,
                supported,
            } => write!(
                f,
                "unsupported shard version {found} at byte {offset} (this build supports {supported})"
            ),
            StoreError::Truncated {
                offset,
                needed,
                file_len,
                what,
            } => write!(
                f,
                "shard truncated reading {what}: need {needed} bytes at offset {offset}, file is {file_len} bytes"
            ),
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "shard checksum mismatch: file body hashes to {expected:#018x}, trailer says {found:#018x}"
            ),
            StoreError::Corrupt { offset, what } => {
                write!(f, "corrupt shard at byte {offset}: {what}")
            }
            StoreError::InvalidTemplate(what) => {
                write!(f, "template not representable: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A prefiltered identification candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate's enrolled user id.
    pub user_id: u64,
    /// Quantized squared distance from the probe to the candidate's
    /// centroid (the prefilter's ranking key).
    pub d2: f32,
}

/// Read interface every template store backend implements — the
/// in-memory [`MemoryStore`], the shard-backed [`ShardStore`], and
/// whatever future backend replaces them. Identification
/// ([`identify_traced`]) is generic over this trait, so the prefiltered
/// path and the exhaustive oracle run the same decision code against
/// any backend.
pub trait TemplateStore: Send + Sync {
    /// Feature dimensionality of every template in the store.
    fn dim(&self) -> usize;

    /// Number of distinct enrolled users (newest shard wins when a user
    /// was re-enrolled).
    fn user_count(&self) -> usize;

    /// Per-feature means of the frozen scaler.
    fn scaler_means(&self) -> &[f64];

    /// Per-feature divisors of the frozen scaler.
    fn scaler_stds(&self) -> &[f64];

    /// The top-`k` candidate users for a scaled, quantized probe,
    /// ordered by `(d2, user_id)` ascending. Deterministic for a given
    /// store and probe.
    fn candidates(&self, probe: &[f32], k: usize) -> Vec<Candidate>;

    /// The user's gate margin (`max` over their gates of
    /// `decision − threshold`) on a scaled probe, or `None` when the
    /// user is not enrolled. Bit-identical to the in-memory
    /// [`echo_ml::OneClassSvm::decision`] arithmetic.
    fn gate_margin(&self, user_id: u64, x: &[f64]) -> Option<f64>;

    /// All distinct enrolled user ids, ascending.
    fn user_ids(&self) -> Vec<u64>;
}

/// Knobs for one identification call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentifyConfig {
    /// Candidate-set size the prefilter prunes to per beep.
    pub top_k: usize,
    /// Bypass the prefilter and score every enrolled user — the oracle
    /// the parity suites compare against.
    pub exhaustive: bool,
}

impl Default for IdentifyConfig {
    fn default() -> Self {
        IdentifyConfig {
            top_k: 16,
            exhaustive: false,
        }
    }
}

/// Identifies a probe train against a template store under a fresh
/// root span (see [`identify_traced`]).
///
/// # Errors
///
/// See [`identify_traced`].
pub fn identify(
    store: &dyn TemplateStore,
    features: &[Vec<f64>],
    config: &IdentifyConfig,
) -> Result<AuthDecision, EchoImageError> {
    let root = echo_obs::root_span("store.identify");
    identify_traced(store, root.ctx(), features, config, AuthAttempt::default())
}

/// Identifies a probe train (one feature vector per beep) against a
/// template store: per beep, the probe is standardised with the store's
/// frozen scaler, the coarse prefilter prunes the population to
/// [`IdentifyConfig::top_k`] candidates, the best-margin candidate with
/// a non-negative margin claims the beep, and a strict majority of
/// beeps must agree on one user — the `Authenticator`'s own vote, with
/// the same counters and audit fields.
/// Records one [`AuthAudit`] and the `store.*` metrics; all counters
/// and the audit are bit-identical across `ECHOIMAGE_THREADS` and SIMD
/// paths.
///
/// With [`IdentifyConfig::exhaustive`] the prefilter is bypassed and
/// every enrolled user is scored — the oracle used to prove prefilter
/// decision parity.
///
/// # Errors
///
/// * [`EchoImageError::NoCaptures`] when `features` is empty.
/// * [`EchoImageError::InvalidParameter`] when a feature vector
///   disagrees with the store's dimensionality, or the store is empty.
///
/// Every error still records an audit with a non-empty reject reason.
pub fn identify_traced(
    store: &dyn TemplateStore,
    ctx: TraceCtx,
    features: &[Vec<f64>],
    config: &IdentifyConfig,
    attempt: AuthAttempt,
) -> Result<AuthDecision, EchoImageError> {
    let mut tspan = echo_obs::stage!(ctx, "stage.identify", attempt.retry_index);
    echo_obs::counter!("store.identify_attempts").inc();
    let base_audit = || attempt_audit(ctx, &attempt, features.len(), 0, 0, None);
    let outcome = (|| {
        if features.is_empty() {
            let e = EchoImageError::NoCaptures;
            echo_obs::record_audit(AuthAudit {
                reject_reason: format!("probe rejected before identification: {e}"),
                ..base_audit()
            });
            return Err(e);
        }
        if store.user_count() == 0 {
            let e = EchoImageError::InvalidParameter("template store has no enrolled users");
            echo_obs::record_audit(AuthAudit {
                reject_reason: format!("probe rejected before identification: {e}"),
                ..base_audit()
            });
            return Err(e);
        }
        let dim = store.dim();
        let means = store.scaler_means();
        let stds = store.scaler_stds();
        let exhaustive_ids = config.exhaustive.then(|| store.user_ids());

        let mut votes = BeepVotes::default();
        let mut best_margin = f64::NEG_INFINITY;
        for f in features {
            if f.len() != dim {
                let e = EchoImageError::InvalidParameter(
                    "feature vector does not match the store dimensionality",
                );
                echo_obs::record_audit(AuthAudit {
                    reject_reason: format!("identification error: {e}"),
                    ..base_audit()
                });
                return Err(e);
            }
            // Standardise with the frozen scaler — the same arithmetic
            // as `StandardScaler::transform`.
            let x: Vec<f64> = f
                .iter()
                .zip(means.iter().zip(stds.iter()))
                .map(|(&v, (&m, &s))| (v - m) / s)
                .collect();
            let winner = match &exhaustive_ids {
                Some(ids) => {
                    // Oracle: score everyone; ascending id order makes
                    // the "first strictly better" tie-break identical to
                    // the candidate path's.
                    best_of(ids.iter().map(|&id| (id, store.gate_margin(id, &x))))
                }
                None => {
                    let xq: Vec<f32> = x.iter().map(|&v| v as f32).collect();
                    let cands = {
                        let _t = echo_obs::stage!(TraceCtx::none(), LOOKUP_HISTOGRAM);
                        store.candidates(&xq, config.top_k)
                    };
                    echo_obs::gauge!(CANDIDATES_GAUGE).set(cands.len() as i64);
                    best_of(
                        cands
                            .iter()
                            .map(|c| (c.user_id, store.gate_margin(c.user_id, &x))),
                    )
                }
            };
            if let Some((id, margin)) = winner {
                best_margin = best_margin.max(margin);
                if margin >= 0.0 {
                    echo_obs::counter!(PREFILTER_HIT).inc();
                    votes.add(id);
                } else {
                    echo_obs::counter!(PREFILTER_MISS).inc();
                }
            } else {
                echo_obs::counter!(PREFILTER_MISS).inc();
            }
        }
        let audit = AuthAudit {
            best_gate_margin: Some(best_margin).filter(|m| m.is_finite()),
            ..base_audit()
        };
        Ok(votes.decide(features.len(), audit, "no candidate accepted any beep"))
    })();
    tspan.attr_bool("accepted", matches!(&outcome, Ok(d) if d.is_accepted()));
    outcome
}

/// The best `(user, margin)` pair under the deterministic tie-break:
/// higher margin wins; equal margins go to the lower user id (the
/// candidate iterators yield ascending-id order on ties, and only a
/// *strictly* better margin displaces the incumbent).
fn best_of(pairs: impl Iterator<Item = (u64, Option<f64>)>) -> Option<(u64, f64)> {
    let mut best: Option<(u64, f64)> = None;
    for (id, margin) in pairs {
        let Some(margin) = margin else { continue };
        match &best {
            Some((bid, bm)) => {
                if margin > *bm || (margin == *bm && id < *bid) {
                    best = Some((id, margin));
                }
            }
            None => best = Some((id, margin)),
        }
    }
    best
}
