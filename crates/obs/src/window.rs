//! Windowed per-tenant telemetry: epoch rings, rollups, drift watch.
//!
//! The cumulative registry ([`crate::snapshot`]) answers "what happened
//! since the process started"; this module answers "what is happening
//! *now*, per tenant". Every authentication decision that carries a
//! tenant id (see [`crate::audit::tenant_scope`]) lands in a per-tenant
//! **epoch bucket**; once a bucket holds [`epoch_len`] decisions it is
//! closed and a fresh one opened, with the last [`WINDOW_EPOCHS`]
//! closed buckets kept in a ring.
//!
//! # Epochs are logical, not temporal
//!
//! An epoch advances on *decision count*, never on the wall clock, so
//! the bucketing of a fixed workload is bit-identical across thread
//! counts and machine speeds — the same contract every other `echo-obs`
//! structure keeps, pinned by the `window_determinism` suite. Two
//! fields are explicitly outside the contract: the per-rollup `qps`
//! (wall-derived by definition) and the *placement* of latency
//! observations in histogram buckets (their count is deterministic,
//! their values are not). [`WindowSnapshot::fingerprint`] hashes only
//! the deterministic projection.
//!
//! # Drift watch
//!
//! At enrolment time the serving layer freezes a **reference sketch**
//! of gate margins over the enrolment corpus ([`set_reference`]). Each
//! time a tenant's epoch closes, the margins of its last
//! [`DRIFT_EPOCHS`] epochs are merged and compared to the reference
//! with a population-stability index ([`crate::sketch::psi`]). The
//! score is carried on every [`WindowSnapshot`]; an upward crossing of
//! [`set_drift_threshold`] records a typed [`DriftAlarm`] (drained via
//! [`take_drift_alarms`]) and bumps the `obs.drift_alarms` counter.

use crate::audit::{AuthAudit, AuthVerdict, RejectKind};
use crate::fnv::Fnv1a;
use crate::histogram::HistogramSnapshot;
use crate::registry::collecting;
use crate::sketch::{psi, Sketch};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Closed epochs retained per tenant (plus the current partial one).
pub const WINDOW_EPOCHS: usize = 64;

/// Decisions per epoch unless overridden with [`set_epoch_len`].
pub const DEFAULT_EPOCH_LEN: u64 = 32;

/// Epochs merged into the live side of the drift comparison.
pub const DRIFT_EPOCHS: usize = 8;

/// Default PSI threshold for [`DriftAlarm`]s — the conventional
/// "major population shift" boundary.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.25;

/// Rollup spans reported on every snapshot, in epochs.
pub const ROLLUP_SPANS: [usize; 3] = [1, 8, WINDOW_EPOCHS];

/// Distinct rejection classes tracked per window (every
/// [`RejectKind`] except `None`).
pub const REJECT_CLASSES: usize = 5;

/// The slot a rejection class occupies in [`WindowRollup::rejects`],
/// or `None` for [`RejectKind::None`] (an accept).
pub fn reject_slot(kind: RejectKind) -> Option<usize> {
    match kind {
        RejectKind::None => None,
        RejectKind::CaptureScreen => Some(0),
        RejectKind::ReplaySignature => Some(1),
        RejectKind::SpooferGate => Some(2),
        RejectKind::NoMajority => Some(3),
        RejectKind::Overloaded => Some(4),
    }
}

/// Stable labels for the [`WindowRollup::rejects`] slots, in order.
pub const REJECT_LABELS: [&str; REJECT_CLASSES] = [
    "capture_screen",
    "replay_signature",
    "spoofer_gate",
    "no_majority",
    "overloaded",
];

/// Aggregated decisions over a span of epochs — the unit every
/// [`WindowSnapshot`] reports three of (1 / 8 / 64 epochs) plus a
/// cumulative one. The default value is the empty rollup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowRollup {
    /// Epochs this rollup spans (including the current partial one).
    pub epochs: u64,
    pub decisions: u64,
    pub accepted: u64,
    /// Rejections by class, indexed per [`reject_slot`] /
    /// [`REJECT_LABELS`].
    pub rejects: [u64; REJECT_CLASSES],
    /// Gate-margin sketch over the span.
    pub margins: Sketch,
    /// Spatial-coherence sketch over the span.
    pub coherence: Sketch,
    /// End-to-end latency histogram over the span.
    pub lat: HistogramSnapshot,
    /// Decisions per wall-clock second over the span. **Not**
    /// deterministic.
    pub qps: f64,
}

impl WindowRollup {
    fn absorb_audit(&mut self, audit: &AuthAudit) {
        self.decisions += 1;
        match audit.verdict {
            AuthVerdict::Accepted { .. } => self.accepted += 1,
            AuthVerdict::Rejected | AuthVerdict::Overloaded => {
                if let Some(slot) = reject_slot(audit.reject_kind) {
                    self.rejects[slot] += 1;
                }
            }
        }
        if let Some(m) = audit.best_gate_margin {
            self.margins.add(m);
        }
        if let Some(c) = audit.spatial_coherence {
            self.coherence.add(c);
        }
    }

    /// Adds `other`'s epochs, counts, sketches and latencies (not its
    /// wall-derived `qps`).
    fn merge(&mut self, other: &WindowRollup) {
        self.epochs += other.epochs;
        self.decisions += other.decisions;
        self.accepted += other.accepted;
        for (dst, src) in self.rejects.iter_mut().zip(other.rejects.iter()) {
            *dst += src;
        }
        self.margins.merge(&other.margins);
        self.coherence.merge(&other.coherence);
        self.lat.merge(&other.lat);
    }

    fn hash_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.epochs);
        h.write_u64(self.decisions);
        h.write_u64(self.accepted);
        for &r in &self.rejects {
            h.write_u64(r);
        }
        for &b in self.margins.bins() {
            h.write_u64(b);
        }
        for &b in self.coherence.bins() {
            h.write_u64(b);
        }
        // Latency: the observation *count* is deterministic; the bucket
        // placement and sum are wall-clock and excluded.
        h.write_u64(self.lat.count);
    }
}

/// One epoch's worth of decisions for one tenant (or the global
/// aggregate): a one-epoch rollup, plus the epoch's number and open time.
#[derive(Debug, Clone)]
struct EpochBucket {
    epoch: u64,
    /// Wall-clock open time; feeds `qps` only (outside the
    /// determinism contract).
    opened: Instant,
    tally: WindowRollup,
}

impl EpochBucket {
    fn new(epoch: u64) -> Self {
        Self {
            epoch,
            opened: Instant::now(),
            tally: WindowRollup {
                epochs: 1,
                ..WindowRollup::default()
            },
        }
    }
}

/// A point-in-time view of one tenant's windows (or the global
/// aggregate when `tenant` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Tenant id, or `None` for the cross-tenant global window.
    pub tenant: Option<u64>,
    /// Current (partial) epoch number, starting at 0.
    pub epoch: u64,
    /// Decisions per epoch in force when the snapshot was taken.
    pub epoch_len: u64,
    /// Latest PSI drift score against the enrolment-time reference;
    /// `None` until a reference exists and an epoch has closed.
    pub drift: Option<f64>,
    /// Everything since the window was created (immune to ring
    /// eviction — the delta base for `load_test`).
    pub cum: WindowRollup,
    /// Rollups over the trailing [`ROLLUP_SPANS`] epochs, in order.
    pub windows: [WindowRollup; 3],
}

impl WindowSnapshot {
    /// FNV-1a hash of the deterministic projection of the snapshot:
    /// epoch counters, decision/verdict counts, sketch bins, latency
    /// observation counts, and the drift-score bits. Excludes `qps`,
    /// latency bucket placement, and latency sums — the wall-clock
    /// fields. Two runs of the same logical workload must produce
    /// equal fingerprints regardless of thread count.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.tenant.map_or(u64::MAX, |t| t));
        h.write_u64(self.epoch);
        h.write_u64(self.epoch_len);
        h.write_u64(self.drift.map_or(0, |d| d.to_bits()));
        self.cum.hash_into(&mut h);
        for w in &self.windows {
            w.hash_into(&mut h);
        }
        h.finish()
    }
}

/// One drift-threshold crossing, recorded when a tenant's PSI score
/// rises above the configured threshold after having been at or below
/// it (re-armed only once the score falls back under).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlarm {
    pub tenant: u64,
    /// The epoch whose close triggered the alarm.
    pub epoch: u64,
    /// The PSI score that crossed.
    pub score: f64,
    /// The threshold in force at the time.
    pub threshold: f64,
}

struct TenantWindow {
    /// Back entry is the current partial epoch; older entries are
    /// closed, capped at [`WINDOW_EPOCHS`] + 1 total.
    ring: VecDeque<EpochBucket>,
    cum: WindowRollup,
    /// Epochs ever closed (for `cum.epochs`, which counts the current
    /// partial epoch too).
    closed_epochs: u64,
    last_drift: Option<f64>,
    opened: Instant,
}

impl TenantWindow {
    fn new() -> Self {
        let mut ring = VecDeque::new();
        ring.push_back(EpochBucket::new(0));
        Self {
            ring,
            cum: WindowRollup::default(),
            closed_epochs: 0,
            last_drift: None,
            opened: Instant::now(),
        }
    }

    fn current_mut(&mut self) -> &mut EpochBucket {
        // The ring is never empty: `new` seeds epoch 0 and every close
        // pushes a successor.
        self.ring.back_mut().expect("window ring is never empty")
    }

    /// Counts one decision into the current epoch and the cumulative
    /// rollup.
    fn absorb(&mut self, audit: &AuthAudit) {
        self.current_mut().tally.absorb_audit(audit);
        self.cum.absorb_audit(audit);
    }

    /// Records one latency into the current epoch and the cumulative
    /// rollup.
    fn observe_latency(&mut self, ns: u64) {
        self.current_mut().tally.lat.observe_ns(ns);
        self.cum.lat.observe_ns(ns);
    }

    /// Closes the current epoch if it is full. Returns the new drift
    /// score when one was computed and it crossed the threshold upward.
    fn maybe_close_epoch(
        &mut self,
        epoch_len: u64,
        reference: Option<&Sketch>,
        threshold: f64,
    ) -> Option<f64> {
        if self.current_mut().tally.decisions < epoch_len {
            return None;
        }
        let closed_epoch = self.current_mut().epoch;
        let mut crossed = None;
        if let Some(reference) = reference {
            let mut live = Sketch::new();
            for b in self.ring.iter().rev().take(DRIFT_EPOCHS) {
                live.merge(&b.tally.margins);
            }
            if let Some(score) = psi(reference, &live) {
                let was_below = self.last_drift.is_none_or(|p| p <= threshold);
                if score > threshold && was_below {
                    crossed = Some(score);
                }
                self.last_drift = Some(score);
            }
        }
        self.closed_epochs += 1;
        self.ring.push_back(EpochBucket::new(closed_epoch + 1));
        while self.ring.len() > WINDOW_EPOCHS + 1 {
            self.ring.pop_front();
        }
        crossed
    }

    fn rollup(&self, span: usize, now: Instant) -> WindowRollup {
        let mut out = WindowRollup::default();
        let mut oldest: Option<Instant> = None;
        for b in self.ring.iter().rev().take(span) {
            out.merge(&b.tally);
            oldest = Some(b.opened);
        }
        if let Some(start) = oldest {
            let secs = now.duration_since(start).as_secs_f64();
            if secs > 1e-9 {
                out.qps = out.decisions as f64 / secs;
            }
        }
        out
    }

    fn snapshot(&self, tenant: Option<u64>, epoch_len: u64) -> WindowSnapshot {
        let now = Instant::now();
        let mut cum = self.cum.clone();
        cum.epochs = self.closed_epochs + 1;
        let secs = now.duration_since(self.opened).as_secs_f64();
        if secs > 1e-9 {
            cum.qps = cum.decisions as f64 / secs;
        }
        let windows = ROLLUP_SPANS.map(|span| self.rollup(span, now));
        WindowSnapshot {
            tenant,
            epoch: self.ring.back().map_or(0, |b| b.epoch),
            epoch_len,
            drift: self.last_drift,
            cum,
            windows,
        }
    }
}

struct WindowState {
    epoch_len: u64,
    drift_threshold: f64,
    global: TenantWindow,
    tenants: BTreeMap<u64, TenantWindow>,
    references: BTreeMap<u64, Sketch>,
    alarms: Vec<DriftAlarm>,
}

impl WindowState {
    fn new() -> Self {
        Self {
            epoch_len: DEFAULT_EPOCH_LEN,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            global: TenantWindow::new(),
            tenants: BTreeMap::new(),
            references: BTreeMap::new(),
            alarms: Vec::new(),
        }
    }
}

fn state() -> &'static Mutex<WindowState> {
    static STATE: OnceLock<Mutex<WindowState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(WindowState::new()))
}

fn lock() -> std::sync::MutexGuard<'static, WindowState> {
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Feeds one tenanted decision into the tenant's window and the global
/// window. Called by [`crate::record_audit`] for audits carrying a
/// tenant id; call directly only in tests. No-op while the registry is
/// disabled.
pub fn observe_decision(tenant: u64, audit: &AuthAudit) {
    if !collecting() {
        return;
    }
    let mut guard = lock();
    // Reborrow through the guard once, so the windows, the reference
    // sketches and the alarm list borrow as the disjoint fields they are.
    let st = &mut *guard;
    let epoch_len = st.epoch_len.max(1);
    let threshold = st.drift_threshold;

    // Global window first (no drift reference — drift is per tenant).
    st.global.absorb(audit);
    st.global.maybe_close_epoch(epoch_len, None, threshold);

    let window = st.tenants.entry(tenant).or_insert_with(TenantWindow::new);
    window.absorb(audit);
    let reference = st.references.get(&tenant);
    if let Some(score) = window.maybe_close_epoch(epoch_len, reference, threshold) {
        let epoch = window.ring.back().map_or(0, |b| b.epoch.saturating_sub(1));
        st.alarms.push(DriftAlarm {
            tenant,
            epoch,
            score,
            threshold,
        });
        crate::counter!("obs.drift_alarms").inc();
    }
}

/// Feeds one end-to-end latency observation (nanoseconds) into the
/// tenant's and the global current epoch buckets. Latency does not
/// advance epochs — only decisions do.
pub fn observe_latency(tenant: u64, ns: u64) {
    if !collecting() {
        return;
    }
    let mut st = lock();
    st.global.observe_latency(ns);
    st.tenants
        .entry(tenant)
        .or_insert_with(TenantWindow::new)
        .observe_latency(ns);
}

/// Builds a reference sketch from a slice of enrolment-corpus gate
/// margins.
pub fn reference_from_margins(margins: &[f64]) -> Sketch {
    let mut s = Sketch::new();
    for &m in margins {
        s.add(m);
    }
    s
}

/// Freezes `reference` as the drift baseline for `tenant`, replacing
/// any previous one and re-arming the alarm.
pub fn set_reference(tenant: u64, reference: Sketch) {
    let mut st = lock();
    st.references.insert(tenant, reference);
    if let Some(w) = st.tenants.get_mut(&tenant) {
        w.last_drift = None;
    }
}

/// Overrides the decisions-per-epoch length (clamped to ≥ 1). Affects
/// only epochs closed after the call; tests use short epochs to
/// exercise ring turnover quickly.
pub fn set_epoch_len(len: u64) {
    lock().epoch_len = len.max(1);
}

/// The decisions-per-epoch length in force.
pub fn epoch_len() -> u64 {
    lock().epoch_len
}

/// Sets the PSI threshold above which a [`DriftAlarm`] is recorded.
pub fn set_drift_threshold(threshold: f64) {
    lock().drift_threshold = threshold;
}

/// The PSI alarm threshold in force.
pub fn drift_threshold() -> f64 {
    lock().drift_threshold
}

/// Snapshot of one tenant's windows, if the tenant has ever decided.
pub fn snapshot_tenant(tenant: u64) -> Option<WindowSnapshot> {
    let st = lock();
    st.tenants
        .get(&tenant)
        .map(|w| w.snapshot(Some(tenant), st.epoch_len))
}

/// Snapshot of the cross-tenant global window.
pub fn snapshot_global() -> WindowSnapshot {
    let st = lock();
    st.global.snapshot(None, st.epoch_len)
}

/// Global window plus every tenant window, tenants in ascending id
/// order.
pub fn snapshot_windows() -> (WindowSnapshot, Vec<WindowSnapshot>) {
    let st = lock();
    let global = st.global.snapshot(None, st.epoch_len);
    let tenants = st
        .tenants
        .iter()
        .map(|(&t, w)| w.snapshot(Some(t), st.epoch_len))
        .collect();
    (global, tenants)
}

/// Drains all drift alarms recorded since the last drain, in recording
/// order.
pub fn take_drift_alarms() -> Vec<DriftAlarm> {
    std::mem::take(&mut lock().alarms)
}

/// Drops every window, reference sketch, and pending alarm, and
/// restores the default epoch length and drift threshold. Test and
/// bench harnesses call this between workloads.
pub fn reset_windows() {
    let mut st = lock();
    *st = WindowState::new();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(margin: f64, accepted: bool) -> AuthAudit {
        AuthAudit {
            trace: 0,
            seq: 0,
            tenant: None,
            claimed_user: Some(1),
            beeps: 3,
            votes: vec![(1, 2)],
            votes_needed: 2,
            best_gate_margin: Some(margin),
            channels: 6,
            degraded_mask: 0,
            retry_index: 0,
            verdict: if accepted {
                AuthVerdict::Accepted { user_id: 1 }
            } else {
                AuthVerdict::Rejected
            },
            reject_kind: if accepted {
                RejectKind::None
            } else {
                RejectKind::NoMajority
            },
            reject_reason: if accepted { String::new() } else { "nm".into() },
            spatial_coherence: Some(0.4),
        }
    }

    #[test]
    fn epochs_advance_on_decision_count() {
        let _guard = crate::unit_test_lock();
        reset_windows();
        set_epoch_len(4);
        for i in 0..10 {
            observe_decision(7, &audit(0.1, i % 2 == 0));
        }
        let snap = snapshot_tenant(7).unwrap();
        assert_eq!(snap.epoch, 2, "10 decisions / epoch_len 4 → epoch 2");
        assert_eq!(snap.cum.decisions, 10);
        assert_eq!(snap.cum.accepted, 5);
        assert_eq!(
            snap.cum.rejects[reject_slot(RejectKind::NoMajority).unwrap()],
            5
        );
        // 1-epoch rollup sees only the current partial epoch.
        assert_eq!(snap.windows[0].decisions, 2);
        // 64-epoch rollup sees everything.
        assert_eq!(snap.windows[2].decisions, 10);
        // Each rollup spans the epochs it merged, the partial one included.
        assert_eq!(snap.windows.each_ref().map(|w| w.epochs), [1, 3, 3]);
        assert_eq!(snap.cum.epochs, 3);
        let global = snapshot_global();
        assert_eq!(global.cum.decisions, 10);
        assert_eq!(global.tenant, None);
        reset_windows();
    }

    #[test]
    fn latency_feeds_windows_without_advancing_epochs() {
        let _guard = crate::unit_test_lock();
        reset_windows();
        set_epoch_len(4);
        observe_decision(3, &audit(0.0, true));
        for _ in 0..100 {
            observe_latency(3, 2_000_000);
        }
        let snap = snapshot_tenant(3).unwrap();
        assert_eq!(snap.epoch, 0, "latency must not close epochs");
        assert_eq!(snap.cum.lat.count, 100);
        assert!(snap.cum.lat.quantile_ns(0.5).unwrap() > 1_000_000);
        reset_windows();
    }

    #[test]
    fn ring_caps_at_window_epochs_but_cum_survives() {
        let _guard = crate::unit_test_lock();
        reset_windows();
        set_epoch_len(1);
        let total = (WINDOW_EPOCHS + 40) as u64;
        for _ in 0..total {
            observe_decision(1, &audit(0.2, true));
        }
        let snap = snapshot_tenant(1).unwrap();
        assert_eq!(snap.cum.decisions, total);
        // The 64-bucket rollup spans the current (empty) partial epoch
        // plus the 63 most recent closed ones.
        assert_eq!(snap.windows[2].decisions, WINDOW_EPOCHS as u64 - 1);
        assert_eq!(snap.epoch, total);
        reset_windows();
    }

    #[test]
    fn drift_alarm_fires_once_per_crossing() {
        let _guard = crate::unit_test_lock();
        reset_windows();
        set_epoch_len(8);
        // Reference population centred at +0.5.
        let reference = reference_from_margins(&vec![0.5; 256]);
        set_reference(42, reference);
        // Live population centred at -0.5: a major shift.
        for _ in 0..32 {
            observe_decision(42, &audit(-0.5, false));
        }
        let snap = snapshot_tenant(42).unwrap();
        let drift = snap.drift.expect("epochs closed with a reference set");
        assert!(drift > DEFAULT_DRIFT_THRESHOLD, "shifted margins: {drift}");
        let alarms = take_drift_alarms();
        assert_eq!(alarms.len(), 1, "one alarm per upward crossing");
        assert_eq!(alarms[0].tenant, 42);
        assert!(alarms[0].score > alarms[0].threshold);
        assert!(take_drift_alarms().is_empty());
        reset_windows();
    }

    #[test]
    fn matching_population_stays_quiet() {
        let _guard = crate::unit_test_lock();
        reset_windows();
        set_epoch_len(8);
        set_reference(5, reference_from_margins(&vec![0.3; 256]));
        for _ in 0..32 {
            observe_decision(5, &audit(0.3, true));
        }
        let snap = snapshot_tenant(5).unwrap();
        let drift = snap.drift.unwrap();
        assert!(drift < 0.1, "same population must read stable: {drift}");
        assert!(take_drift_alarms().is_empty());
        reset_windows();
    }

    #[test]
    fn fingerprint_ignores_wall_clock_fields() {
        let _guard = crate::unit_test_lock();
        reset_windows();
        set_epoch_len(4);
        for _ in 0..6 {
            observe_decision(9, &audit(0.15, true));
            observe_latency(9, 1_000);
        }
        let a = snapshot_tenant(9).unwrap();
        let fp_a = a.fingerprint();
        // Same logical content, different wall-clock latencies and qps.
        reset_windows();
        set_epoch_len(4);
        for _ in 0..6 {
            observe_decision(9, &audit(0.15, true));
            observe_latency(9, 999_999);
        }
        let b = snapshot_tenant(9).unwrap();
        assert_eq!(fp_a, b.fingerprint());
        // But a different decision stream changes it.
        observe_decision(9, &audit(0.15, true));
        let c = snapshot_tenant(9).unwrap();
        assert_ne!(fp_a, c.fingerprint());
        reset_windows();
    }
}
