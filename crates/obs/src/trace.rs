//! Per-attempt flight recorder: trace ids, hierarchical spans, and a
//! bounded ring buffer with deterministic logical sequence numbers.
//!
//! # Model
//!
//! A *trace* is one top-level unit of work — a beep/auth attempt, an
//! eval batch, an enrolment run. Trace ids are small serial integers
//! minted from a process-global counter by [`root_span`]. Every other
//! span is a child created through [`TraceCtx::child`] /
//! [`TraceCtx::child_at`]; span ids are *derived by hashing*
//! `(parent id, name, logical index)`, never by consuming global
//! state, so a subtree built by eight worker threads gets exactly the
//! ids the serial run would produce.
//!
//! # Determinism contract
//!
//! Wall-clock fields (`start_ns`, `dur_ns`) are machine-dependent and
//! excluded from the contract. Everything else — the set of spans,
//! their parent/child structure, names, logical indices, attributes,
//! and the logical sequence numbers assigned by [`take_spans`] — is
//! bit-identical across `ECHOIMAGE_THREADS=1/0` for the same workload,
//! provided (a) root spans are minted from the coordinating thread
//! (parallel workers receive a `TraceCtx` and derive children), and
//! (b) the ring buffer does not overflow mid-trace (eviction order is
//! arrival order, which is scheduler-dependent; the
//! `trace.events_dropped` counter exposes any overflow).
//!
//! Sequence numbers are *logical*, not temporal: [`take_spans`]
//! canonicalises the drained events into a depth-first walk of each
//! trace tree with siblings ordered by `(logical index, name)` and
//! numbers the nodes in walk order. Two runs that build the same tree
//! therefore report the same sequence numbers no matter how their
//! threads interleaved.
//!
//! # One timer
//!
//! A [`TraceSpan`] is also the crate's only scope timer. A child timed
//! into a histogram ([`TraceSpan::time_into`], which the [`crate::stage!`]
//! macro calls) reads the trace-epoch clock once at open and once at
//! close, feeds that one duration to the histogram whenever the registry
//! is enabled, and records the same duration as its
//! [`SpanEvent::dur_ns`] when the context is live. A stage's histogram
//! and its spans therefore sum to the same nanoseconds.
//!
//! # Cost when off
//!
//! Tracing is off by default. [`root_span`] then reduces to one relaxed
//! atomic load returning a dead span; dead contexts produce dead
//! children for free, and dead spans skip attribute pushes and record
//! nothing on drop beyond their histogram, if they carry one.

use crate::histogram::Histogram;
use crate::registry::collecting;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Capacity of the span ring buffer. At ~120 bytes per event this
/// bounds recorder memory to a few MiB; a full-protocol eval run emits
/// on the order of 10³–10⁴ spans, so overflow indicates either a
/// pathological workload or a forgotten [`take_spans`] drain.
pub const TRACE_RING_CAPACITY: usize = 65_536;

/// Capacity of the audit ring buffer (see [`crate::audit`]). Audits are
/// one record per authentication decision, far sparser than spans.
pub const AUDIT_RING_CAPACITY: usize = 8_192;

/// Master switch for span tracing, independent of the metrics registry
/// switch: metrics default on, tracing defaults off (opt-in via
/// `--trace-out` or [`set_trace_enabled`]).
static TRACE_ON: AtomicBool = AtomicBool::new(false);

/// Sample 1-in-N root traces; 0 and 1 both mean "every trace".
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);

/// Next trace serial. Starts at 1 so trace id 0 can mean "untraced".
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Enables or disables span tracing. Disabled (the default) reduces
/// every trace call site to a single relaxed flag load.
pub fn set_trace_enabled(enabled: bool) {
    TRACE_ON.store(enabled, Ordering::Relaxed);
}

/// Whether span tracing is currently enabled (tracing also requires the
/// global registry switch, see [`crate::set_enabled`]).
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed) && collecting()
}

/// Keeps 1-in-`n` traces, decided deterministically on the trace id:
/// trace serial `t` is sampled iff `(t - 1) % n == 0` (so sampling
/// 1-in-4 keeps traces 1, 5, 9, …). Sampled-out roots still consume a
/// serial, which keeps trace ids stable across sampling rates. `0` and
/// `1` both mean "keep every trace".
pub fn set_trace_sampling(n: u64) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// Current 1-in-N sampling rate.
pub fn trace_sampling() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed).max(1)
}

fn sampled(trace: u64) -> bool {
    let n = SAMPLE_EVERY.load(Ordering::Relaxed);
    n <= 1 || (trace - 1).is_multiple_of(n)
}

/// Process-wide monotonic epoch: all span timestamps are nanoseconds
/// since the first trace event of the process, which keeps them small
/// and lets exporters subtract nothing.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// 64-bit splitmix finaliser — the id mixer. Bijective, so distinct
/// inputs stay distinct.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives a child span id from its parent id, stage name, and logical
/// index. Pure function of logical structure — no clocks, no counters —
/// which is what makes span ids thread-count independent. Forced
/// nonzero because 0 means "no parent".
fn derive_span_id(parent: u64, name: &str, lidx: u64) -> u64 {
    let mut h = crate::fnv1a64(name.as_bytes());
    h ^= mix64(parent);
    h = h.wrapping_add(mix64(lidx.wrapping_add(0x5EED)));
    let id = mix64(h);
    if id == 0 {
        1
    } else {
        id
    }
}

/// A span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

/// One completed span, as drained by [`take_spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Trace serial this span belongs to.
    pub trace: u64,
    /// Derived span id (see `derive_span_id`); nonzero.
    pub span: u64,
    /// Parent span id, or 0 for the trace root.
    pub parent: u64,
    /// Stage name (static by construction).
    pub name: &'static str,
    /// Logical index distinguishing same-name siblings (beep index,
    /// job index, retry index, …).
    pub lidx: u64,
    /// Start, nanoseconds since the process trace epoch. Wall-clock:
    /// excluded from the determinism contract.
    pub start_ns: u64,
    /// Duration in nanoseconds. Wall-clock: excluded from the contract.
    pub dur_ns: u64,
    /// Logical sequence number: position of this span in the canonical
    /// depth-first walk of its trace tree (root = 0). Assigned by
    /// [`take_spans`]; 0 in the raw ring.
    pub seq: u64,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

struct Ring {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            events: VecDeque::new(),
            dropped: 0,
        })
    })
}

fn push_event(ev: SpanEvent) {
    let overflowed = {
        let mut ring = ring().lock().unwrap();
        let overflowed = ring.events.len() >= TRACE_RING_CAPACITY;
        if overflowed {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
        overflowed
    };
    if overflowed {
        // Counter bumped outside the ring lock; the count is advisory
        // (overflow already voids the determinism contract).
        crate::counter!("trace.events_dropped").inc();
    }
}

/// Number of events evicted from the ring since the last
/// [`reset_traces`]. Nonzero means the determinism contract is void
/// for the drained window.
pub fn trace_events_dropped() -> u64 {
    ring().lock().unwrap().dropped
}

/// A lightweight handle identifying "where in which trace am I".
/// `Copy`, 16 bytes, cheap to thread through call stacks and closures.
/// A context with `trace == 0` is *dead*: children derived from it are
/// free no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    trace: u64,
    span: u64,
}

impl TraceCtx {
    /// The dead context: spans derived from it record nothing.
    pub const fn none() -> Self {
        TraceCtx { trace: 0, span: 0 }
    }

    /// Trace id, or 0 when dead.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// Whether spans derived from this context will record.
    pub fn is_live(&self) -> bool {
        self.trace != 0
    }

    /// Opens a child span named `name` with logical index 0. Use
    /// [`TraceCtx::child_at`] whenever same-name siblings can exist.
    pub fn child(&self, name: &'static str) -> TraceSpan {
        self.child_at(name, 0)
    }

    /// Opens a child span named `name` with logical index `lidx`.
    /// Same-name siblings must use distinct indices (beep index, job
    /// index, retry number) — the index both disambiguates the derived
    /// span id and fixes canonical sibling order.
    pub fn child_at(&self, name: &'static str, lidx: u64) -> TraceSpan {
        if self.trace == 0 {
            return TraceSpan::dead();
        }
        TraceSpan {
            ctx: TraceCtx {
                trace: self.trace,
                span: derive_span_id(self.span, name, lidx),
            },
            parent: self.span,
            name,
            lidx,
            start_ns: Some(now_ns()),
            histogram: None,
            also: None,
            attrs: Vec::new(),
        }
    }
}

/// An open span, and the crate's one scope timer. On close — drop, so
/// early returns and `?` propagation are covered — it feeds its measured
/// duration to the histograms it carries and, when its context is live,
/// records itself into the ring buffer. Attribute setters take
/// `&mut self`; on a span that is not live they are no-ops.
#[must_use = "a span records on drop; bind it, or it closes at once"]
#[derive(Debug)]
pub struct TraceSpan {
    /// The span's own context; dead unless the span records a trace event.
    ctx: TraceCtx,
    parent: u64,
    name: &'static str,
    lidx: u64,
    /// Clock reading at open (ns since the trace epoch); `None` when
    /// nothing records this span, so the clock is never read.
    start_ns: Option<u64>,
    /// The stage histogram the closing duration feeds
    /// ([`TraceSpan::time_into`]).
    histogram: Option<&'static Histogram>,
    /// A sub-population of that stage fed the same duration
    /// ([`TraceSpan::also_time_into`]).
    also: Option<&'static Histogram>,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl TraceSpan {
    fn dead() -> Self {
        TraceSpan {
            ctx: TraceCtx::none(),
            parent: 0,
            name: "",
            lidx: 0,
            start_ns: None,
            histogram: None,
            also: None,
            attrs: Vec::new(),
        }
    }

    /// Makes this span a stage timer: its closing duration feeds
    /// `histogram`, live context or not, while the registry is enabled
    /// (the span's clock starts here if it has none). Call it through
    /// [`crate::stage!`], which resolves the histogram named like the
    /// stage.
    pub fn time_into(&mut self, histogram: &'static Histogram) {
        if collecting() {
            self.start_ns.get_or_insert_with(now_ns);
            self.histogram = Some(histogram);
        }
    }

    /// Also feeds a stage timer's closing duration to `histogram`, which
    /// counts a sub-population of the stage by the stage's own
    /// measurement (the degraded share of `stage.auth`). A no-op on a
    /// span that times no stage.
    pub fn also_time_into(&mut self, histogram: &'static Histogram) {
        if self.histogram.is_some() {
            self.also = Some(histogram);
        }
    }

    /// The context for opening children of this span.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Whether this span will record a trace event on drop.
    pub fn is_live(&self) -> bool {
        self.ctx.is_live()
    }

    fn push_attr(&mut self, key: &'static str, value: AttrValue) {
        if self.is_live() {
            self.attrs.push((key, value));
        }
    }

    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        self.push_attr(key, AttrValue::U64(value));
    }

    pub fn attr_f64(&mut self, key: &'static str, value: f64) {
        self.push_attr(key, AttrValue::F64(value));
    }

    pub fn attr_bool(&mut self, key: &'static str, value: bool) {
        self.push_attr(key, AttrValue::Bool(value));
    }

    pub fn attr_str(&mut self, key: &'static str, value: &str) {
        self.push_attr(key, AttrValue::Str(value.to_string()));
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(start_ns) = self.start_ns else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(start_ns);
        for histogram in [self.histogram, self.also].into_iter().flatten() {
            histogram.observe_ns(dur_ns);
        }
        if self.is_live() {
            push_event(SpanEvent {
                trace: self.ctx.trace,
                span: self.ctx.span,
                parent: self.parent,
                name: self.name,
                lidx: self.lidx,
                start_ns,
                dur_ns,
                seq: 0,
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

/// Mints a new trace and opens its root span.
///
/// Must be called from the coordinating thread, never from inside a
/// parallel region — trace serials come from a global counter, so
/// concurrent minting would make ids scheduler-dependent. Parallel
/// workers receive the root's [`TraceCtx`] and derive children instead.
///
/// With tracing disabled this is a single relaxed load returning a dead
/// span and *no* serial is consumed; with sampling active, sampled-out
/// roots consume a serial but return a dead span.
pub fn root_span(name: &'static str) -> TraceSpan {
    if !TRACE_ON.load(Ordering::Relaxed) || !collecting() {
        return TraceSpan::dead();
    }
    let trace = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    if !sampled(trace) {
        return TraceSpan::dead();
    }
    TraceSpan {
        ctx: TraceCtx {
            trace,
            span: derive_span_id(0, name, trace),
        },
        parent: 0,
        name,
        lidx: 0,
        start_ns: Some(now_ns()),
        histogram: None,
        also: None,
        attrs: Vec::new(),
    }
}

/// Drains all completed spans, canonicalised.
///
/// Canonicalisation groups events by trace, rebuilds each parent/child
/// tree, walks it depth-first with siblings ordered by
/// `(lidx, name, span id)`, and assigns [`SpanEvent::seq`] from the
/// walk position. Events whose parent is absent from the drained set
/// (including every true root, parent 0) start their own walk, ordered
/// among themselves like siblings. The returned vector is sorted by
/// `(trace, seq)`.
pub fn take_spans() -> Vec<SpanEvent> {
    let drained: Vec<SpanEvent> = {
        let mut ring = ring().lock().unwrap();
        ring.events.drain(..).collect()
    };
    canonicalize(drained)
}

fn canonicalize(events: Vec<SpanEvent>) -> Vec<SpanEvent> {
    use std::collections::{BTreeMap, HashMap, HashSet};

    // Group events per trace, preserving arrival order only as a
    // last-resort tiebreak (never needed when the lidx discipline is
    // followed).
    let mut by_trace: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for ev in events {
        by_trace.entry(ev.trace).or_default().push(ev);
    }

    let mut out = Vec::new();
    for (_, mut group) in by_trace {
        let present: HashSet<u64> = group.iter().map(|e| e.span).collect();
        // Deterministic sibling order, independent of arrival order.
        group.sort_by(|a, b| (a.lidx, a.name, a.span).cmp(&(b.lidx, b.name, b.span)));
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for (i, ev) in group.iter().enumerate() {
            if ev.parent != 0 && present.contains(&ev.parent) {
                children.entry(ev.parent).or_default().push(i);
            } else {
                roots.push(i);
            }
        }
        // Iterative DFS; push children in reverse so the first sibling
        // pops first.
        let mut order: Vec<usize> = Vec::with_capacity(group.len());
        let mut stack: Vec<usize> = roots.into_iter().rev().collect();
        while let Some(i) = stack.pop() {
            order.push(i);
            if let Some(kids) = children.get(&group[i].span) {
                for &k in kids.iter().rev() {
                    stack.push(k);
                }
            }
        }
        let mut seq_of: Vec<u64> = vec![0; group.len()];
        for (seq, &i) in order.iter().enumerate() {
            seq_of[i] = seq as u64;
        }
        let mut trace_events: Vec<SpanEvent> = group;
        for (i, ev) in trace_events.iter_mut().enumerate() {
            ev.seq = seq_of[i];
        }
        trace_events.sort_by_key(|e| e.seq);
        out.extend(trace_events);
    }
    out
}

/// Clears the span ring, the audit buffer, and the trace serial counter
/// so the next [`root_span`] mints trace 1 again. Test/tool hook —
/// unrelated to the metrics [`crate::reset`].
pub fn reset_traces() {
    {
        let mut ring = ring().lock().unwrap();
        ring.events.clear();
        ring.dropped = 0;
    }
    crate::audit::reset_audits();
    NEXT_TRACE.store(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Armed(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
    impl Drop for Armed {
        fn drop(&mut self) {
            set_trace_enabled(false);
            set_trace_sampling(1);
            reset_traces();
        }
    }

    fn armed() -> Armed {
        let guard = crate::unit_test_lock();
        set_trace_enabled(true);
        set_trace_sampling(1);
        reset_traces();
        Armed(guard)
    }

    #[test]
    fn disabled_tracing_records_nothing_and_mints_no_serial() {
        let _g = armed();
        set_trace_enabled(false);
        let root = root_span("work");
        assert!(!root.is_live());
        let mut child = root.ctx().child("sub");
        child.attr_u64("k", 1);
        drop(child);
        drop(root);
        set_trace_enabled(true);
        assert!(take_spans().is_empty());
        // The next live root must still be trace 1.
        let r = root_span("work");
        assert_eq!(r.ctx().trace_id(), 1);
    }

    #[test]
    fn span_tree_gets_canonical_sequence_numbers() {
        let _g = armed();
        {
            let root = root_span("attempt");
            let ctx = root.ctx();
            // Close children out of logical order on purpose.
            let b = ctx.child_at("beep", 1);
            let a = ctx.child_at("beep", 0);
            let inner = a.ctx().child("filter");
            drop(inner);
            drop(b);
            drop(a);
        }
        let spans = take_spans();
        let names: Vec<(&str, u64, u64)> = spans.iter().map(|s| (s.name, s.lidx, s.seq)).collect();
        assert_eq!(
            names,
            vec![
                ("attempt", 0, 0),
                ("beep", 0, 1),
                ("filter", 0, 2),
                ("beep", 1, 3),
            ]
        );
        // Parent links survive canonicalisation.
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].span);
        assert_eq!(spans[2].parent, spans[1].span);
        assert_eq!(spans[3].parent, spans[0].span);
    }

    #[test]
    fn span_ids_are_pure_functions_of_structure() {
        let _g = armed();
        let build = || {
            let root = root_span("attempt");
            let ctx = root.ctx();
            drop(ctx.child_at("beep", 2));
            drop(root);
            let mut spans = take_spans();
            reset_traces();
            spans.sort_by_key(|s| s.seq);
            spans
                .iter()
                .map(|s| (s.trace, s.span, s.parent))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn sampling_keeps_one_in_n_by_trace_serial() {
        let _g = armed();
        set_trace_sampling(4);
        let mut live = Vec::new();
        for _ in 0..8 {
            let r = root_span("attempt");
            if r.is_live() {
                live.push(r.ctx().trace_id());
            }
        }
        assert_eq!(live, vec![1, 5]);
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.trace == 1 || s.trace == 5));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = armed();
        {
            let root = root_span("flood");
            let ctx = root.ctx();
            for i in 0..(TRACE_RING_CAPACITY as u64 + 10) {
                drop(ctx.child_at("tick", i));
            }
        }
        assert!(trace_events_dropped() >= 10);
        let spans = take_spans();
        assert!(spans.len() <= TRACE_RING_CAPACITY);
    }

    #[test]
    fn stage_timer_feeds_its_histogram_and_span_one_duration() {
        let _g = armed();
        let [hist, also] = ["test.trace.timer", "test.trace.also"].map(|n| {
            let h = crate::registry().histogram(n);
            h.reset();
            h
        });
        {
            let root = root_span("attempt");
            let mut timer = root.ctx().child_at("stage", 3);
            timer.time_into(hist);
            timer.also_time_into(also);
            // Untraced: the histogram records, the ring does not.
            let mut untraced = TraceCtx::none().child_at("stage", 4);
            untraced.time_into(hist);
        }
        let spans = take_spans();
        let stage = spans.iter().find(|s| s.name == "stage").unwrap();
        assert_eq!((spans.len(), stage.lidx), (2, 3));
        let (timed, also) = (hist.snapshot(), also.snapshot());
        assert_eq!(timed.count, 2);
        assert!(timed.sum_ns >= stage.dur_ns);
        assert_eq!((also.count, also.sum_ns), (1, stage.dur_ns));
    }

    #[test]
    fn attrs_preserve_insertion_order() {
        let _g = armed();
        {
            let root = root_span("attempt");
            let mut c = root.ctx().child("stage");
            c.attr_u64("beeps", 3);
            c.attr_bool("degraded", false);
            c.attr_f64("margin", -0.25);
            c.attr_str("verdict", "rejected");
        }
        let spans = take_spans();
        let stage = spans.iter().find(|s| s.name == "stage").unwrap();
        let keys: Vec<&str> = stage.attrs.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["beeps", "degraded", "margin", "verdict"]);
        assert_eq!(stage.attrs[2].1, AttrValue::F64(-0.25));
    }
}
