//! The benchmark's own spans, recorded around its calls into each
//! layer. Kept in memory and written out when the run ends, so tracing
//! adds no I/O to the timed path.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The train or request the span belongs to.
    pub id: u64,
    pub parent: Option<SpanId>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// An append-only span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span measured elsewhere (e.g. on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, id, parent, start, Instant::now());
        r
    }

    /// Opens a span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, span: SpanId) {
        self.spans[span].end = Instant::now();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Total milliseconds of spans called `name`, divided by `per`.
    pub fn total_ms_per(&self, name: &str, per: usize) -> f64 {
        let total: f64 = self.durations_ms(name).iter().sum();
        if per == 0 {
            0.0
        } else {
            total / per as f64
        }
    }

    /// Self time of every span called `name`, in milliseconds: its
    /// duration minus the part its direct children cover (children of
    /// one span never overlap here, as each runs on the span's thread).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut covered: HashMap<SpanId, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(covered.get(&i).copied().unwrap_or(0)) as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span: name, id, parent index, and
    /// start/end in nanoseconds from the tracer's creation.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.id,
                at(s.start),
                at(s.end)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = t.record("train", 1, None, ms(0), ms(10));
        let a = t.record("stage.a", 1, Some(root), ms(1), ms(4));
        t.record("stage.a.inner", 1, Some(a), ms(2), ms(3));
        t.record("stage.b", 1, Some(root), ms(5), ms(9));
        assert_eq!(t.self_ms("train"), vec![3.0]);
        assert_eq!(t.self_ms("stage.a"), vec![2.0]);
        assert_eq!(t.durations_ms("stage.b"), vec![4.0]);
        assert_eq!(t.total_ms_per("stage.a", 2), 1.5);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().nth(2).unwrap().contains("\"parent\":1"));
    }
}
