//! In-memory spans around the calls the benchmark makes into the system.
//!
//! Every timed call goes through [`Tracer::timed`], which always measures
//! the call (the end-to-end metrics need the duration) and, when tracing is
//! on, also records a [`Span`]: name, start, end, parent span and operation
//! id. Spans stay in memory and are written out once, at exit. A span's self
//! time is its duration minus the part of it that its children cover
//! ([`self_times`]).

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span id (≥ 1).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to (a cycle, a request, an ingest step).
    pub op: u64,
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent storing spans.
    record_ns: AtomicU64,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            record_ns: AtomicU64::new(0),
        }
    }

    /// Run `f` as span `name` of operation `op` under `parent`, and return
    /// its result with its duration. `f` receives the new span's id (0 when
    /// tracing is off) so it can parent nested spans.
    pub fn timed<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.on {
            self.push(id, parent, op, name, start, end);
        }
        (out, end - start)
    }

    /// Record an interval measured elsewhere (a server-side duration placed
    /// inside the client's request span, say). No-op when tracing is off.
    pub fn record(&self, name: &'static str, op: u64, parent: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, op, name, start, end);
        }
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let t0 = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            op,
            name,
            start: ns(start),
            end: ns(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
        self.record_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Total nanoseconds spent storing spans.
    pub fn record_ns(&self) -> u64 {
        self.record_ns.load(Ordering::Relaxed)
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(&selfs) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start, s.end, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span (same order as `spans`): its duration minus the
/// union of its children's intervals, each clipped to the span. Children may
/// nest or overlap one another (parallel calls); covered time counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(1, 0, 10, 30)]), vec![20]);
    }

    #[test]
    fn nested_children_count_only_at_their_own_level() {
        // 1: [0,100) ⊃ 2: [10,50) ⊃ 3: [20,30); 4: [60,70) under 1.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 2, 20, 30),
            span(4, 1, 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 40 - 10, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Children [10,40) and [30,60) overlap by 10: they cover 50, not 60.
        // A child sticking out past its parent is clipped to it.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn contained_child_does_not_shrink_the_covered_reach() {
        // [10,80) covers [20,30) entirely; [70,90) then adds only [80,90).
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 80),
            span(3, 1, 20, 30),
            span(4, 1, 70, 90),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80);
    }

    #[test]
    fn tracer_records_only_when_on() {
        let off = Tracer::new(false);
        let (v, _) = off.timed("a", 1, 0, |id| id);
        assert_eq!((v, off.spans().len()), (0, 0));
        let on = Tracer::new(true);
        let (outer, _) = on.timed("outer", 7, 0, |id| {
            on.timed("inner", 7, id, |_| ());
            id
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((inner.parent, inner.op), (outer, 7));
    }
}
