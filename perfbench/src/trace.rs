//! A std-only span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions; the program's own tracing stays
//! off. Every span keeps its name, parent, start, end and thread, in
//! memory until the run writes them out as JSONL.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one traced op, from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Where the next span goes: a tracer (or none, for the untraced path)
/// and the parent span. Copyable, so it crosses into worker closures.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<u32>,
}

impl<'a> Scope<'a> {
    /// Records nothing: the same code runs untraced.
    pub const OFF: Scope<'static> = Scope {
        tracer: None,
        parent: None,
    };

    /// Top-level spans of `tracer`.
    pub fn root(tracer: &'a Tracer) -> Self {
        Scope {
            tracer: Some(tracer),
            parent: None,
        }
    }

    /// Runs `f` inside a span called `name`; `f` gets the scope for the
    /// span's children.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> T {
        let Some(tracer) = self.tracer else {
            return f(self);
        };
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let out = f(Scope {
            tracer: Some(tracer),
            parent: Some(id),
        });
        let end_ns = tracer.now_ns();
        let span = Span {
            id,
            parent: self.parent,
            name,
            start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
        };
        tracer.spans.lock().expect("span log poisoned").push(span);
        out
    }
}

/// Length covered by the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
        }
        reach = reach.max(end);
    }
    covered
}

/// The part of `span` its direct children cover, counting overlapping
/// (parallel) children once.
pub fn children_ns(span: &Span, spans: &[Span]) -> u64 {
    union_ns(
        spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .collect(),
    )
}

/// Self time: the span's duration minus what its children cover.
pub fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    span.dur_ns() - children_ns(span, spans)
}

/// Summed duration of every span called `name`, seconds. For spans on
/// parallel workers this is busy time, not wall time.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum()
}

/// The single root span, `op`.
pub fn root(spans: &[Span]) -> &Span {
    let mut roots = spans.iter().filter(|s| s.parent.is_none());
    let op = roots.next().expect("a traced op records a root span");
    assert!(roots.next().is_none(), "one root span per traced op");
    op
}

/// Appends `spans` of traced op `op` to a JSONL writer, one span a line,
/// each with its self time.
pub fn write_jsonl(out: &mut impl Write, op: usize, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"op\":{op},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"thread\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns(s, spans),
            s.thread
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only() {
        // op [0,100) ⊃ a [10,40) ⊃ a1 [15,35); op ⊃ b [50,70).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 35),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_ns(&spans[0], &spans), 50);
        assert_eq!(self_ns(&spans[1], &spans), 10);
        assert_eq!(self_ns(&spans[2], &spans), 20);
        assert_eq!(self_ns(&spans[3], &spans), 20);
    }

    #[test]
    fn overlapping_parallel_children_count_once() {
        // Two workers under one fan-out: [10,60) and [30,90) cover 80,
        // not 110; a child poking past its parent is clipped.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 30, 90),
            span(3, Some(0), 95, 120),
        ];
        assert_eq!(children_ns(&spans[0], &spans), 85);
        assert_eq!(self_ns(&spans[0], &spans), 15);
        assert_eq!(busy_s(&spans[1..3], "x"), 110e-9);
    }

    #[test]
    fn union_handles_containment_and_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (2, 5), (20, 25)]), 15);
        assert_eq!(union_ns(vec![(5, 5), (3, 4)]), 1);
    }

    #[test]
    fn scopes_nest_across_threads() {
        let tracer = Tracer::new();
        Scope::root(&tracer).span("op", |op| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || op.span("work", |_| ()));
                }
            });
        });
        let spans = tracer.spans();
        let op = root(&spans);
        assert_eq!(op.name, "op");
        let work: Vec<_> = spans.iter().filter(|s| s.name == "work").collect();
        assert_eq!(work.len(), 2);
        assert!(work.iter().all(|w| w.parent == Some(op.id)));
        assert_ne!(work[0].thread, work[1].thread);
        assert_eq!(Scope::OFF.span("op", |_| 7), 7);
    }
}
