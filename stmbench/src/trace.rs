//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records a name, start and end (nanoseconds since the run's
//! origin), the span that encloses it and how many operations it covers.
//! Load loops are generic over [`Spans`], so the untraced run compiles the
//! span calls away ([`NoTrace`]) and only the traced run pays for them
//! ([`Tracer`]).  Per-name totals cover every span; the first
//! [`SPAN_CAP`] spans of each tracer are also kept whole and written out
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept whole per tracer; later spans still count in the totals.
pub const SPAN_CAP: usize = 1 << 16;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.get`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// 1-based index of the enclosing span in the same tracer, 0 for none.
    pub parent: u32,
    /// Operations the span covers.
    pub ops: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Total {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded.
    pub spans: u64,
    /// Operations they covered.
    pub ops: u64,
    /// Summed duration, nanoseconds.
    pub ns: u64,
}

impl Total {
    /// Mean nanoseconds per covered operation (0 when nothing ran).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// What a load loop calls at each layer boundary.
pub trait Spans {
    /// Opens a span named `name`, nested in the innermost open one.
    fn enter(&mut self, name: &'static str);
    /// Closes the innermost open span, crediting it with `ops` operations.
    fn exit(&mut self, ops: u64);
}

/// The untraced run: every call is a no-op.
pub struct NoTrace;

impl Spans for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit(&mut self, _ops: u64) {}
}

/// An open span: its name, start and its slot among the kept spans.
struct Open {
    name: &'static str,
    start_ns: u64,
    /// 1-based index into `spans`, 0 when past the cap.
    slot: u32,
}

/// The traced run's span recorder (one per thread; merge with
/// [`Tracer::absorb`]).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    totals: Vec<Total>,
    open: Vec<Open>,
}

impl Tracer {
    /// A tracer timing from `origin` (share one origin across threads so
    /// their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            totals: Vec::new(),
            open: Vec::new(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `ops` operations.
    pub fn span<R>(&mut self, name: &'static str, ops: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit(ops);
        out
    }

    /// Totals for `name`, zero when no such span was recorded.
    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .copied()
            .find(|t| t.name == name)
            .unwrap_or(Total {
                name: "",
                spans: 0,
                ops: 0,
                ns: 0,
            })
    }

    /// The spans kept whole, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds another tracer's totals into this one and appends its kept
    /// spans (parents re-based onto this tracer's indexes), up to the cap.
    pub fn absorb(&mut self, other: Tracer) {
        for t in &other.totals {
            self.add_total(t.name, t.spans, t.ops, t.ns);
        }
        let base = self.spans.len() as u32;
        let room = (SPAN_CAP * 4).saturating_sub(self.spans.len());
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut s| {
                if s.parent != 0 {
                    s.parent += base;
                }
                s
            }));
    }

    fn add_total(&mut self, name: &'static str, spans: u64, ops: u64, ns: u64) {
        match self.totals.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.spans += spans;
                t.ops += ops;
                t.ns += ns;
            }
            None => self.totals.push(Total {
                name,
                spans,
                ops,
                ns,
            }),
        }
    }

    /// Renders the kept spans as TSV: index, name, start, end, parent, ops.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\tops\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.ops
            );
        }
        out
    }
}

impl Spans for Tracer {
    #[inline]
    fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().map_or(0, |o| o.slot);
        let start_ns = self.now_ns();
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                ops: 0,
            });
            self.spans.len() as u32
        } else {
            0
        };
        self.open.push(Open {
            name,
            start_ns,
            slot,
        });
    }

    #[inline]
    fn exit(&mut self, ops: u64) {
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("exit without a matching enter");
        if open.slot != 0 {
            let span = &mut self.spans[open.slot as usize - 1];
            span.end_ns = end_ns;
            span.ops = ops;
        }
        self.add_total(open.name, 1, ops, end_ns - open.start_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_total_by_name() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", 2, |t| {
            t.span("inner", 1, |_| ());
            t.span("inner", 1, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[2].parent, 1);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(t.total("inner").spans, 2);
        assert_eq!(t.total("inner").ops, 2);
        assert_eq!(t.total("outer").ops, 2);
        assert_eq!(t.total("absent").ops, 0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("x", 1, |_| ());
        let mut b = Tracer::new(origin);
        b.span("y", 1, |t| t.span("z", 1, |_| ()));
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].name, "z");
        assert_eq!(spans[2].parent, 2);
        assert_eq!(a.total("z").spans, 1);
    }
}
