//! In-memory spans recorded around calls into each layer.
//!
//! A span is `(name, start, end, parent, run)`: the parent is the span
//! that was open on the same thread when it began, and the run id names
//! the benchmark operation it belongs to. Spans stay in memory while the
//! benchmark measures and are written out once, at exit.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub run: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle on an open span; inert when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// Records spans on one thread. When off, `enter`/`exit` are a branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u64,
}

impl Tracer {
    /// A tracer timing from `origin`; records nothing unless `on`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Tags spans opened from now on with operation `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
    }

    /// Closes every open span now: the operation they covered panicked.
    pub fn abandon(&mut self) {
        let now = self.now_ns();
        for id in self.stack.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span must be closed");
        self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children may overlap one another and
/// may run past their parent; the covered part is the union of their
/// intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total and self time, in seconds, of the spans named `name`.
pub fn time_of(spans: &[Span], selfs: &[u64], name: &str) -> (f64, f64) {
    let (mut total, mut own) = (0u64, 0u64);
    for (s, &st) in spans.iter().zip(selfs) {
        if s.name == name {
            total += s.dur_ns();
            own += st;
        }
    }
    (total as f64 * 1e-9, own as f64 * 1e-9)
}

/// Writes spans as JSON Lines, one span per line in recording order.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 72);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run
        );
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("grandchild", 15, 35, Some(1)),
            span("child", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40, "children cover 10..70 once");
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span("op", 20, 80, None),
            span("early", 0, 30, Some(0)),
            span("late", 70, 200, Some(0)),
        ];
        assert_eq!(
            self_times(&spans)[0],
            40,
            "only 20..30 and 70..80 are covered"
        );
    }

    #[test]
    fn tracer_nests_and_merge_rebases_parents() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_run(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        let a = t.into_spans();
        assert_eq!(a[1].parent, Some(0));
        assert!(a.iter().all(|s| s.run == 7));
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, Some(2));
        let (total, own) = time_of(&merged, &self_times(&merged), "inner");
        assert_eq!(total, own, "a leaf's self time is its duration");
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.enter("x");
        t.exit(s);
        assert!(t.into_spans().is_empty());
    }
}
