//! In-memory spans for the traced run: name, start, end, parent span and
//! request id, kept in a vector and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `features` or `serve.roundtrip`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (method or batch id).
    pub req: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelfTime {
    /// Summed self time, ns.
    pub ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Records spans with a stack of open spans supplying parents.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied(), req });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let r = f();
        self.end(id);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index: its duration minus the part
    /// of its interval its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans.iter().zip(&mut children).map(|(s, kids)| self_time((s.start, s.end), kids)).collect()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.ns += ns;
            e.count += 1;
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `index name start_ns end_ns parent req`.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(w, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.req)?;
        }
        Ok(())
    }
}

/// A span's self time: its duration minus the union of its children's
/// intervals, each clipped to the span. `children` is sorted in place.
pub fn self_time(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = span;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time((0, 100), &mut []), 100);
        assert_eq!(self_time((0, 100), &mut [(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two overlapping children cover 10..50 once.
        assert_eq!(self_time((0, 100), &mut [(30, 50), (10, 40)]), 60);
        // A child overhanging the parent is clipped to it.
        assert_eq!(self_time((10, 20), &mut [(5, 15)]), 5);
        // A child that covers everything leaves no self time.
        assert_eq!(self_time((10, 20), &mut [(0, 30)]), 0);
    }

    #[test]
    fn tracer_self_times_sum_to_the_root() {
        let mut t = Tracer::new();
        let root = t.begin("root", 1);
        t.span("a", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let b = t.begin("b", 1);
        t.span("a", 1, || std::hint::black_box(0));
        t.end(b);
        t.end(root);
        let times = t.self_times();
        let total: u64 = times.values().map(|s| s.ns).sum();
        let root = &t.spans()[0];
        assert_eq!(total, root.end - root.start, "self times partition the root span");
        assert_eq!(times["a"].count, 2);
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2), "nested span parents on the innermost open span");
        assert!(times["a"].ns >= 2_000_000);
    }

    #[test]
    fn spans_are_written_one_line_each() {
        let mut t = Tracer::new();
        t.span("x", 7, || ());
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().starts_with("0\tx\t"));
        assert!(text.lines().nth(1).unwrap().ends_with("\t-\t7"));
    }
}
