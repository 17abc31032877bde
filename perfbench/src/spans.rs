//! In-memory spans recorded around calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Spans nest through a stack: a span
//! begun while another is open becomes its child. Disabled tracers record
//! nothing, so the untraced runs pay one branch per call site. Spans are
//! written out only when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cap-predictor.session.hybrid`.
    pub name: &'static str,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Wall duration.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`, timed from `epoch`.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans (same epoch) into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap, and a
/// child running past its parent's end is clipped).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// For spans recorded by `repeats` identical repetitions of one piece of
/// work (same spans in the same order each time), the least self time any
/// repetition took at each span position. Their sum is the work's
/// duration with every part at its undisturbed best.
///
/// # Panics
///
/// When the spans do not split into `repeats` equal repetitions.
#[must_use]
pub fn best_repeat(spans: &[Span], repeats: usize) -> Vec<u64> {
    assert!(
        repeats > 0 && spans.len().is_multiple_of(repeats),
        "uneven repetitions"
    );
    let per = spans.len() / repeats;
    let selfs = self_times(spans);
    (0..per)
        .map(|i| (0..repeats).map(|j| selfs[j * per + i]).min().unwrap_or(0))
        .collect()
}

/// Total duration (ns) of every span named `name`.
#[must_use]
pub fn total(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Renders spans as tab-separated `index parent name start_ns end_ns self_ns`.
#[must_use]
pub fn render(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("index\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{own}",
            s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "t",
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 20),
            span(Some(0), 50, 80),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 70),
            span(Some(0), 45, 50),
        ];
        // Union of children is [10, 70): 60 covered.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn nested_grandchildren_charge_only_their_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(1), 20, 30),
            span(Some(1), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 10, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(None, 10, 50),
            span(Some(0), 0, 20),
            span(Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn best_repeat_takes_each_part_at_its_best() {
        // Two repetitions of [outer { a, b }]: outer's own time is 10 then
        // 4, a is 5 then 9, b is 7 then 3.
        let spans = [
            span(None, 0, 22),
            span(Some(0), 2, 7),
            span(Some(0), 10, 17),
            span(None, 100, 116),
            span(Some(3), 101, 110),
            span(Some(3), 112, 115),
        ];
        assert_eq!(best_repeat(&spans, 2), vec![4, 5, 3]);
        assert_eq!(best_repeat(&spans[..3], 1), vec![10, 5, 7]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        t.span("next", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s[0].start <= s[1].start && s[2].end <= s[0].end);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("b", |t| t.span("c", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
