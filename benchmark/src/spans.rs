//! The benchmark's own spans: one per call into a layer's public function,
//! kept in memory and written out when the run ends.
//!
//! Single-threaded by construction (the serial reference cycle), so a plain
//! stack gives each span its parent. A span's self time is its duration
//! minus the part its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::median;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one reference cycle share this identifier.
    pub cycle: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    cycle: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cycle: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span named `name`, child of whichever span is open.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            cycle: self.cycle,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Starts the next cycle: spans opened from now on carry a new id.
    pub fn next_cycle(&mut self) {
        self.cycle += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cycle\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cycle
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: duration minus its direct children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name summary of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: usize,
    pub p50_us: f64,
    /// This name's summed self time as a share of the roots' summed wall.
    pub self_frac: f64,
}

/// Summarises spans by name; `self_frac`s are shares of the total duration
/// of the parentless spans, so over all names they sum to 1.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let own = self_times_ns(spans);
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let mut durs: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(&own) {
        let e = durs.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e3);
        e.1 += own_ns;
    }
    durs.into_iter()
        .map(|(name, (d, own_ns))| {
            let stats = NameStats {
                count: d.len(),
                p50_us: median(&d),
                self_frac: own_ns as f64 / wall.max(1) as f64,
            };
            (name, stats)
        })
        .collect()
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
            cycle: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 { a 10..60 { b 20..30 }, a 70..90 }
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let by_name = summarize(&spans);
        assert_eq!(by_name["root"].self_frac, 0.30);
        assert_eq!(by_name["a"].self_frac, 0.60);
        assert_eq!(by_name["b"].self_frac, 0.10);
        assert_eq!(by_name["a"].count, 2);
        assert!((by_name["a"].p50_us - 0.035).abs() < 1e-12);
        let total: f64 = by_name.values().map(|s| s.self_frac).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scopes_nest_and_share_the_cycle_id() {
        let mut t = Tracer::new();
        t.scope("cycle", |t| {
            t.scope("inner", |_| std::hint::black_box(1 + 1));
        });
        t.next_cycle();
        t.scope("cycle", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].cycle, s[1].cycle, s[2].cycle), (0, 0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
