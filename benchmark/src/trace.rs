//! Spans around the calls into each layer, kept in memory and written
//! out when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around public
//! calls; spans inside the product crates are a later change. With
//! tracing off (`--trace 0`) nothing here reads the clock.

use std::time::Instant;

use serde::Value;

/// One recorded interval.
pub struct Span {
    /// Layer-prefixed name, e.g. `core.attach`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Rep the span belongs to (spans of one rep share it).
    pub rep: u32,
}

/// Handle of an open span.
#[must_use = "a span that is never ended records nothing"]
pub struct Open(Option<usize>);

/// In-memory span store.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Recorder {
    /// A recorder; a disabled one ignores every call.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span under whichever span is open now.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close `span` (the innermost open one); returns its seconds, 0 when
    /// disabled.
    pub fn end(&mut self, span: Open) -> f64 {
        let Some(idx) = span.0 else { return 0.0 };
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        let end_ns = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span; returns its result and the span's seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as a JSON array (`name, start_ns, end_ns, parent,
    /// workload, rep`, plus the derived `self_ns`).
    pub fn to_value(&self, workload: &str) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    serde::obj([
                        ("name", Value::Str(s.name.to_string())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("workload", Value::Str(workload.to_string())),
                        ("rep", Value::Num(s.rep as f64)),
                        ("self_ns", Value::Num(self.self_ns(i) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer");
        let ((), inner_s) = rec.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_s = rec.end(outer);
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        let spans = &rec.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let total = spans[0].end_ns - spans[0].start_ns;
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(rec.self_ns(0), total - inner);
        assert_eq!(rec.self_ns(1), inner);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let (v, secs) = rec.span("x", || 7);
        assert_eq!((v, secs), (7, 0.0));
        assert!(rec.spans.is_empty());
    }
}
