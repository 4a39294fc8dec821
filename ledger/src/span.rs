//! In-memory spans around the harness's calls into each layer.
//!
//! The harness is single-threaded, so the open spans form a stack and a
//! span's parent is whatever was open when it began. Spans are kept in
//! memory and written out once, after measurement, as a Chrome trace.

use std::time::Instant;

use bw_trace::chrome::ArgValue;
use bw_trace::ChromeEvent;

/// One timed call: `name`, when it ran, the span that was open around it
/// and the op (request or simulator pass) it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` belonging to op `op`. Spans
    /// begun inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = now;
        out
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Durations of the spans called `name` whose parent is called
    /// `parent`.
    pub fn durations_under(&self, name: &str, parent: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::duration_ns)
            .collect()
    }

    /// Self times of every span called `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let all = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// The first `cap` spans as Chrome complete events on one track
    /// (Perfetto nests them by containment); `args` carry the op, the
    /// parent's index and the self time.
    pub fn chrome_events(&self, cap: usize) -> Vec<ChromeEvent> {
        let selves = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selves)
            .take(cap)
            .map(|(s, self_ns)| {
                let mut args = vec![
                    ("op".to_owned(), ArgValue::Int(s.op)),
                    ("self_ns".to_owned(), ArgValue::Int(self_ns)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_owned(), ArgValue::Int(p as u64)));
                }
                ChromeEvent {
                    name: s.name.to_owned(),
                    cat: "ledger".to_owned(),
                    ph: 'X',
                    ts_us: s.start_ns as f64 / 1e3,
                    dur_us: Some(s.duration_ns() as f64 / 1e3),
                    pid: 0,
                    tid: 0,
                    args,
                }
            })
            .collect()
    }
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selves: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selves[p] = selves[p].saturating_sub(s.duration_ns());
        }
    }
    selves
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
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("op", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            span("wait", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn tracer_records_parents_and_ops() {
        let mut t = Tracer::new(true);
        let v = t.span("op", 7, |t| {
            t.span("child", 7, |_| 1) + t.span("child", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None, 7),
                ("child", Some(0), 7),
                ("child", Some(0), 7)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.durations_ns("child").len(), 2);
        let op_self = t.self_times_ns("op")[0];
        assert!(op_self <= t.durations_ns("op")[0]);
        let json = bw_trace::chrome_trace_json(&t.chrome_events(2));
        assert_eq!(bw_trace::validate_chrome_trace(&json), Ok(2));
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", 0, |t| t.span("child", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
