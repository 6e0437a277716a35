//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files only, around the calls
//! it makes into each layer's public functions. Each span has a name, a
//! start, an end and a parent; they stay in memory until the run ends and
//! are then written out as one JSON array.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

/// One timed interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span log plus the distinct `(users, context)` step shapes the timed
/// serving-system wrapper saw.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub shapes: BTreeSet<(usize, usize)>,
}

/// The trace shared by the benchmark code and every wrapped replica.
pub type SharedTrace = Rc<RefCell<Trace>>;

impl Trace {
    pub fn shared() -> SharedTrace {
        Rc::new(RefCell::new(Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            shapes: BTreeSet::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total time of spans called `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Number of spans whose name starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .count()
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed by name, seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// The span log as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Runs `f` inside a span called `name`.
pub fn timed<R>(trace: &SharedTrace, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = trace.borrow_mut().begin(name);
    let r = f();
    trace.borrow_mut().end(id);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Trace::shared();
        timed(&t, "outer", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
            timed(&t, "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let t = t.borrow();
        let selfs = t.self_times();
        let total = t.total("outer");
        assert!((selfs["outer"] + selfs["inner"] - total).abs() < 1e-9);
        assert!(selfs["inner"] >= 0.004 && selfs["outer"] >= 0.004);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
