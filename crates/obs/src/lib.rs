//! Deterministic observability for the LongSight simulators: a span-based
//! tracer keyed on **simulated time** plus a metrics registry, with Chrome
//! trace-event JSON, flat-text, and JSON exporters.
//!
//! Two guarantees shape the design:
//!
//! 1. **Bit-determinism at any thread count.** Spans carry simulated
//!    nanoseconds, never wall-clock readings, and recording happens on the
//!    serial control path of each simulator (worker closures in
//!    `longsight_exec::deterministic_map` stay pure). Two runs with the same
//!    seeds — at `LONGSIGHT_THREADS=1` or 64 — export byte-identical traces.
//! 2. **Zero cost when disabled.** [`Recorder::disabled`] allocates nothing
//!    (empty `Vec`s) and every mutating method early-returns on a single
//!    branch, so instrumented hot paths with recording off produce the exact
//!    same numbers (and goldens) as uninstrumented code.
//!
//! The exporter emits the Chrome trace-event format (the `traceEvents` array
//! of `ph:"X"` complete events, `ph:"i"` instants, and `ph:"M"` metadata),
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>. Each
//! [`TrackId`] becomes one "thread" row; spans on a track nest through a
//! per-track open stack while separate tracks overlap freely (that overlap is
//! the point: GPU window attention and the DReX offload path run
//! concurrently).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod timeseries;

pub use metrics::{Histogram, MetricsRegistry, DEFAULT_COUNT_EDGES, DEFAULT_MS_EDGES};
pub use timeseries::{BurnAlert, BurnConfig, BurnTotals, TimeSeries};

use json::{escape_into, fmt_f64};

/// Identifies one horizontal row ("thread") in the exported trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(u32);

/// Handle for a span opened with [`Recorder::open`], passed to
/// [`Recorder::close`]. The no-op recorder hands out an inert sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NOOP: u32 = u32::MAX;

/// A borrowed span/instant argument value; stored owned inside the recorder.
#[derive(Debug, Clone, Copy)]
pub enum ArgVal<'a> {
    /// An unsigned integer argument.
    U(u64),
    /// A floating-point argument.
    F(f64),
    /// A string argument.
    S(&'a str),
}

#[derive(Debug, Clone, PartialEq)]
enum OwnedArg {
    U(u64),
    F(f64),
    S(String),
}

/// A completed (or still-open) span. Times are simulated nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Track this span lives on.
    pub track: TrackId,
    /// Span name as shown in the trace viewer.
    pub name: String,
    /// Simulated start time in ns.
    pub start_ns: f64,
    /// Simulated end time in ns; `NaN` until closed.
    pub end_ns: f64,
    /// Enclosing span on the same track, if any.
    pub parent: Option<SpanId>,
    args: Vec<(&'static str, OwnedArg)>,
}

/// A zero-duration instant event (used for fault events).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Track this instant lives on.
    pub track: TrackId,
    /// Event name.
    pub name: String,
    /// Simulated timestamp in ns.
    pub ts_ns: f64,
    args: Vec<(&'static str, OwnedArg)>,
}

#[derive(Debug, Clone, PartialEq)]
struct Track {
    name: String,
    open: Vec<u32>,
}

/// The span + metrics recorder. All methods take `&mut self`; recording is
/// inherently serial, which is what makes the export order (and therefore
/// the export bytes) deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    enabled: bool,
    tracks: Vec<Track>,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    /// Counters, gauges, and histograms recorded alongside the trace.
    pub metrics: MetricsRegistry,
    /// Windowed time-series sampler (disabled by default; see
    /// [`Recorder::enable_timeseries`]).
    pub timeseries: TimeSeries,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder that captures everything.
    pub fn enabled() -> Self {
        Recorder {
            enabled: true,
            tracks: Vec::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            metrics: MetricsRegistry::default(),
            timeseries: TimeSeries::disabled(),
        }
    }

    /// The no-op recorder: allocates nothing, records nothing. Safe to
    /// construct on every call site that needs a default.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            tracks: Vec::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            metrics: MetricsRegistry::default(),
            timeseries: TimeSeries::disabled(),
        }
    }

    /// Whether this recorder captures events. Instrumented code uses this to
    /// skip trace-only work (string formatting, re-simulation for detail).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Switches on the windowed time-series sampler with the given base
    /// window (simulated ns) and burn-rate configuration. Timeseries
    /// recording is opt-in on top of an enabled recorder — trace/metrics-only
    /// runs keep their exports byte-identical because no series, tracks, or
    /// instants are created unless this has been called.
    pub fn enable_timeseries(&mut self, window_ns: f64, burn: BurnConfig) {
        self.timeseries = TimeSeries::enabled(window_ns, burn);
    }

    /// Interns a track by name, creating it on first use. Track order is the
    /// order of first `track()` calls.
    pub fn track(&mut self, name: &str) -> TrackId {
        if !self.enabled {
            return TrackId(NOOP);
        }
        if let Some(i) = self.tracks.iter().position(|t| t.name == name) {
            return TrackId(i as u32);
        }
        self.tracks.push(Track {
            name: name.to_string(),
            open: Vec::new(),
        });
        TrackId((self.tracks.len() - 1) as u32)
    }

    /// Opens a span at `start_ns` on `track`. The span nests under whatever
    /// span is currently open on the same track. Must be paired with
    /// [`close`](Recorder::close).
    pub fn open(&mut self, track: TrackId, name: &str, start_ns: f64) -> SpanId {
        self.open_with(track, name, start_ns, &[])
    }

    /// [`open`](Recorder::open) with key/value arguments.
    pub fn open_with(
        &mut self,
        track: TrackId,
        name: &str,
        start_ns: f64,
        args: &[(&'static str, ArgVal)],
    ) -> SpanId {
        if !self.enabled || track.0 == NOOP {
            return SpanId(NOOP);
        }
        let id = self.push_span(track, name, start_ns, f64::NAN, args);
        self.tracks[track.0 as usize].open.push(id.0);
        id
    }

    /// Closes an open span at `end_ns`.
    pub fn close(&mut self, id: SpanId, end_ns: f64) {
        if !self.enabled || id.0 == NOOP {
            return;
        }
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        let open = &mut self.tracks[span.track.0 as usize].open;
        if let Some(pos) = open.iter().rposition(|&s| s == id.0) {
            open.truncate(pos);
        }
    }

    /// Records a complete span in one call; it nests under the currently open
    /// span on `track` but does not itself go on the open stack.
    pub fn leaf(&mut self, track: TrackId, name: &str, start_ns: f64, end_ns: f64) {
        self.leaf_with(track, name, start_ns, end_ns, &[]);
    }

    /// [`leaf`](Recorder::leaf) with key/value arguments.
    pub fn leaf_with(
        &mut self,
        track: TrackId,
        name: &str,
        start_ns: f64,
        end_ns: f64,
        args: &[(&'static str, ArgVal)],
    ) {
        if !self.enabled || track.0 == NOOP {
            return;
        }
        self.push_span(track, name, start_ns, end_ns, args);
    }

    /// Records a zero-duration instant event.
    pub fn instant(&mut self, track: TrackId, name: &str, ts_ns: f64) {
        self.instant_with(track, name, ts_ns, &[]);
    }

    /// [`instant`](Recorder::instant) with key/value arguments.
    pub fn instant_with(
        &mut self,
        track: TrackId,
        name: &str,
        ts_ns: f64,
        args: &[(&'static str, ArgVal)],
    ) {
        if !self.enabled || track.0 == NOOP {
            return;
        }
        let args = args.iter().map(|(k, v)| (*k, OwnedArg::from(*v))).collect();
        self.instants.push(InstantEvent {
            track,
            name: name.to_string(),
            ts_ns,
            args,
        });
    }

    fn push_span(
        &mut self,
        track: TrackId,
        name: &str,
        start_ns: f64,
        end_ns: f64,
        args: &[(&'static str, ArgVal)],
    ) -> SpanId {
        let parent = self.tracks[track.0 as usize]
            .open
            .last()
            .map(|&i| SpanId(i));
        let args = args.iter().map(|(k, v)| (*k, OwnedArg::from(*v))).collect();
        self.spans.push(Span {
            track,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            args,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Adds `delta` to a named counter (no-op when disabled).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if self.enabled {
            self.metrics.counter_add(name, delta);
        }
    }

    /// Sets a named gauge (no-op when disabled).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.gauge_set(name, value);
        }
    }

    /// Records one histogram observation (no-op when disabled).
    pub fn observe(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.observe(name, value);
        }
    }

    /// Records `n` observations of `value` into one histogram with a
    /// single name lookup (no-op when disabled). Feeding an exact multiset
    /// as ascending `(value, multiplicity)` pairs gives the histogram
    /// [`Recorder::observe_all`] builds from its expansion.
    pub fn observe_n(&mut self, name: &str, value: f64, n: u64) {
        if self.enabled {
            self.metrics.observe_n(name, value, n);
        }
    }

    /// Records every value of `values` into one histogram, in ascending
    /// `total_cmp` order, so the histogram's floating-point sum depends on
    /// the multiset alone and not on the order the caller left the values
    /// in. Sorts `values` in place; no-op (and no sort) when disabled.
    pub fn observe_all(&mut self, name: &str, values: &mut [f64]) {
        if self.enabled {
            values.sort_unstable_by(f64::total_cmp);
            for &v in values.iter() {
                self.metrics.observe(name, v);
            }
        }
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded instants, in creation order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// Number of instants whose name starts with `prefix` (used by the
    /// fault-event parity test).
    pub fn instants_matching(&self, prefix: &str) -> usize {
        self.instants
            .iter()
            .filter(|i| i.name.starts_with(prefix))
            .count()
    }

    /// Checks span-tree invariants: every span closed, `end >= start`,
    /// children lie within their parent's interval on the same track, and the
    /// summed duration of direct children never exceeds the parent's.
    pub fn validate_well_formed(&self) -> Result<(), String> {
        const EPS: f64 = 1e-6; // ns; spans are f64 sums of f64 phase times
        let mut child_sum = vec![0.0f64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if !s.end_ns.is_finite() {
                return Err(format!("span {i} ({}) was never closed", s.name));
            }
            if s.end_ns < s.start_ns - EPS {
                return Err(format!(
                    "span {i} ({}) ends before it starts: [{}, {}]",
                    s.name, s.start_ns, s.end_ns
                ));
            }
            if let Some(SpanId(p)) = s.parent {
                let parent = &self.spans[p as usize];
                if parent.track != s.track {
                    return Err(format!("span {i} ({}) nests across tracks", s.name));
                }
                if s.start_ns < parent.start_ns - EPS || s.end_ns > parent.end_ns + EPS {
                    return Err(format!(
                        "span {i} ({}) [{}, {}] escapes parent {} [{}, {}]",
                        s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                    ));
                }
                child_sum[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.end_ns - s.start_ns;
            // Tolerance scales with magnitude: the sums are f64 additions of
            // the same terms that built the parent interval.
            if child_sum[i] > own + EPS + own.abs() * 1e-9 {
                return Err(format!(
                    "children of span {i} ({}) sum to {} ns > parent {} ns",
                    s.name, child_sum[i], own
                ));
            }
        }
        Ok(())
    }

    /// Exports the Chrome trace-event format: `{"traceEvents": [...]}` with
    /// `ph:"M"` thread metadata, `ph:"X"` complete events, and `ph:"i"`
    /// instants. Timestamps are microseconds (the format's unit), converted
    /// from simulated ns. Event order is creation order, so the output is
    /// byte-deterministic.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        // The process-name metadata event is always first, so every
        // subsequent event is comma-prefixed unconditionally.
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"longsight-sim\"}}",
        );
        for (i, t) in self.tracks.iter().enumerate() {
            out.push(',');
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":",
                i + 1
            ));
            escape_into(&mut out, &t.name);
            out.push_str("}}");
            out.push(',');
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{}}}}}",
                i + 1,
                i + 1
            ));
        }
        for s in &self.spans {
            out.push(',');
            out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&(s.track.0 as usize + 1).to_string());
            out.push_str(",\"name\":");
            escape_into(&mut out, &s.name);
            out.push_str(",\"ts\":");
            out.push_str(&fmt_f64(s.start_ns / 1000.0));
            out.push_str(",\"dur\":");
            out.push_str(&fmt_f64((s.end_ns - s.start_ns).max(0.0) / 1000.0));
            push_args(&mut out, &s.args);
            out.push('}');
        }
        for e in &self.instants {
            out.push(',');
            out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":");
            out.push_str(&(e.track.0 as usize + 1).to_string());
            out.push_str(",\"name\":");
            escape_into(&mut out, &e.name);
            out.push_str(",\"ts\":");
            out.push_str(&fmt_f64(e.ts_ns / 1000.0));
            push_args(&mut out, &e.args);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Machine-readable metrics JSON (see [`MetricsRegistry::to_json`]).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// Flat text report: metrics plus a per-track span/instant census.
    pub fn text_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} spans, {} instants, {} tracks\n",
            self.spans.len(),
            self.instants.len(),
            self.tracks.len()
        ));
        for (i, t) in self.tracks.iter().enumerate() {
            let tid = TrackId(i as u32);
            let spans = self.spans.iter().filter(|s| s.track == tid).count();
            let instants = self.instants.iter().filter(|e| e.track == tid).count();
            out.push_str(&format!(
                "  track {name}: {spans} spans, {instants} instants\n",
                name = t.name
            ));
        }
        out.push_str(&self.metrics.to_text());
        out
    }
}

impl From<ArgVal<'_>> for OwnedArg {
    fn from(v: ArgVal<'_>) -> Self {
        match v {
            ArgVal::U(u) => OwnedArg::U(u),
            ArgVal::F(f) => OwnedArg::F(f),
            ArgVal::S(s) => OwnedArg::S(s.to_string()),
        }
    }
}

fn push_args(out: &mut String, args: &[(&'static str, OwnedArg)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, k);
        out.push(':');
        match v {
            OwnedArg::U(u) => out.push_str(&u.to_string()),
            OwnedArg::F(f) => out.push_str(&fmt_f64(*f)),
            OwnedArg::S(s) => escape_into(out, s),
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_and_allocates_nothing() {
        let mut r = Recorder::disabled();
        let t = r.track("serving");
        let s = r.open(t, "step", 0.0);
        r.close(s, 100.0);
        r.leaf(t, "leaf", 0.0, 1.0);
        r.instant(t, "evt", 5.0);
        r.counter_add("c", 1);
        r.observe("h", 1.0);
        r.timeseries.gauge("g", 1.0, 2.0);
        r.timeseries.slo_sample(1.0, 9000.0);
        assert!(r.spans().is_empty());
        assert!(r.instants().is_empty());
        assert!(r.metrics.is_empty());
        assert!(r.timeseries.is_empty());
        assert!(!r.timeseries.is_enabled());
        // Empty Vec / empty registry: capacity 0 means no heap allocation.
        assert_eq!(r.spans.capacity(), 0);
        assert_eq!(r.instants.capacity(), 0);
        assert_eq!(r.tracks.capacity(), 0);
    }

    #[test]
    fn observe_all_sums_in_ascending_order_whatever_the_input_order() {
        // 0.1 + 0.2 + 1e16 and 1e16 + 0.2 + 0.1 round differently; the
        // batch observation must give the ascending-order sum either way.
        let ascending = [0.1, 0.2, 1e16];
        let mut want = Recorder::enabled();
        for &v in &ascending {
            want.observe("h", v);
        }
        let mut got = Recorder::enabled();
        let mut values = [1e16, 0.2, 0.1];
        got.observe_all("h", &mut values);
        assert_eq!(values, ascending);
        let (w, g) = (want.metrics.histogram("h"), got.metrics.histogram("h"));
        assert_eq!(w.unwrap().sum.to_bits(), g.unwrap().sum.to_bits());
        assert_eq!(w, g);
        let mut off = Recorder::disabled();
        let mut untouched = [2.0, 1.0];
        off.observe_all("h", &mut untouched);
        assert_eq!(untouched, [2.0, 1.0], "disabled: no sort");
        assert!(off.metrics.is_empty());
    }

    #[test]
    fn observe_n_over_a_multiset_equals_observe_all_over_its_expansion() {
        // Ascending (value, multiplicity) pairs with ties across bucket
        // edges, a signed zero and an overflow value; the sum of 1e16 plus
        // small values depends on the order, so only the ascending
        // expansion's order reproduces it.
        let multiset = [
            (-0.0, 2u64),
            (0.1, 3),
            (0.2, 1),
            (5.0, 4),
            (5.000_000_000_000_001, 2),
            (1e16, 3),
        ];
        let mut expanded: Vec<f64> = multiset
            .iter()
            .rev()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize))
            .collect();
        let mut want = Recorder::enabled();
        want.observe_all("lat_ms", &mut expanded);
        let mut got = Recorder::enabled();
        for &(v, n) in &multiset {
            got.observe_n("lat_ms", v, n);
        }
        got.observe_n("lat_ms", 9.0, 0);
        let (w, g) = (
            want.metrics.histogram("lat_ms").unwrap(),
            got.metrics.histogram("lat_ms").unwrap(),
        );
        assert_eq!(w.counts, g.counts);
        assert_eq!(w.count, g.count);
        assert_eq!(w.sum.to_bits(), g.sum.to_bits());
        assert_eq!(w.min.to_bits(), g.min.to_bits());
        assert_eq!(w.max.to_bits(), g.max.to_bits());
        assert_eq!(w, g);
        let mut off = Recorder::disabled();
        off.observe_n("lat_ms", 1.0, 5);
        assert!(off.metrics.is_empty());
        let mut zero = Recorder::enabled();
        zero.observe_n("lat_ms", 1.0, 0);
        assert!(
            zero.metrics.is_empty(),
            "zero multiplicity registers nothing"
        );
    }

    #[test]
    fn timeseries_is_opt_in_even_on_an_enabled_recorder() {
        let mut r = Recorder::enabled();
        r.timeseries.gauge("g", 1.0, 2.0);
        assert!(r.timeseries.is_empty());
        r.enable_timeseries(1e6, BurnConfig::default());
        r.timeseries.gauge("g", 1.0, 2.0);
        assert!(!r.timeseries.is_empty());
        assert_eq!(r.timeseries.window_ns(), 1e6);
    }

    #[test]
    fn spans_nest_per_track_via_open_stack() {
        let mut r = Recorder::enabled();
        let a = r.track("a");
        let b = r.track("b");
        let outer = r.open(a, "outer", 0.0);
        let other = r.open(b, "other", 0.0); // different track: no nesting
        let inner = r.open(a, "inner", 10.0);
        r.leaf(a, "leaf", 12.0, 15.0);
        r.close(inner, 40.0);
        r.close(other, 100.0);
        r.close(outer, 90.0);
        let spans = r.spans();
        assert_eq!(spans[0].parent, None); // outer
        assert_eq!(spans[1].parent, None); // other (track b)
        assert_eq!(spans[2].parent, Some(outer)); // inner
        assert_eq!(spans[3].parent, Some(inner)); // leaf
        r.validate_well_formed().unwrap();
    }

    #[test]
    fn well_formedness_catches_violations() {
        let mut r = Recorder::enabled();
        let t = r.track("t");
        let s = r.open(t, "open-forever", 0.0);
        assert!(r.validate_well_formed().is_err());
        r.close(s, 10.0);
        r.validate_well_formed().unwrap();

        let mut r = Recorder::enabled();
        let t = r.track("t");
        let p = r.open(t, "parent", 0.0);
        r.leaf(t, "escapee", 5.0, 20.0);
        r.close(p, 10.0);
        assert!(r.validate_well_formed().is_err());

        let mut r = Recorder::enabled();
        let t = r.track("t");
        let p = r.open(t, "parent", 0.0);
        r.leaf(t, "c1", 0.0, 6.0);
        r.leaf(t, "c2", 2.0, 9.0); // overlapping children oversubscribe
        r.close(p, 10.0);
        assert!(r.validate_well_formed().is_err());
    }

    #[test]
    fn chrome_export_parses_and_carries_events() {
        let mut r = Recorder::enabled();
        let t = r.track("serving \"q\"");
        let s = r.open_with(t, "step", 1000.0, &[("users", ArgVal::U(4))]);
        r.close(s, 3500.0);
        r.instant_with(t, "fault.replay", 2000.0, &[("slice", ArgVal::U(7))]);
        let out = r.chrome_trace_json();
        let v = json::parse(&out).expect("chrome trace must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process meta + 2 track meta + 1 span + 1 instant
        assert_eq!(events.len(), 5);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(span.get("dur").unwrap().as_f64().unwrap(), 2.5);
        assert_eq!(
            span.get("args").unwrap().get("users").unwrap().as_f64(),
            Some(4.0)
        );
    }

    #[test]
    fn track_interning_is_stable() {
        let mut r = Recorder::enabled();
        let a = r.track("x");
        let b = r.track("y");
        assert_eq!(r.track("x"), a);
        assert_eq!(r.track("y"), b);
        assert_ne!(a, b);
    }

    #[test]
    fn text_report_counts_by_track() {
        let mut r = Recorder::enabled();
        let t = r.track("gpu");
        r.leaf(t, "w", 0.0, 1.0);
        r.instant(t, "i", 0.5);
        r.counter_add("steps", 2);
        let text = r.text_report();
        assert!(text.contains("trace: 1 spans, 1 instants, 1 tracks"));
        assert!(text.contains("track gpu: 1 spans, 1 instants"));
        assert!(text.contains("counter   steps = 2"));
    }
}
