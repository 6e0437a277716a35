//! A registry of named counters, gauges, and fixed-bucket histograms.
//!
//! Everything is ordinary owned data behind `&mut` — no atomics, no locks —
//! because all recording in this workspace happens on the (serial) simulation
//! control path. Metrics are reported in **first-registration order**, which
//! is a pure function of the simulation control flow and therefore identical
//! at any thread count. Name lookup goes through a side index map, so the
//! hot-path record calls stay O(1) while the export order stays the ordered
//! `Vec` of first registration.

use crate::json::{escape_into, fmt_f64};
use std::collections::HashMap;

/// Default histogram bucket edges in milliseconds, chosen to straddle the
/// token-latency SLO band (tens of ms) with roughly log-spaced resolution.
pub const DEFAULT_MS_EDGES: [f64; 15] = [
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
];

/// Default bucket edges for dimensionless quantities (token, page, and
/// request counts): log-spaced from one to a million. Millisecond edges
/// would bucket a 4096-token count into the `> 5 s` overflow bin and make
/// the histogram useless, so [`MetricsRegistry::observe`] picks edges from
/// the metric's unit suffix instead of defaulting everything to time.
pub const DEFAULT_COUNT_EDGES: [f64; 15] = [
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
    2000.0,
    5000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
];

/// Unit-appropriate default edges for an unregistered histogram name: names
/// with a time-unit suffix (`_ns`, `_us`, `_ms`, `_s`) get the millisecond
/// SLO-band edges, anything else is treated as a count.
fn default_edges_for(name: &str) -> &'static [f64] {
    if name.ends_with("_ms")
        || name.ends_with("_us")
        || name.ends_with("_ns")
        || name.ends_with("_s")
    {
        &DEFAULT_MS_EDGES
    } else {
        &DEFAULT_COUNT_EDGES
    }
}

/// A fixed-bucket histogram: `counts[i]` counts observations `<= edges[i]`,
/// with one overflow bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket edges, strictly increasing.
    pub edges: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == edges.len() + 1`.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest observed value (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl Histogram {
    pub(crate) fn new(edges: &[f64]) -> Self {
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub(crate) fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Records `n` observations of `value`: one bucket search, and the
    /// sum built by `n` successive additions, so the histogram equals `n`
    /// calls of `observe(value)` bit for bit.
    pub(crate) fn observe_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.counts[idx] += n;
        self.count += n;
        for _ in 0..n {
            self.sum += value;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucketed nearest-rank quantile estimate: the upper edge of the bucket
    /// holding the `ceil(p·count)`-th observation, clamped to the observed
    /// `[min, max]` range (the overflow bucket reports `max`). Returns 0 for
    /// an empty histogram. The estimate is conservative (an upper bound
    /// within bucket resolution) and a pure function of the counts, so it is
    /// deterministic across reruns and thread counts.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let edge = if i < self.edges.len() {
                    self.edges[i]
                } else {
                    self.max
                };
                return edge.min(self.max).max(self.min);
            }
        }
        self.max
    }
}

/// Named counters, gauges, and histograms in stable registration order, with
/// an index map over each family so hot-path recording never rescans the
/// name lists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
    counter_index: HashMap<String, usize>,
    gauge_index: HashMap<String, usize>,
    histogram_index: HashMap<String, usize>,
}

impl MetricsRegistry {
    /// Adds `delta` to the named counter, creating it at zero on first use.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counter_index.get(name) {
            Some(&i) => self.counters[i].1 += delta,
            None => {
                self.counter_index
                    .insert(name.to_string(), self.counters.len());
                self.counters.push((name.to_string(), delta));
            }
        }
    }

    /// Sets the named gauge, creating it on first use.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.gauge_index.get(name) {
            Some(&i) => self.gauges[i].1 = value,
            None => {
                self.gauge_index.insert(name.to_string(), self.gauges.len());
                self.gauges.push((name.to_string(), value));
            }
        }
    }

    /// Registers a histogram with explicit bucket edges. Re-registering an
    /// existing name keeps the original edges (first registration wins, so
    /// ordering and shape stay stable).
    pub fn register_histogram(&mut self, name: &str, edges: &[f64]) {
        if !self.histogram_index.contains_key(name) {
            self.histogram_index
                .insert(name.to_string(), self.histograms.len());
            self.histograms
                .push((name.to_string(), Histogram::new(edges)));
        }
    }

    /// Records one observation into the named histogram. Prefer registering
    /// the histogram with explicit edges via
    /// [`MetricsRegistry::register_histogram`] first; an unregistered name
    /// is created with unit-appropriate defaults inferred from its suffix —
    /// [`DEFAULT_MS_EDGES`] for time-suffixed names (`_ns`/`_us`/`_ms`/`_s`)
    /// and [`DEFAULT_COUNT_EDGES`] for everything else — never blindly with
    /// millisecond buckets.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.observe_n(name, value, 1);
    }

    /// Records `n` observations of `value` into the named histogram with
    /// one name lookup — the same histogram as `n` calls of
    /// [`MetricsRegistry::observe`], bit for bit. `n == 0` records (and
    /// registers) nothing.
    pub fn observe_n(&mut self, name: &str, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(&i) = self.histogram_index.get(name) {
            self.histograms[i].1.observe_n(value, n);
            return;
        }
        let mut h = Histogram::new(default_edges_for(name));
        h.observe_n(value, n);
        self.histogram_index
            .insert(name.to_string(), self.histograms.len());
        self.histograms.push((name.to_string(), h));
    }

    /// The current value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_index.get(name).map(|&i| self.counters[i].1)
    }

    /// The current value of a gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauge_index.get(name).map(|&i| self.gauges[i].1)
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_index
            .get(name)
            .map(|&i| &self.histograms[i].1)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Machine-readable JSON dump in registration order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            out.push(':');
            out.push_str(&fmt_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            out.push_str(":{\"edges\":[");
            for (j, e) in h.edges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&fmt_f64(*e));
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str("],\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&fmt_f64(h.sum));
            if h.count > 0 {
                out.push_str(",\"min\":");
                out.push_str(&fmt_f64(h.min));
                out.push_str(",\"max\":");
                out.push_str(&fmt_f64(h.max));
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Flat human-readable report in registration order.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter   {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge     {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            if h.count == 0 {
                out.push_str(&format!("histogram {name}: empty\n"));
            } else {
                out.push_str(&format!(
                    "histogram {name}: count {} mean {:.4} min {:.4} max {:.4}\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_keep_registration_order() {
        let mut m = MetricsRegistry::default();
        m.counter_add("b", 1);
        m.counter_add("a", 2);
        m.counter_add("b", 3);
        m.gauge_set("z", 1.5);
        m.gauge_set("z", 2.5);
        assert_eq!(m.counter("b"), Some(4));
        assert_eq!(m.counter("a"), Some(2));
        assert_eq!(m.gauge("z"), Some(2.5));
        let json = m.to_json();
        assert!(json.find("\"b\"").unwrap() < json.find("\"a\"").unwrap());
        crate::json::parse(&json).expect("metrics JSON must parse");
    }

    #[test]
    fn index_map_survives_many_registrations() {
        // Order is first registration; lookups hit the right slots after
        // interleaved creation across all three families.
        let mut m = MetricsRegistry::default();
        for i in 0..64 {
            m.counter_add(&format!("c{i}"), i);
            m.gauge_set(&format!("g{i}"), i as f64);
            m.observe(&format!("h{i}_ms"), i as f64);
        }
        for i in (0..64).rev() {
            m.counter_add(&format!("c{i}"), 1);
        }
        assert_eq!(m.counter("c0"), Some(1));
        assert_eq!(m.counter("c63"), Some(64));
        assert_eq!(m.gauge("g7"), Some(7.0));
        assert_eq!(m.histogram("h9_ms").unwrap().count, 1);
        let json = m.to_json();
        assert!(json.find("\"c0\"").unwrap() < json.find("\"c63\"").unwrap());
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut m = MetricsRegistry::default();
        m.register_histogram("lat", &[1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 100.0] {
            m.observe("lat", v);
        }
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 26.625).abs() < 1e-12);
    }

    #[test]
    fn unregistered_observe_infers_edges_from_the_unit_suffix() {
        let mut m = MetricsRegistry::default();
        m.observe("token_latency_ms", 3.0);
        assert_eq!(
            m.histogram("token_latency_ms").unwrap().edges,
            DEFAULT_MS_EDGES.to_vec()
        );
        // A token count lands in count buckets, not the > 5 s overflow bin.
        m.observe("degraded_tokens", 4096.0);
        let h = m.histogram("degraded_tokens").unwrap();
        assert_eq!(h.edges, DEFAULT_COUNT_EDGES.to_vec());
        assert_eq!(h.counts[h.edges.len()], 0, "must not overflow: {h:?}");
    }

    #[test]
    fn explicit_registration_wins_over_inferred_defaults() {
        let mut m = MetricsRegistry::default();
        m.register_histogram("pages", &[8.0, 64.0]);
        m.register_histogram("pages", &[1.0]); // first registration wins
        m.observe("pages", 32.0);
        let h = m.histogram("pages").unwrap();
        assert_eq!(h.edges, vec![8.0, 64.0]);
        assert_eq!(h.counts, vec![0, 1, 0]);
    }

    #[test]
    fn quantile_is_a_clamped_bucket_upper_bound() {
        let mut m = MetricsRegistry::default();
        m.register_histogram("q", &[1.0, 10.0, 100.0]);
        assert_eq!(m.histogram("q").unwrap().quantile(0.99), 0.0); // empty
        for v in [0.5, 2.0, 3.0, 4.0, 150.0] {
            m.observe("q", v);
        }
        let h = m.histogram("q").unwrap();
        assert_eq!(h.quantile(0.5), 10.0); // rank 3 of 5 sits in (1, 10]
        assert_eq!(h.quantile(0.99), 150.0); // overflow bucket reports max
        assert_eq!(h.quantile(0.0), 1.0); // first bucket's upper edge

        let mut low = Histogram::new(&[1.0, 10.0]);
        low.observe(0.25); // all mass below the first edge
        assert_eq!(low.quantile(0.5), 0.25); // clamped to the observed max
    }
}
