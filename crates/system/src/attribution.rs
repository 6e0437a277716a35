//! Per-token latency attribution: where each generated token's latency
//! went, across the whole serving run.
//!
//! The serving simulation knows, for every synchronized decode step, both
//! the step's total duration and its internal breakdown (window attention,
//! weight streaming, merge, the offload pipeline phases, any fault retry
//! penalty, and — with the lookahead pipeline on — the speculation miss
//! charge). This module folds those per-step breakdowns into per-component
//! exact value counts weighted like the token-latency percentiles in
//! [`crate::serving::ServeMetrics`], so the attribution table's *total* row
//! reproduces the run's reported p50/p99 byte-for-byte and the mean column
//! sums to the mean token latency.
//!
//! With lookahead on, two extra components appear: `spec_miss` — the time
//! a step paid because its speculation did not cover it (the serialized
//! wait a miss or slot denial re-exposes, plus the re-filter penalty on a
//! true miss) — and `overlap_hidden`, the portion of the offload chain
//! that speculation hid behind GPU compute. `overlap_hidden` is
//! informational: it does not contribute to the token's latency, so the
//! per-token decomposition identity covers every component *except* it,
//! while `overlap_hidden + visible + spec_miss` reconstructs the
//! unoverlapped chain exactly (see [`SpecSample`]).

use crate::report::{SpecStep, StepReport};
use longsight_sched::LatencyCounts;

/// Names of the attribution components, in table order. The first eight
/// are always populated; `spec_miss` and `overlap_hidden` only with the
/// lookahead pipeline on (their rows are omitted from the table otherwise).
pub const COMPONENT_NAMES: [&str; 10] = [
    "window",
    "weights",
    "merge",
    "filter",
    "score",
    "queue",
    "link",
    "retry",
    "spec_miss",
    "overlap_hidden",
];

/// Index of the `spec_miss` component.
pub const SPEC_MISS: usize = 8;
/// Index of the `overlap_hidden` component (excluded from the dt identity).
pub const OVERLAP_HIDDEN: usize = 9;

/// How the serving loop resolved one speculated decode step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecCharge {
    /// Every issued chain landed: the step ran the hit path.
    Hit,
    /// At least one member's speculation was stale or voided by a fault:
    /// the step ran the synchronous path plus the re-filter penalty.
    Miss,
    /// Slot backpressure denied at least one issue (and nothing missed):
    /// the step ran the synchronous path, no penalty.
    Denied,
}

/// Splits one step's latency into the attribution components, ns.
///
/// The GPU and offload components come from the step report (systems
/// without phase attribution lump device time into `score` and transfer
/// time into `link`). The `retry` component is the fault penalty this step
/// paid on top of its expected cost. For speculated steps (`spec` set and
/// the report carrying a [`SpecStep`]), `spec_miss` absorbs the serialized
/// wait that a miss or denial re-exposed (plus the re-filter penalty on a
/// miss) and `overlap_hidden` reports the chain time hidden behind
/// compute. Components `0..OVERLAP_HIDDEN` sum to `dt_ns` exactly;
/// `overlap_hidden` sits outside the identity.
pub fn attribution_parts(report: &StepReport, dt_ns: f64, spec: Option<SpecCharge>) -> [f64; 10] {
    let b = report.breakdown;
    let (filter, score, queue, link) = match report.offload {
        Some(o) => (o.filter_ns, o.score_ns, o.queue_ns, o.link_ns),
        None => (0.0, b.drex_offload_ns, 0.0, b.cxl_ns),
    };
    let (spec_miss, overlap_hidden, expected) = match (spec, report.spec) {
        (Some(charge), Some(s)) => spec_components(&s, charge, report.step_ns),
        _ => (0.0, 0.0, report.step_ns),
    };
    [
        b.gpu_attention_ns,
        b.gpu_weights_ns,
        b.gpu_merge_ns,
        filter,
        score,
        queue,
        link,
        (dt_ns - expected).max(0.0),
        spec_miss,
        overlap_hidden,
    ]
}

/// `(spec_miss, overlap_hidden, expected_dt)` for one resolved step.
///
/// The identities these satisfy, all by exact construction (the same
/// subtractions [`SpecSample`] pins bit-for-bit):
///
/// * hit: `overlap_hidden = chain − hit_visible`, `spec_miss = 0`;
/// * miss: `overlap_hidden = chain − serial_visible`,
///   `spec_miss = (serial_visible − hit_visible) + penalty`;
/// * denied: as miss, without the penalty.
fn spec_components(s: &SpecStep, charge: SpecCharge, hit_step_ns: f64) -> (f64, f64, f64) {
    match charge {
        SpecCharge::Hit => (0.0, s.chain_ns - s.hit_visible_ns, hit_step_ns),
        SpecCharge::Miss => (
            (s.serial_visible_ns - s.hit_visible_ns) + s.refilter_penalty_ns,
            s.chain_ns - s.serial_visible_ns,
            s.serial_step_ns + s.refilter_penalty_ns,
        ),
        SpecCharge::Denied => (
            s.serial_visible_ns - s.hit_visible_ns,
            s.chain_ns - s.serial_visible_ns,
            s.serial_step_ns,
        ),
    }
}

/// Per-step speculation accounting kept alongside the component counts,
/// in ns, so tests can reconcile the recorded components against the
/// [`SpecStep`] identities bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecSample {
    /// How the step resolved.
    pub charge: SpecCharge,
    /// Unoverlapped chain time of the step, ns.
    pub chain_ns: f64,
    /// Hit-path visible wait, ns (what the `filter..link` columns carry).
    pub hit_visible_ns: f64,
    /// Synchronous-path visible wait, ns.
    pub serial_visible_ns: f64,
    /// Recorded `spec_miss` component, ns.
    pub spec_miss_ns: f64,
    /// Recorded `overlap_hidden` component, ns.
    pub overlap_hidden_ns: f64,
    /// Re-filter penalty actually charged (0 unless a miss), ns.
    pub penalty_ns: f64,
}

/// Per-token latency attribution collected across a serving run.
///
/// Each component keeps the exact counts of its per-token values in
/// milliseconds — one per generated token, batch size capped at 64 per
/// step, the same cap [`crate::serving::ServeMetrics`] applies to its
/// token-latency percentiles — plus a running sum for the mean. The
/// `total` counts hold each token's full step latency directly — not the
/// component sum — so its percentiles are bit-identical to the run's
/// reported token latency. The running sums add every token's value one at
/// a time in recording order, starting from `-0.0` like `Iterator::sum`,
/// so each mean equals the sum over the expanded per-token values bit for
/// bit.
#[derive(Debug, Clone)]
pub struct TokenAttribution {
    counts: [LatencyCounts; 10],
    sums: [f64; 10],
    totals: LatencyCounts,
    total_sum: f64,
    spec_hits: usize,
    spec_misses: usize,
    spec_denied: usize,
    spec_steps: Vec<SpecSample>,
}

impl Default for TokenAttribution {
    fn default() -> Self {
        Self {
            counts: Default::default(),
            sums: [-0.0; 10],
            totals: LatencyCounts::new(),
            total_sum: -0.0,
            spec_hits: 0,
            spec_misses: 0,
            spec_denied: 0,
            spec_steps: Vec::new(),
        }
    }
}

impl TokenAttribution {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one decode step in: `parts` are the per-token component
    /// shares in ns (from [`attribution_parts`]), `dt_ns` the step's total
    /// latency, and `weight` the number of tokens the step contributes.
    pub fn record_step(&mut self, parts: [f64; 10], dt_ns: f64, weight: usize) {
        let total = dt_ns / 1e6;
        for (c, &p) in parts.iter().enumerate() {
            let ms = p / 1e6;
            self.counts[c].add(ms, weight);
            for _ in 0..weight {
                self.sums[c] += ms;
            }
        }
        self.totals.add(total, weight);
        for _ in 0..weight {
            self.total_sum += total;
        }
    }

    /// Records one speculated step's per-member resolution counts and its
    /// accounting sample. Call once per step with lookahead on, alongside
    /// [`TokenAttribution::record_step`].
    pub fn record_spec_step(
        &mut self,
        sample: SpecSample,
        hits: usize,
        misses: usize,
        denied: usize,
    ) {
        self.spec_hits += hits;
        self.spec_misses += misses;
        self.spec_denied += denied;
        self.spec_steps.push(sample);
    }

    /// `(hits, misses, denied)` speculated-token counts across the run.
    pub fn spec_counts(&self) -> (usize, usize, usize) {
        (self.spec_hits, self.spec_misses, self.spec_denied)
    }

    /// Per-step speculation accounting samples, in recording order.
    pub fn spec_steps(&self) -> &[SpecSample] {
        &self.spec_steps
    }

    /// Whether any speculated step was recorded (drives the extra rows).
    pub fn has_spec(&self) -> bool {
        !self.spec_steps.is_empty()
    }

    /// Number of tokens recorded.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// True when no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// `(mean, p50, p99)` of one component's per-token values, ms.
    pub fn component_stats(&self, c: usize) -> (f64, f64, f64) {
        Self::stats_of(&self.counts[c], self.sums[c])
    }

    /// `(mean, p50, p99)` of the total token latency, ms. The percentiles
    /// use the serving estimator itself (`quantile_round` over the same
    /// multiset), so they equal `ServeMetrics::{p50,p99}_token_ms` of the
    /// same run.
    pub fn total_stats(&self) -> (f64, f64, f64) {
        Self::stats_of(&self.totals, self.total_sum)
    }

    fn stats_of(counts: &LatencyCounts, sum: f64) -> (f64, f64, f64) {
        if counts.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        (
            sum / counts.len() as f64,
            counts.quantile_round(0.5),
            counts.quantile_round(0.99),
        )
    }

    /// The attribution table: one row per component plus a total row. The
    /// `spec_miss` / `overlap_hidden` rows and the speculation summary line
    /// appear only when a speculated step was recorded, so lookahead-off
    /// tables are unchanged.
    pub fn to_table(&self) -> String {
        // 14 fits `overlap_hidden`; lookahead-off keeps the historical
        // 12-wide grid so existing goldens stay byte-identical.
        let w = if self.has_spec() { 14 } else { 12 };
        let mut out = format!(
            "  {:<w$} {:>9} {:>9} {:>9}\n",
            "component", "mean ms", "p50 ms", "p99 ms"
        );
        let rows = if self.has_spec() { 10 } else { 8 };
        for (c, name) in COMPONENT_NAMES.iter().enumerate().take(rows) {
            let (mean, p50, p99) = self.component_stats(c);
            out.push_str(&format!("  {name:<w$} {mean:>9.4} {p50:>9.4} {p99:>9.4}\n"));
        }
        let (mean, p50, p99) = self.total_stats();
        out.push_str(&format!(
            "  {:<w$} {mean:>9.4} {p50:>9.4} {p99:>9.4}\n",
            "total"
        ));
        if self.has_spec() {
            out.push_str(&format!(
                "  speculation: {} hit | {} miss | {} denied\n",
                self.spec_hits, self.spec_misses, self.spec_denied
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{OffloadComponents, SpecStep, StepBreakdown, StepReport};

    fn report() -> StepReport {
        StepReport::from_breakdown(
            4,
            1024,
            StepBreakdown {
                gpu_weights_ns: 1e6,
                gpu_attention_ns: 2e6,
                gpu_merge_ns: 0.5e6,
                drex_offload_ns: 0.7e6,
                cxl_ns: 0.3e6,
            },
        )
        .with_offload(OffloadComponents {
            filter_ns: 0.1e6,
            score_ns: 0.5e6,
            queue_ns: 0.1e6,
            link_ns: 0.3e6,
        })
    }

    fn spec_report() -> StepReport {
        // Hit path: 0.2 ms visible of a 3 ms chain; serial path would see
        // 1 ms visible on a 5.5 ms step.
        StepReport::from_breakdown(
            4,
            1024,
            StepBreakdown {
                gpu_weights_ns: 1e6,
                gpu_attention_ns: 2e6,
                gpu_merge_ns: 0.5e6,
                drex_offload_ns: 0.14e6,
                cxl_ns: 0.06e6,
            },
        )
        .with_offload(OffloadComponents {
            filter_ns: 0.05e6,
            score_ns: 0.1e6,
            queue_ns: 0.02e6,
            link_ns: 0.03e6,
        })
        .with_spec(SpecStep {
            chain_ns: 3e6,
            serial_step_ns: 4.5e6,
            serial_visible_ns: 1e6,
            hit_visible_ns: 0.2e6,
            refilter_penalty_ns: 0.25e6,
            miss_rate: 0.02,
            slots: 4,
            seed: 0,
        })
    }

    #[test]
    fn parts_sum_to_step_plus_penalty() {
        let r = report();
        let parts = attribution_parts(&r, r.step_ns + 1e6, None);
        let sum: f64 = parts.iter().sum();
        assert!((sum - (r.step_ns + 1e6)).abs() < 1e-6);
        assert!((parts[7] - 1e6).abs() < 1e-9, "retry absorbs the penalty");
        assert_eq!(parts[SPEC_MISS], 0.0);
        assert_eq!(parts[OVERLAP_HIDDEN], 0.0);
    }

    #[test]
    fn without_offload_detail_device_time_lumps_into_score_and_link() {
        let mut r = report();
        r.offload = None;
        let parts = attribution_parts(&r, r.step_ns, None);
        assert_eq!(parts[3], 0.0);
        assert_eq!(parts[4], r.breakdown.drex_offload_ns);
        assert_eq!(parts[6], r.breakdown.cxl_ns);
    }

    #[test]
    fn spec_charges_decompose_each_outcome() {
        let r = spec_report();
        let s = r.spec.unwrap();

        // Hit: dt is the hit step; nothing in spec_miss, the chain's
        // remainder is hidden.
        let hit = attribution_parts(&r, r.step_ns, Some(SpecCharge::Hit));
        assert_eq!(hit[SPEC_MISS], 0.0);
        assert_eq!(
            hit[OVERLAP_HIDDEN].to_bits(),
            (s.chain_ns - s.hit_visible_ns).to_bits()
        );
        let sum: f64 = hit[..OVERLAP_HIDDEN].iter().sum();
        assert!((sum - r.step_ns).abs() < 1e-6);

        // Miss: dt is serial + penalty; spec_miss re-exposes the serialized
        // wait plus the penalty.
        let dt = s.serial_step_ns + s.refilter_penalty_ns;
        let miss = attribution_parts(&r, dt, Some(SpecCharge::Miss));
        assert_eq!(
            miss[SPEC_MISS].to_bits(),
            ((s.serial_visible_ns - s.hit_visible_ns) + s.refilter_penalty_ns).to_bits()
        );
        assert_eq!(
            miss[OVERLAP_HIDDEN].to_bits(),
            (s.chain_ns - s.serial_visible_ns).to_bits()
        );
        let sum: f64 = miss[..OVERLAP_HIDDEN].iter().sum();
        assert!((sum - dt).abs() < 1e-6, "miss parts must decompose dt");

        // Denied: serial timing, no penalty.
        let denied = attribution_parts(&r, s.serial_step_ns, Some(SpecCharge::Denied));
        assert_eq!(
            denied[SPEC_MISS].to_bits(),
            (s.serial_visible_ns - s.hit_visible_ns).to_bits()
        );
        let sum: f64 = denied[..OVERLAP_HIDDEN].iter().sum();
        assert!((sum - s.serial_step_ns).abs() < 1e-6);
    }

    #[test]
    fn total_percentiles_track_recorded_steps() {
        let r = report();
        let mut a = TokenAttribution::new();
        a.record_step(attribution_parts(&r, r.step_ns, None), r.step_ns, 3);
        a.record_step(
            attribution_parts(&r, 2.0 * r.step_ns, None),
            2.0 * r.step_ns,
            1,
        );
        assert_eq!(a.len(), 4);
        let (_, p50, p99) = a.total_stats();
        assert!((p50 - r.step_ns / 1e6).abs() < 1e-12);
        assert!((p99 - 2.0 * r.step_ns / 1e6).abs() < 1e-12);
        // Mean column sums to the total mean (component sums are exact
        // per-sample decompositions of dt; overlap_hidden sits outside).
        let comp_mean: f64 = (0..OVERLAP_HIDDEN).map(|c| a.component_stats(c).0).sum();
        let (total_mean, _, _) = a.total_stats();
        assert!((comp_mean - total_mean).abs() < 1e-9 * total_mean.max(1.0));
        let table = a.to_table();
        assert!(table.contains("window"));
        assert!(table.lines().count() == 10, "header + 8 components + total");
        assert!(!table.contains("spec_miss"), "no spec rows without spec");
    }

    #[test]
    fn spec_rows_and_counts_appear_only_when_recorded() {
        let r = spec_report();
        let s = r.spec.unwrap();
        let mut a = TokenAttribution::new();
        let parts = attribution_parts(&r, r.step_ns, Some(SpecCharge::Hit));
        a.record_step(parts, r.step_ns, 4);
        a.record_spec_step(
            SpecSample {
                charge: SpecCharge::Hit,
                chain_ns: s.chain_ns,
                hit_visible_ns: s.hit_visible_ns,
                serial_visible_ns: s.serial_visible_ns,
                spec_miss_ns: parts[SPEC_MISS],
                overlap_hidden_ns: parts[OVERLAP_HIDDEN],
                penalty_ns: 0.0,
            },
            4,
            0,
            0,
        );
        assert!(a.has_spec());
        assert_eq!(a.spec_counts(), (4, 0, 0));
        let table = a.to_table();
        assert!(table.contains("spec_miss") && table.contains("overlap_hidden"));
        assert!(table.contains("speculation: 4 hit | 0 miss | 0 denied"));
        assert_eq!(table.lines().count(), 13, "header + 10 + total + summary");
    }
}
