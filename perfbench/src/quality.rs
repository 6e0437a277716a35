//! The `quality_sweep` workload: one Llama-3-8B-geometry head trace, the
//! three Fig 3 variants at k = 1024, each walking the Fig 3 threshold ladder
//! until the 5 % output-error budget breaks. Every serving layer is idle.

use crate::report::{fnv1a, median, Kind, Metric, Outcome};
use crate::spans::{timed, SharedTrace};
use crate::Phase;
use longsight_bench::fig3::{self, Fig3Point, Fig3Variant, QUALITY_BUDGET};
use longsight_bench::fig7::scan_kernel_bench;
use longsight_core::trace_eval::{evaluate_trace, TraceQuality};
use longsight_core::{filter_block_packed, PFU_BLOCK_KEYS};
use longsight_core::{HybridConfig, ItqRotation};
use longsight_model::tracegen::HeadTrace;
use longsight_tensor::SignArena;
use std::time::Instant;

/// Context length of the trace, tokens.
pub const CONTEXT: usize = 4_096;
/// Key dimension of one Llama-3-8B KV head.
pub const HEAD_DIM: usize = 128;
/// Top-k budget of the sweep.
pub const TOP_K: usize = 1024;
/// Keys the ITQ rotation trains on, and its seed (as in Fig 3).
const ITQ_TRAIN_KEYS: usize = 1024;
const ITQ_SEED: u64 = 0xF163;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

pub const VARIANTS: [Fig3Variant; 3] = [
    Fig3Variant::BaselineSparse,
    Fig3Variant::Hybrid,
    Fig3Variant::HybridItq,
];

/// The sweep's inputs: the trace and the ITQ rotation trained on it.
pub struct Inputs {
    pub trace: HeadTrace,
    pub itq: ItqRotation,
}

/// Builds the inputs, with spans when `spans` is given.
pub fn setup(seed: u64, spans: Option<&SharedTrace>) -> Inputs {
    let trace = span(spans, "model.tracegen", || {
        fig3::trace_for(HEAD_DIM, CONTEXT, seed)
    });
    let itq = span(spans, "core.itq_train", || {
        fig3::train_trace_itq(&trace, ITQ_TRAIN_KEYS, ITQ_SEED)
    });
    Inputs { trace, itq }
}

fn span<R>(spans: Option<&SharedTrace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(t) => timed(t, name, f),
        None => f(),
    }
}

/// One `evaluate_trace` call of the sweep.
pub struct Eval {
    pub variant: Fig3Variant,
    pub threshold: u32,
    pub quality: TraceQuality,
}

impl Eval {
    /// Whether the evaluation's numbers are usable: finite, ratios in
    /// [0, 1], error non-negative.
    pub fn valid(&self) -> bool {
        let q = &self.quality;
        let ratio = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
        ratio(q.topk_recall)
            && ratio(q.ground_truth_recall)
            && q.output_rel_err.is_finite()
            && q.output_rel_err >= 0.0
    }
}

/// The sweep's result: one Fig 3 point per variant and every evaluation.
pub struct Sweep {
    pub points: Vec<Fig3Point>,
    pub evals: Vec<Eval>,
}

impl Sweep {
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for e in &self.evals {
            let q = &e.quality;
            text.push_str(&format!(
                "{} th{} {:?} {:?} {:?} {} {}\n",
                e.variant,
                e.threshold,
                q.topk_recall.to_bits(),
                q.ground_truth_recall.to_bits(),
                q.output_rel_err.to_bits(),
                q.stats.scored,
                q.stats.retrieved
            ));
        }
        for p in &self.points {
            text.push_str(&format!("{p:?}\n"));
        }
        fnv1a(text.as_bytes())
    }

    pub fn point(&self, v: Fig3Variant) -> &Fig3Point {
        self.points
            .iter()
            .find(|p| p.variant == v)
            .expect("every variant is swept")
    }
}

/// The Fig 3 threshold walk of `fig3::measure_with_rotation`, one
/// `evaluate_trace` call per rung, recorded so each call can be timed and
/// checked.
pub fn walk(
    inputs: &Inputs,
    variant: Fig3Variant,
    spans: Option<&SharedTrace>,
    evals: &mut Vec<Eval>,
) -> Fig3Point {
    let trace = &inputs.trace;
    let d = trace.keys.dim();
    let config = HybridConfig {
        window: match variant {
            Fig3Variant::BaselineSparse => 1,
            _ => 1024,
        },
        sinks: 16,
        top_k: TOP_K,
    };
    let identity = ItqRotation::identity(d);
    let rotation = match variant {
        Fig3Variant::HybridItq => &inputs.itq,
        _ => &identity,
    };
    let mut best: Option<(f64, u32, f64)> = None;
    for th in (0..=d as u32).step_by((d / 32).max(1)) {
        let q = span(spans, "core.trace_eval", || {
            evaluate_trace(trace, rotation, &config, th)
        });
        let within = q.output_rel_err <= QUALITY_BUDGET;
        if within {
            let fr = q.stats.filter_ratio_nonwindow();
            if best.is_none_or(|b| fr > b.0) {
                best = Some((fr, th, q.topk_recall));
            }
        }
        evals.push(Eval {
            variant,
            threshold: th,
            quality: q,
        });
        if !within {
            break;
        }
    }
    Fig3Point {
        variant,
        context: trace.len(),
        k: TOP_K,
        filter_ratio: best.map(|b| b.0),
        threshold: best.map_or(0, |b| b.1),
        recall: best.map_or(0.0, |b| b.2),
    }
}

/// All three variants' walks.
pub fn sweep(inputs: &Inputs, spans: Option<&SharedTrace>) -> Sweep {
    let mut evals = Vec::new();
    let points = VARIANTS
        .iter()
        .map(|&v| span(spans, "quality.walk", || walk(inputs, v, spans, &mut evals)))
        .collect();
    Sweep { points, evals }
}

/// The checks shared by both runs; counts every evaluation as attempted
/// and the unusable ones as missed.
fn check(s: &Sweep, out: &mut Outcome) {
    let invalid = s.evals.iter().filter(|e| !e.valid()).count();
    out.attempted = s.evals.len() as u64;
    out.missed = invalid as u64;
    out.check(
        invalid == 0,
        format!("{invalid} evaluations gave unusable numbers"),
    );
    let itq = s.point(Fig3Variant::HybridItq);
    match itq.filter_ratio {
        Some(fr) => out.check(
            fr.is_finite() && fr >= 1.0 && (0.0..=1.0).contains(&itq.recall),
            format!(
                "hybrid+ITQ point out of range: ratio {fr}, recall {}",
                itq.recall
            ),
        ),
        None => out.check(false, "hybrid+ITQ never met the output-error budget"),
    }
}

/// The end-to-end run: set-up timed `SETUP_REPS` times, the sweep repeated
/// for the timed phase, then the checks.
pub fn end_to_end(seed: u64, phase: &Phase) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let i = setup(seed, None);
        setups.push(t0.elapsed().as_secs_f64());
        inputs = Some(i);
    }
    let inputs = inputs.expect("set-up runs at least once");
    out.push(
        Metric::new("setup_s", "s", Kind::Host, median(&setups)).note(format!(
            "trace generation + ITQ training, median of {SETUP_REPS}"
        )),
    );

    let mut first: Option<Sweep> = None;
    let mut digests = Vec::new();
    let times = phase.repeat(|| {
        let t0 = Instant::now();
        let s = sweep(&inputs, None);
        let dt = t0.elapsed().as_secs_f64();
        digests.push(s.digest());
        first.get_or_insert(s);
        dt
    });
    let s = first.expect("the timed phase runs at least once");
    out.push(
        Metric::new("host_s", "s", Kind::Host, median(&times))
            .note(format!("median of {} sweeps", times.len())),
    );
    out.digest = digests[0];
    out.check(
        digests.iter().all(|&d| d == out.digest),
        "repetitions of the same seed produced different quality outputs",
    );
    check(&s, &mut out);
    let kb = scan_kernel_bench(4096, HEAD_DIM);
    out.check(
        kb.identical,
        "packed SCF scan diverged from the per-key walk",
    );

    out.push(
        Metric::new(
            "missed_share",
            "ratio",
            Kind::Quality,
            out.missed as f64 / out.attempted.max(1) as f64,
        )
        .note(format!(
            "unusable evaluations / {} evaluations",
            out.attempted
        )),
    );
    let itq = s.point(Fig3Variant::HybridItq);
    out.push(
        Metric::new(
            "filter_ratio",
            "x",
            Kind::Quality,
            itq.filter_ratio.unwrap_or(f64::NAN),
        )
        .note(format!(
            "hybrid+ITQ, k={TOP_K}, {CONTEXT} tokens, threshold {}",
            itq.threshold
        )),
    );
    out.push(Metric::new(
        "topk_recall",
        "ratio",
        Kind::Quality,
        itq.recall,
    ));
    for p in &s.points {
        out.notes.push(format!(
            "fig3 point {}: filter ratio {} at threshold {}, recall {:.4}",
            p.variant,
            p.filter_ratio
                .map_or("none within budget".to_string(), |f| format!("{f:.3}")),
            p.threshold,
            p.recall
        ));
    }
    out
}

/// Host cost of the packed SCF kernel over the trace's own rotated keys,
/// ns per key, at the hybrid+ITQ operating threshold.
fn scf_ns_per_key(inputs: &Inputs, threshold: u32) -> f64 {
    let trace = &inputs.trace;
    let mut arena = SignArena::new(trace.keys.dim());
    for k in trace.keys.iter() {
        inputs.itq.signs_into(k, &mut arena);
    }
    let queries: Vec<_> = trace
        .queries
        .iter()
        .map(|p| inputs.itq.signs(&p.q))
        .collect();
    let keys = arena.len();
    let mut scans = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.2 {
        for q in &queries {
            let mut survivors = 0u32;
            let mut block = 0;
            while block < keys {
                let end = (block + PFU_BLOCK_KEYS).min(keys);
                survivors += filter_block_packed(q, &arena, block..end, threshold).count_ones();
                block = end;
            }
            std::hint::black_box(survivors);
            scans += 1;
        }
    }
    t0.elapsed().as_nanos() as f64 / (scans * keys as u64) as f64
}

/// The traced run: set-up and sweep once with spans, the sweep once
/// untraced for the reference digest and host time, and the SCF kernel
/// timed over the trace's own arena.
pub fn traced(seed: u64, trace: &SharedTrace) -> Outcome {
    let mut out = Outcome::default();
    let root = trace.borrow_mut().begin("bench.run");
    let inputs = setup(seed, Some(trace));
    let s = sweep(&inputs, Some(trace));
    let itq_threshold = s.point(Fig3Variant::HybridItq).threshold;
    let scf = timed(trace, "core.scf", || scf_ns_per_key(&inputs, itq_threshold));
    trace.borrow_mut().end(root);

    let t0 = Instant::now();
    let plain = sweep(&inputs, None);
    let host_off = t0.elapsed().as_secs_f64();
    out.digest = plain.digest();
    out.check(
        s.digest() == out.digest,
        "tracing changed the quality outputs",
    );
    check(&plain, &mut out);

    let tr = trace.borrow();
    let selfs = tr.self_times();
    let calls = tr.durations("core.trace_eval");
    let eval_s: f64 = calls.iter().sum();
    let walk_self = selfs.get("quality.walk").copied().unwrap_or(0.0);
    out.notes.push(format!(
        "layer self times: model.tracegen {:.4} s | core.itq_train {:.4} s | core.trace_eval {eval_s:.4} s | quality.walk {walk_self:.4} s | core.scf {:.4} s",
        selfs.get("model.tracegen").copied().unwrap_or(0.0),
        selfs.get("core.itq_train").copied().unwrap_or(0.0),
        selfs.get("core.scf").copied().unwrap_or(0.0),
    ));
    out.notes.push(format!(
        "core.trace_eval + quality.walk self time = {:.3} x untraced sweep host time {host_off:.4} s",
        (eval_s + walk_self) / host_off
    ));

    let host = |name: &str, unit: &'static str, v: f64| Metric::new(name, unit, Kind::Host, v);
    out.push(host("model.tracegen_s", "s", tr.total("model.tracegen")));
    out.push(host("core.itq_train_s", "s", tr.total("core.itq_train")));
    out.push(host("core.trace_eval.calls", "count", calls.len() as f64));
    out.push(host(
        "core.trace_eval.p50_call_ms",
        "ms",
        if calls.is_empty() {
            0.0
        } else {
            median(&calls) * 1e3
        },
    ));
    out.push(host("core.trace_eval.s", "s", eval_s));
    out.push(host("core.scf.ns_per_key", "ns", scf));
    let scored: u64 = plain.evals.iter().map(|e| e.quality.stats.scored).sum();
    let region: u64 = plain
        .evals
        .iter()
        .map(|e| e.quality.stats.sparse_region)
        .sum();
    out.push(Metric::new(
        "core.survivor_share",
        "ratio",
        Kind::Quality,
        scored as f64 / region.max(1) as f64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_model::tracegen::{generate_head_trace, TraceConfig};
    use longsight_tensor::SimRng;

    #[test]
    fn walk_matches_fig3_measure() {
        let mut rng = SimRng::seed_from(9);
        let trace = generate_head_trace(&TraceConfig::llama_like(64, 2048), &mut rng);
        let itq = fig3::train_trace_itq(&trace, 512, ITQ_SEED);
        let inputs = Inputs { trace, itq };
        for v in VARIANTS {
            let mine = walk(&inputs, v, None, &mut Vec::new());
            let theirs = fig3::measure_with_rotation(&inputs.trace, v, TOP_K, &inputs.itq);
            assert_eq!(format!("{mine:?}"), format!("{theirs:?}"), "{v}");
        }
    }
}
