//! Discrete-event serving simulation: Poisson request arrivals, continuous
//! batching of synchronized decode steps, per-request latency percentiles.
//!
//! The paper's serving claims (§9.1) are about *operating points*: how many
//! concurrent users a system sustains, where throughput plateaus, and what
//! happens to quality of service as load grows. This module turns the
//! per-step cost models into a closed-loop simulation producing those
//! curves: requests arrive over time, join the running batch (continuous
//! batching), decode their output tokens, and leave.
//!
//! Scheduling is delegated to `longsight-sched`. The default FIFO policy
//! reproduces the original serving loop op-for-op (bit-identical metrics);
//! [`simulate_scheduled`] exposes the SLO-aware policy, where admission is
//! a paged-memory decision over HBM window pages and DReX tail pages,
//! prefill is chunked and overlapped with decode, and best-effort requests
//! are evicted to DReX-resident state when higher classes need HBM.

use crate::attribution::{
    attribution_parts, SpecCharge, SpecSample, TokenAttribution, OVERLAP_HIDDEN, SPEC_MISS,
};
use crate::degrade::{resolve_token, DegradeStats, TokenOutcome};
use crate::prefill::prefill_cost;
use crate::report::{ServingSystem, SpecStep, StepReport};
use crate::session::{self, SessionOptions};
use longsight_cxl::CxlLink;
use longsight_drex::SpecSlotPool;
use longsight_faults::{
    domain, fleet_schedule, stream, unit_draw, FaultInjector, FaultLog, ReplicaEvent,
    ReplicaEventKind, ReplicaFaultProfile, RetryPolicy,
};
use longsight_gpu::GpuSpec;
use longsight_model::ModelConfig;
use longsight_obs::json::fmt_f64;
use longsight_obs::{ArgVal, Recorder, TrackId};
use longsight_sched::{
    BreakerConfig, BreakerState, CircuitBreaker, FleetFaultSummary, FleetReport, KvDeviceGeometry,
    LatencyCounts, Placement, PullRecord, RedispatchRecord, Router, RouterPolicy, SchedConfig,
    SchedEvent, SchedPolicy, SchedReport, SchedRequest, Scheduler, SessionSummary, ShedRecord,
    SloBurnSummary, SloClass, SloMix,
};
use longsight_tensor::SimRng;
use std::borrow::Cow;
use std::collections::HashMap;

/// XOR'd into the workload seed for the SLO-class stream, so class draws
/// never perturb the arrival-process stream (FIFO metrics stay bit-exact
/// for any mix).
const CLASS_SEED: u64 = 0x736c_6f63;

/// Offered-load description.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Mean request arrival rate (Poisson), requests per second.
    pub arrivals_per_s: f64,
    /// Uniform range of per-request context lengths (prompt tokens).
    pub context_tokens: (usize, usize),
    /// Uniform range of output (decode) lengths.
    pub output_tokens: (usize, usize),
    /// Simulated wall-clock duration, seconds.
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A steady long-context chat workload.
    pub fn long_context_chat() -> Self {
        Self {
            arrivals_per_s: 2.0,
            context_tokens: (65_536, 131_072),
            output_tokens: (64, 256),
            duration_s: 30.0,
            seed: 7,
        }
    }
}

/// Scheduler policy and paged-KV knobs for [`simulate_scheduled`].
#[derive(Debug, Clone)]
pub struct SchedOptions {
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// SLO-class mix of the offered load (classes drawn from a dedicated
    /// RNG stream, so the arrival process is identical across mixes).
    pub mix: SloMix,
    /// Tokens per KV page.
    pub page_tokens: usize,
    /// Prefill chunk size, prompt tokens (SLO-aware only).
    pub prefill_chunk_tokens: usize,
    /// Concurrent requests advancing prefill per step (SLO-aware only).
    /// Must be ≥ 1 — the CLI rejects `--prefill-slots 0` up front.
    pub prefill_slots: usize,
    /// Fraction of HBM pages the SLO-aware allocator may use.
    pub hbm_watermark: f64,
}

impl SchedOptions {
    /// The legacy serving behavior: FIFO admission, single-class load.
    pub fn fifo() -> Self {
        Self {
            policy: SchedPolicy::Fifo,
            mix: SloMix::all_interactive(),
            page_tokens: 1024,
            prefill_chunk_tokens: 8192,
            prefill_slots: 1,
            hbm_watermark: 0.9,
        }
    }

    /// SLO-aware scheduling over the given class mix.
    pub fn slo_aware(mix: SloMix) -> Self {
        Self {
            policy: SchedPolicy::SloAware,
            ..Self::fifo()
        }
        .with_mix(mix)
    }

    fn with_mix(mut self, mix: SloMix) -> Self {
        self.mix = mix;
        self
    }
}

/// Fleet-level fault-domain and overload-control knobs for
/// [`simulate_fleet_with`], independent of its session options. The
/// [`FleetFaultOptions::disabled`] value arms nothing: the run interns no
/// fault track and its report carries no fault summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultOptions {
    /// Replica crash/recovery and DReX-brownout schedule parameters.
    pub profile: ReplicaFaultProfile,
    /// Seed of the replica fault streams (independent of the workload
    /// seed, so the offered load never shifts with the fault draw).
    pub fault_seed: u64,
    /// Health-aware routing: `Some` arms a per-replica circuit breaker
    /// and routes around open replicas; `None` is the naive baseline
    /// where the router stays blind to replica health.
    pub breaker: Option<BreakerConfig>,
    /// Admission control: `Some(n)` caps per-replica queue depth at `n`
    /// best-effort / `2n` batch / `4n` interactive requests and sheds
    /// arrivals no replica can take. `None` admits everything.
    pub shed_queue_cap: Option<usize>,
}

impl FleetFaultOptions {
    /// No replica faults, no breaker, no shedding: the fleet is immortal.
    pub fn disabled() -> Self {
        Self {
            profile: ReplicaFaultProfile::disabled(),
            fault_seed: 0,
            breaker: None,
            shed_queue_cap: None,
        }
    }

    /// Whether any fault-domain machinery is armed (crash/brownout
    /// schedule, breaker, or shedding). When false every replica passes
    /// the health gate and the run reports no fault summary.
    pub fn is_active(&self) -> bool {
        self.profile.is_enabled() || self.breaker.is_some() || self.shed_queue_cap.is_some()
    }
}

impl Default for FleetFaultOptions {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Per-class queue-depth cap derived from the single shed knob: the
/// shedding order is best-effort first (cap `n`), then batch (`2n`);
/// interactive keeps the deepest queue (`4n`), so it is only ever shed
/// when the whole fleet is past capacity for everyone.
fn class_queue_cap(base: usize, class: SloClass) -> usize {
    match class {
        SloClass::Interactive => base.saturating_mul(4),
        SloClass::Batch => base.saturating_mul(2),
        SloClass::BestEffort => base,
    }
}

/// Routing eligibility for a breaker-guarded fleet. Normally each
/// replica's breaker state is used as-is, but when *every* breaker is
/// open the tripped-open ones (slow, not dead) are offered as half-open
/// last resorts: an overloaded-but-alive replica always beats shedding,
/// and interactive work is never dropped while a live replica remains.
/// Only when every open breaker is held open (every replica physically
/// down) does the fleet report no healthy target.
fn breaker_health(bs: &[CircuitBreaker]) -> Vec<BreakerState> {
    let mut health: Vec<BreakerState> = bs.iter().map(CircuitBreaker::state).collect();
    if health.iter().all(|&s| s == BreakerState::Open) {
        for (h, b) in health.iter_mut().zip(bs) {
            if !b.is_held_open() {
                *h = BreakerState::HalfOpen;
            }
        }
    }
    health
}

/// Trace instant name of a breaker transition.
fn breaker_instant_name(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "breaker.close",
        BreakerState::Open => "breaker.open",
        BreakerState::HalfOpen => "breaker.half_open",
    }
}

/// Numeric encoding of a breaker state for the `r{i}.breaker` telemetry
/// gauge: 0 = closed, 1 = half-open, 2 = open, so a sparkline of the
/// series rises when a replica trips and falls as probes close it.
fn breaker_level(state: BreakerState) -> f64 {
    match state {
        BreakerState::Closed => 0.0,
        BreakerState::HalfOpen => 1.0,
        BreakerState::Open => 2.0,
    }
}

/// Aggregate results of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Requests fully served.
    pub completed: usize,
    /// Requests rejected at arrival (no capacity at any point in the run).
    pub rejected: usize,
    /// Requests still in flight at the end.
    pub in_flight: usize,
    /// Generated tokens per second over the simulated window.
    pub throughput_tps: f64,
    /// Median per-token (decode step) latency, ms: the round-index
    /// percentile ([`LatencyCounts::quantile_round`]) of the exact token
    /// counts merged across classes (and replicas), in which each decode
    /// step contributes its duration `min(decoding, 64)` times.
    pub p50_token_ms: f64,
    /// 99th-percentile per-token latency, ms, over the same counts as
    /// [`ServeMetrics::p50_token_ms`].
    pub p99_token_ms: f64,
    /// Median end-to-end request latency (arrival → last token), ms.
    pub p50_request_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_request_ms: f64,
    /// Mean batch size across decode steps.
    pub mean_batch: f64,
    /// Tokens whose offload needed at least one retry but completed
    /// (zero on fault-free runs).
    pub retried_tokens: usize,
    /// Tokens that exhausted the retry budget and were emitted from dense
    /// window-only attention (zero on fault-free runs).
    pub degraded_tokens: usize,
    /// Requests that died unrecoverably under injected hard faults
    /// (zero on fault-free runs).
    pub failed_requests: usize,
    /// Quality delta of degradation: the fraction of generated tokens that
    /// lost long-range top-k attention (their recall over the non-window
    /// region dropped to zero for that step).
    pub degraded_quality_delta: f64,
    /// Speculative lookahead chains that landed and hid their offload wait
    /// (zero with the lookahead pipeline off).
    pub spec_hits: usize,
    /// Speculative chains invalidated before use — a stale context draw or
    /// an injected fault voiding the in-flight slice (zero with lookahead
    /// off).
    pub spec_misses: usize,
    /// Speculative issues denied by slot-pool backpressure (zero with
    /// lookahead off).
    pub spec_denied: usize,
    /// SLO error-budget accounting from the burn-rate engine; `None`
    /// unless timeseries telemetry was enabled, so all pre-existing
    /// output stays byte-identical.
    pub slo_burn: Option<SloBurnSummary>,
}

impl ServeMetrics {
    /// The run summary as printed by `longsight loadtest` (four lines:
    /// completion counts, throughput, token and request latency).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "  completed {} | rejected {} | in flight {}\n  throughput: {:.1} tok/s | mean batch {:.1}\n  token latency  p50 {:.2} ms  p99 {:.2} ms\n  request latency p50 {:.1} ms  p99 {:.1} ms\n",
            self.completed,
            self.rejected,
            self.in_flight,
            self.throughput_tps,
            self.mean_batch,
            self.p50_token_ms,
            self.p99_token_ms,
            self.p50_request_ms,
            self.p99_request_ms,
        );
        if let Some(b) = &self.slo_burn {
            out.push_str(&b.to_text());
        }
        out
    }

    /// Every field as a flat JSON object (stable key order). The
    /// speculation counters appear only when any is non-zero, so
    /// lookahead-off output is byte-identical to builds that predate them.
    pub fn to_json(&self) -> String {
        let spec = if self.spec_hits + self.spec_misses + self.spec_denied > 0 {
            format!(
                ",\"spec_hits\":{},\"spec_misses\":{},\"spec_denied\":{}",
                self.spec_hits, self.spec_misses, self.spec_denied
            )
        } else {
            String::new()
        };
        // Like the speculation counters: present only for telemetry-enabled
        // runs, so telemetry-off JSON is byte-identical to older builds.
        let burn = match &self.slo_burn {
            None => String::new(),
            Some(b) => format!(
                ",\"slo_burn\":{{\"slo_ms\":{},\"budget\":{},\"completions\":{},\"misses\":{},\"consumed\":{},\"alert_windows\":{},\"first_alert_ms\":{}}}",
                fmt_f64(b.slo_ms),
                fmt_f64(b.budget),
                b.completions,
                b.misses,
                fmt_f64(b.consumed),
                b.alert_windows,
                fmt_f64(b.first_alert_ms),
            ),
        };
        format!(
            "{{\"completed\":{},\"rejected\":{},\"in_flight\":{},\"throughput_tps\":{},\"p50_token_ms\":{},\"p99_token_ms\":{},\"p50_request_ms\":{},\"p99_request_ms\":{},\"mean_batch\":{},\"retried_tokens\":{},\"degraded_tokens\":{},\"failed_requests\":{},\"degraded_quality_delta\":{}{spec}{burn}}}",
            self.completed,
            self.rejected,
            self.in_flight,
            fmt_f64(self.throughput_tps),
            fmt_f64(self.p50_token_ms),
            fmt_f64(self.p99_token_ms),
            fmt_f64(self.p50_request_ms),
            fmt_f64(self.p99_request_ms),
            fmt_f64(self.mean_batch),
            self.retried_tokens,
            self.degraded_tokens,
            self.failed_requests,
            fmt_f64(self.degraded_quality_delta),
        )
    }

    /// Parses the output of [`ServeMetrics::to_json`] back into a value.
    ///
    /// Round-trips bit-exactly for finite fields; non-finite floats
    /// serialize as `null` and parse back as `0.0`.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON or a field is
    /// missing or of the wrong type.
    pub fn from_json(text: &str) -> Result<Self, String> {
        use longsight_obs::json::{parse, Value};
        let v = parse(text)?;
        let get_usize = |key: &str| -> Result<usize, String> {
            let f = v
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field '{key}'"))?;
            Ok(f as usize)
        };
        let get_f64 = |key: &str| -> Result<f64, String> {
            let field = v.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
            match field {
                Value::Null => Ok(0.0), // fmt_f64 writes non-finite as null
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("non-numeric field '{key}'")),
            }
        };
        // Optional: absent in lookahead-off output (and pre-lookahead JSON).
        let get_spec = |key: &str| -> Result<usize, String> {
            match v.get(key) {
                None => Ok(0),
                Some(f) => f
                    .as_f64()
                    .map(|x| x as usize)
                    .ok_or_else(|| format!("non-numeric field '{key}'")),
            }
        };
        Ok(Self {
            completed: get_usize("completed")?,
            rejected: get_usize("rejected")?,
            in_flight: get_usize("in_flight")?,
            throughput_tps: get_f64("throughput_tps")?,
            p50_token_ms: get_f64("p50_token_ms")?,
            p99_token_ms: get_f64("p99_token_ms")?,
            p50_request_ms: get_f64("p50_request_ms")?,
            p99_request_ms: get_f64("p99_request_ms")?,
            mean_batch: get_f64("mean_batch")?,
            retried_tokens: get_usize("retried_tokens")?,
            degraded_tokens: get_usize("degraded_tokens")?,
            failed_requests: get_usize("failed_requests")?,
            degraded_quality_delta: get_f64("degraded_quality_delta")?,
            spec_hits: get_spec("spec_hits")?,
            spec_misses: get_spec("spec_misses")?,
            spec_denied: get_spec("spec_denied")?,
            slo_burn: match v.get("slo_burn") {
                None => None,
                Some(b) => {
                    let bf = |key: &str| -> Result<f64, String> {
                        match b.get(key) {
                            Some(Value::Null) => Ok(0.0),
                            Some(x) => x
                                .as_f64()
                                .ok_or_else(|| format!("non-numeric slo_burn field '{key}'")),
                            None => Err(format!("missing slo_burn field '{key}'")),
                        }
                    };
                    Some(SloBurnSummary {
                        slo_ms: bf("slo_ms")?,
                        budget: bf("budget")?,
                        completions: bf("completions")? as u64,
                        misses: bf("misses")? as u64,
                        consumed: bf("consumed")?,
                        alert_windows: bf("alert_windows")? as u64,
                        first_alert_ms: bf("first_alert_ms")?,
                    })
                }
            },
        })
    }
}

/// Nearest-rank percentile on the `round((n − 1) × p)` index of the
/// ascending order, 0 for an empty population — the estimator of the
/// [`ServeMetrics`] request-latency percentiles. Token latencies use the
/// same rule on exact counts ([`LatencyCounts::quantile_round`]).
///
/// The index is found by O(n) in-place selection, so `samples` need not be
/// sorted and their order afterwards is unspecified. Under `total_cmp` two
/// values compare equal only when their bits are equal, so the selected
/// element has the same bits as the sorted order's element at that index.
pub(crate) fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    *samples.select_nth_unstable_by(idx, f64::total_cmp).1
}

/// One serving loop's per-step tallies: decode steps, the users they
/// batched (for the mean batch), and the token-latency samples they
/// produced, `min(decoding, 64)` per step — the scalar the fleet's
/// token-conservation audit checks against the scheduler's class counts.
#[derive(Debug, Clone, Copy, Default)]
struct StepTally {
    steps: usize,
    users: usize,
    token_samples: usize,
}

impl StepTally {
    /// Tallies one decode step with `decoding` members.
    fn record(&mut self, decoding: usize) {
        self.steps += 1;
        self.users += decoding;
        self.token_samples += decoding.min(64);
    }

    fn merge(&mut self, other: &StepTally) {
        self.steps += other.steps;
        self.users += other.users;
        self.token_samples += other.token_samples;
    }

    /// Mean decode batch, 0 without a decode step. Both sums are exact
    /// integers, so this equals the mean of the per-step batch sizes.
    fn mean_batch(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.users as f64 / self.steps as f64
        }
    }

    /// Attaches this loop's token-sample tally to its scheduler's report
    /// for the token-conservation audit.
    fn attach(&self, mut report: SchedReport) -> SchedReport {
        report.loop_token_samples = Some(self.token_samples);
        report
    }
}

/// The run's token-latency multiset: every class's counts merged.
fn merged_token_counts<'a>(classes: impl Iterator<Item = &'a LatencyCounts>) -> LatencyCounts {
    let mut all = LatencyCounts::new();
    for c in classes {
        all.merge(c);
    }
    all
}

#[derive(Debug, Clone)]
pub(crate) struct Arrival {
    pub(crate) id: usize,
    pub(crate) arrival_ns: f64,
    pub(crate) context: usize,
    pub(crate) output: usize,
}

/// Pre-generates the run's arrival process, class draws, and prefill
/// costs. Both the single-replica loop and the fleet driver draw from this
/// one function, so the offered load is byte-identical regardless of how
/// many replicas serve it: arrivals from the workload seed, classes from a
/// dedicated stream (`seed ^ CLASS_SEED`), prefill costs on the
/// deterministic parallel map. Vectors come back reversed — pop from the
/// back in time order.
fn gen_arrivals(
    model: &ModelConfig,
    workload: &WorkloadConfig,
    mix: &SloMix,
) -> (Vec<Arrival>, Vec<SloClass>, Vec<f64>) {
    let mut rng = SimRng::seed_from(workload.seed);
    let gpu = GpuSpec::h100_sxm();
    let link = CxlLink::pcie5_x16();
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut t = 0.0f64;
    let horizon_ns = workload.duration_s * 1e9;
    loop {
        let gap = -((1.0 - rng.uniform()).ln()) / workload.arrivals_per_s * 1e9;
        t += gap;
        if t >= horizon_ns {
            break;
        }
        let (c0, c1) = workload.context_tokens;
        let (o0, o1) = workload.output_tokens;
        let context = c0 + rng.below((c1 - c0).max(1));
        let output = o0 + rng.below((o1 - o0).max(1));
        arrivals.push(Arrival {
            id: arrivals.len(),
            arrival_ns: t,
            context,
            output,
        });
    }
    // SLO classes draw from their own stream: the arrival process above is
    // identical for every mix (and for the legacy single-class runs).
    let mut class_rng = SimRng::seed_from(workload.seed ^ CLASS_SEED);
    let mut classes: Vec<SloClass> = arrivals
        .iter()
        .map(|_| mix.classify(class_rng.uniform()))
        .collect();
    // Each request's prefill cost depends only on its own context length, so
    // the per-user costs compute up front on the deterministic parallel map
    // (bit-identical to calling `prefill_cost` at admission time).
    let mut prefill_ns: Vec<f64> = longsight_exec::deterministic_map(&arrivals, |_, a| {
        prefill_cost(&gpu, &link, model, a.context, 1024).total_ns
    });
    arrivals.reverse(); // pop from the back in time order
    prefill_ns.reverse();
    classes.reverse();
    (arrivals, classes, prefill_ns)
}

/// The step-cost cache shared by feasibility probes and step execution,
/// keyed by `(batch, context bucket)`. The first (and only) evaluation of
/// each shape also records the system's expanded step timeline, anchored
/// at the simulated time it was first needed.
fn cached_step_cost(
    cache: &mut Vec<((usize, usize), Option<StepReport>)>,
    sys: &mut dyn ServingSystem,
    users: usize,
    ctx: usize,
    rec: &mut Recorder,
    at_ns: f64,
) -> Option<StepReport> {
    let bucket = ctx.next_power_of_two();
    if let Some(&(_, v)) = cache.iter().find(|&&(k, _)| k == (users, bucket)) {
        return v;
    }
    let v = sys.evaluate(users, bucket).ok();
    if v.is_some() {
        sys.record_step_detail(users, bucket, rec, at_ns);
    }
    cache.push(((users, bucket), v));
    v
}

/// Runs the closed-loop simulation of `system` under `workload`.
///
/// Admission: an arriving request joins the batch if the system can evaluate
/// the grown batch at the largest member context; otherwise it waits in an
/// unbounded queue (and counts toward request latency). Steps are
/// synchronized across the batch (all users advance one token per step), and
/// contexts are frozen at admission — decode extends them by at most a few
/// hundred tokens, negligible against 64K+ prompts.
pub fn simulate(
    system: &mut dyn ServingSystem,
    model: &ModelConfig,
    workload: &WorkloadConfig,
) -> ServeMetrics {
    simulate_scheduled(
        system,
        model,
        workload,
        &SchedOptions::fifo(),
        None,
        &mut Recorder::disabled(),
        None,
    )
    .0
}

/// Translates scheduler decision events into `sched.*` trace instants.
fn flush_sched_events(sched: &mut Scheduler, rec: &mut Recorder, track: TrackId, at_ns: f64) {
    if !rec.is_enabled() {
        return;
    }
    for ev in sched.take_events() {
        match ev {
            SchedEvent::Admitted { id, class } => rec.instant_with(
                track,
                "sched.admit",
                at_ns,
                &[
                    ("id", ArgVal::U(id as u64)),
                    ("class", ArgVal::S(class.name())),
                ],
            ),
            SchedEvent::Queued { id, class } => rec.instant_with(
                track,
                "sched.queue",
                at_ns,
                &[
                    ("id", ArgVal::U(id as u64)),
                    ("class", ArgVal::S(class.name())),
                ],
            ),
            SchedEvent::Rejected { id, class } => rec.instant_with(
                track,
                "sched.reject",
                at_ns,
                &[
                    ("id", ArgVal::U(id as u64)),
                    ("class", ArgVal::S(class.name())),
                ],
            ),
            SchedEvent::Preempted {
                id,
                class,
                hbm_pages,
            } => rec.instant_with(
                track,
                "sched.preempt",
                at_ns,
                &[
                    ("id", ArgVal::U(id as u64)),
                    ("class", ArgVal::S(class.name())),
                    ("hbm_pages", ArgVal::U(hbm_pages as u64)),
                ],
            ),
            SchedEvent::Resumed {
                id,
                class,
                cost_ns,
                restored,
            } => rec.instant_with(
                track,
                "sched.resume",
                at_ns,
                &[
                    ("id", ArgVal::U(id as u64)),
                    ("class", ArgVal::S(class.name())),
                    ("cost_ns", ArgVal::F(cost_ns)),
                    ("restored", ArgVal::U(restored as u64)),
                ],
            ),
            SchedEvent::Degraded { id, drex_pages } => rec.instant_with(
                track,
                "sched.degrade",
                at_ns,
                &[
                    ("id", ArgVal::U(id as u64)),
                    ("drex_pages", ArgVal::U(drex_pages as u64)),
                ],
            ),
            SchedEvent::Completed {
                id,
                class,
                latency_ms,
            } => rec.instant_with(
                track,
                "sched.complete",
                at_ns,
                &[
                    ("id", ArgVal::U(id as u64)),
                    ("class", ArgVal::S(class.name())),
                    ("latency_ms", ArgVal::F(latency_ms)),
                ],
            ),
            SchedEvent::Failed { id, class } => rec.instant_with(
                track,
                "sched.fail",
                at_ns,
                &[
                    ("id", ArgVal::U(id as u64)),
                    ("class", ArgVal::S(class.name())),
                ],
            ),
        }
    }
}

/// The paged-KV surface: how this system's devices map contexts onto HBM
/// window pages and DReX tail pages. Systems without page accounting get
/// an unbounded ledger (admission degenerates to step feasibility).
fn geometry_for(system: &dyn ServingSystem, opts: &SchedOptions) -> KvDeviceGeometry {
    system
        .kv_geometry(opts.page_tokens)
        .unwrap_or(KvDeviceGeometry {
            page_tokens: opts.page_tokens.max(1),
            window_tokens: usize::MAX,
            hbm_capacity_pages: usize::MAX / 4,
            drex_capacity_pages: usize::MAX / 4,
            restore_ns_per_page: 0.0,
            recompute_ns_per_token: 0.0,
        })
}

fn sched_config_for(geometry: &KvDeviceGeometry, opts: &SchedOptions) -> SchedConfig {
    let page_cfg = geometry.page_config(opts.hbm_watermark);
    let mut sched_cfg = match opts.policy {
        SchedPolicy::Fifo => SchedConfig::fifo(page_cfg, geometry.window_tokens),
        SchedPolicy::SloAware => {
            SchedConfig::slo_aware(page_cfg, geometry.window_tokens, opts.prefill_chunk_tokens)
        }
    };
    // Validated at the CLI boundary (`--prefill-slots 0` is rejected with
    // an error, not clamped); `Scheduler::new` debug-asserts the contract.
    sched_cfg.prefill_slots = opts.prefill_slots;
    sched_cfg
}

/// Resolves one speculated decode step against the slot pool.
///
/// Each decoding member `(request id, token index)` tries to occupy one
/// slot for the chain issued at the previous step. A denied issue (pool
/// exhausted) leaves the member on the synchronous path. An issued member
/// then draws its miss on the dedicated `domain::SPEC` stream — stale
/// speculation (context grew past the speculated region or an
/// eviction/restore invalidated pages, modeled by `miss_rate`) or, under
/// fault injection, an in-flight void (the slice timeout/bit-flip classes
/// hitting the speculative chain). Every decision is a pure function of
/// `(seed, id, token)`, so the schedule is bit-identical at any thread
/// count and across reruns. Emits `spec.issue` / `spec.hit` / `spec.miss`
/// instants and returns the member counts `(hits, misses, denied)`.
fn resolve_spec_step(
    pool: &mut SpecSlotPool,
    s: &SpecStep,
    members: impl Iterator<Item = (u64, u64)>,
    inj: Option<&FaultInjector>,
    rec: &mut Recorder,
    track: TrackId,
    now_ns: f64,
) -> (usize, usize, usize) {
    pool.release_until(now_ns);
    let (mut hits, mut misses, mut denied) = (0usize, 0usize, 0usize);
    for (id, tok) in members {
        if !pool.issue(now_ns, s.chain_ns) {
            denied += 1;
            continue;
        }
        if rec.is_enabled() {
            rec.instant_with(
                track,
                "spec.issue",
                now_ns,
                &[("id", ArgVal::U(id)), ("tok", ArgVal::U(tok))],
            );
        }
        let stale = unit_draw(s.seed, stream(domain::SPEC, id, tok, 0), 0) < s.miss_rate;
        // An injected fault voids the in-flight slice: the same classes
        // that would corrupt a synchronous offload (hard slice timeouts,
        // PFU bit-flips) kill the speculative copy. The draw lives on its
        // own stream coordinate so the retry ladder's sequence
        // (`domain::TOKEN`) is untouched — a voided slot charges a miss
        // and is never double-retried.
        let voided = inj.is_some_and(|inj| {
            let void_rate = inj.profile.timeout_rate + inj.profile.bitflip_rate;
            void_rate > 0.0 && inj.uniform(stream(domain::SPEC, id, tok, 1), 0) < void_rate
        });
        if stale || voided {
            misses += 1;
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "spec.miss",
                    now_ns,
                    &[
                        ("id", ArgVal::U(id)),
                        ("tok", ArgVal::U(tok)),
                        ("void", ArgVal::U(u64::from(voided))),
                    ],
                );
            }
        } else {
            hits += 1;
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "spec.hit",
                    now_ns,
                    &[("id", ArgVal::U(id)), ("tok", ArgVal::U(tok))],
                );
            }
        }
    }
    (hits, misses, denied)
}

/// How a resolved speculation paces the synchronized step: any miss runs
/// the synchronous path plus the deterministic re-filter penalty, a
/// denial-only step runs the synchronous path, an all-hit step keeps the
/// hit-path timing.
fn spec_pacing(s: &SpecStep, hit_step_ns: f64, misses: usize, denied: usize) -> (f64, SpecCharge) {
    if misses > 0 {
        (s.serial_step_ns + s.refilter_penalty_ns, SpecCharge::Miss)
    } else if denied > 0 {
        (s.serial_step_ns, SpecCharge::Denied)
    } else {
        (hit_step_ns, SpecCharge::Hit)
    }
}

/// The full single-replica serving simulation: an explicit scheduler
/// configuration, optional token-level fault injection, observability and
/// per-token attribution, returning the per-class [`SchedReport`] and the
/// fault log alongside the aggregate metrics.
///
/// **Scheduling.** With `SchedOptions::fifo()` and no faults this is
/// exactly [`simulate`] (bit-identical metrics). With an SLO-aware policy,
/// admission allocates HBM window pages and DReX tail pages against the
/// system's [`ServingSystem::kv_geometry`], prefill is chunked
/// (overlapping the memory-bound decode steps), and best-effort requests
/// are preempted to DReX-resident state when higher classes need HBM
/// pages, paying the cheaper of restore-over-CXL or recompute-on-GPU at
/// resume.
///
/// **Faults.** Under `faults`, each generated token resolves through the
/// retry/deadline degradation policy ([`crate::degrade::resolve_token`]):
/// sampled offload timeouts cost the full deadline plus backoff,
/// exhausted retries degrade the token to dense window-only attention, and
/// hard faults kill the request. The synchronized batch is paced by its
/// worst token. Every decision derives from `(inj.seed, request id, token
/// index, attempt)`, so two runs with the same seed produce byte-identical
/// logs and identical metrics at any thread count; a disabled injector
/// gives the fault-free run plus an empty log.
///
/// **Observability.** Every decode step emits a `decode.step` span on the
/// `serving` track (with a nested `decode.retry_wait` child when fault
/// penalties stretch the step), the first evaluation of each distinct
/// `(batch, context)` shape records the system's expanded internal
/// timeline at the simulated time it was first needed, every fault event
/// lands on the `faults` track as an instant (1:1 with the returned
/// [`FaultLog`]), scheduling decisions land on the `sched` track as
/// instants, and the run's aggregate counters/latency histograms populate
/// `rec.metrics`. When `attr` is given, each generated token's latency is
/// decomposed into the attribution components. Recording only reads
/// simulation state, so the simulated timeline is bit-identical with
/// `rec` enabled or disabled.
pub fn simulate_scheduled(
    system: &mut dyn ServingSystem,
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    faults: Option<(&FaultInjector, &RetryPolicy)>,
    rec: &mut Recorder,
    mut attr: Option<&mut TokenAttribution>,
) -> (ServeMetrics, SchedReport, FaultLog) {
    let faults = faults.filter(|(inj, _)| inj.is_enabled());
    let mut fault_log = FaultLog::new();
    let mut degrade = DegradeStats::default();
    let horizon_ns = workload.duration_s * 1e9;
    let (mut arrivals, mut classes, mut prefill_ns) = gen_arrivals(model, workload, &opts.mix);
    let total_arrived = arrivals.len();

    let geometry = geometry_for(system, opts);
    let mut sched = Scheduler::new(sched_config_for(&geometry, opts));
    sched.set_event_recording(rec.is_enabled());

    let mut now = 0.0f64;
    let mut steps = StepTally::default();
    let mut request_latencies: Vec<f64> = Vec::new();
    let mut generated_tokens = 0usize;
    let serving_track = rec.track("serving");
    let faults_track = rec.track("faults");
    let sched_track = rec.track("sched");
    let mut fault_cursor = 0usize;
    // Lazily sized from the first speculated report, so the pool bound
    // comes from the system's own lookahead config; stays `None` (and the
    // `spec` track uncreated) for every lookahead-off run.
    let mut spec_pool: Option<SpecSlotPool> = None;
    let (mut spec_hits, mut spec_misses, mut spec_denied) = (0usize, 0usize, 0usize);
    let mut cache: Vec<((usize, usize), Option<StepReport>)> = Vec::new();
    let mut step_cost = |sys: &mut dyn ServingSystem,
                         users: usize,
                         ctx: usize,
                         rec: &mut Recorder,
                         at_ns: f64|
     -> Option<StepReport> {
        cached_step_cost(&mut cache, sys, users, ctx, rec, at_ns)
    };

    let ts_on = rec.timeseries.is_enabled();
    let mut admitted_ts: Vec<f64> = Vec::new();
    loop {
        // Admission and queue drain are the scheduler's decisions; the step
        // model only answers feasibility. (FIFO issues the exact legacy
        // sequence of feasibility probes, so the step-detail anchors in the
        // trace are unchanged.)
        {
            let mut feas = |users: usize, ctx: usize| -> bool {
                step_cost(system, users, ctx, rec, now).is_some()
            };
            while arrivals.last().is_some_and(|a| a.arrival_ns <= now) {
                let a = arrivals.pop().expect("checked");
                let pf_ns = prefill_ns.pop().expect("paired with arrivals");
                let class = classes.pop().expect("paired with arrivals");
                // Arrival timestamps are staged outside the closure scope
                // (which holds `rec` via `feas`) and recorded just below.
                if ts_on {
                    admitted_ts.push(a.arrival_ns);
                }
                let req = SchedRequest {
                    id: a.id,
                    class,
                    arrival_ns: a.arrival_ns,
                    context: a.context,
                    output: a.output,
                    prefill_ns: pf_ns,
                    restore_ns: geometry.restore_ns(a.context),
                    recompute_ns: geometry.recompute_ns(a.context),
                    pull_ns: f64::INFINITY,
                    prefix_hash: None,
                };
                sched.on_arrival(req, &mut feas);
            }
            sched.drain_queue(&mut feas);
        }
        flush_sched_events(&mut sched, rec, sched_track, now);
        if ts_on {
            for &t in &admitted_ts {
                rec.timeseries.rate_add("arrivals", t, 1.0);
            }
            admitted_ts.clear();
            sample_sched_timeseries(rec, "", now, &sched);
        }

        if sched.active_is_empty() {
            match arrivals.last() {
                Some(a) => {
                    now = a.arrival_ns;
                    continue;
                }
                None => break,
            }
        }

        // One synchronized step: the decoding members advance one token;
        // chunked prefill shares the step (SLO-aware only).
        let plan = sched.plan_step();
        let report = if plan.decode_users > 0 {
            Some(
                step_cost(system, plan.decode_users, plan.max_decode_ctx, rec, now)
                    .expect("a decode subset of an admitted batch must evaluate"),
            )
        } else {
            None
        };
        let mut base_dt = report.map_or(0.0, |r| r.step_ns);
        // With the lookahead pipeline on, the chain for this step was
        // issued speculatively at the previous one: resolve every decoding
        // member against the slot pool before the step's duration is
        // fixed. Lookahead-off reports carry no `spec`, so this block (and
        // the `spec` track) never exists on that path.
        let mut spec_charge: Option<SpecCharge> = None;
        let mut spec_step_counts = (0usize, 0usize, 0usize);
        let mut spec_penalty_ns = 0.0f64;
        if let Some(s) = report.and_then(|r| r.spec) {
            let pool = spec_pool.get_or_insert_with(|| SpecSlotPool::new(s.slots));
            let spec_track = rec.track("spec");
            let (hits, misses, denied) = resolve_spec_step(
                pool,
                &s,
                sched
                    .active()
                    .iter()
                    .filter(|r| r.in_decode)
                    .map(|r| (r.req.id as u64, r.generated as u64)),
                faults.map(|(inj, _)| inj),
                rec,
                spec_track,
                now,
            );
            let (paced, charge) = spec_pacing(&s, base_dt, misses, denied);
            base_dt = paced;
            if charge == SpecCharge::Miss {
                spec_penalty_ns = s.refilter_penalty_ns;
            }
            spec_charge = Some(charge);
            spec_step_counts = (hits, misses, denied);
            spec_hits += hits;
            spec_misses += misses;
            spec_denied += denied;
        }
        // Chunked prefill hides inside the memory-bound decode step; only a
        // pure-prefill step pays chunk time alone. FIFO plans no chunks, so
        // `work_dt == base_dt` exactly.
        let work_dt = base_dt.max(plan.prefill_ns);
        let mut dt = work_dt;
        let step_start = now;
        let mut batch_died = false;
        if let Some((inj, retry)) = faults {
            // Resolve every decoding member's token through the degradation
            // policy. The batch is synchronized, so the worst member's
            // retry/backoff penalty paces the whole step; hard-failed
            // requests leave the batch without emitting this token.
            let mut max_penalty = 0.0f64;
            let mut dead: Vec<usize> = Vec::new();
            let mut degraded_ids: Vec<usize> = Vec::new();
            for r in sched.active() {
                if !r.in_decode {
                    continue;
                }
                let (outcome, penalty) = resolve_token(
                    inj,
                    retry,
                    r.req.id as u64,
                    r.generated as u64,
                    &mut fault_log,
                );
                degrade.record(outcome);
                match outcome {
                    TokenOutcome::Failed => dead.push(r.req.id),
                    TokenOutcome::Degraded => {
                        degraded_ids.push(r.req.id);
                        max_penalty = max_penalty.max(penalty);
                    }
                    TokenOutcome::Completed { .. } => max_penalty = max_penalty.max(penalty),
                }
            }
            // Replay this step's fault events onto the trace (1:1 with the
            // log) at the step's start time.
            fault_cursor += fault_log.record_tail_into(fault_cursor, rec, faults_track, step_start);
            sched.remove_failed(&dead);
            // A degraded request lost its long-range path: its DReX tail
            // pages come back to the pool.
            for id in degraded_ids {
                sched.on_degraded(id);
            }
            dt += max_penalty;
            batch_died = sched.active_is_empty();
        }
        if rec.is_enabled() {
            if plan.decode_users > 0 {
                let span = rec.open_with(
                    serving_track,
                    "decode.step",
                    step_start,
                    &[
                        ("users", ArgVal::U(plan.users as u64)),
                        ("ctx", ArgVal::U(plan.max_decode_ctx as u64)),
                    ],
                );
                if dt > work_dt {
                    // The worst token's deadline overrun paces the batch.
                    rec.leaf_with(
                        serving_track,
                        "decode.retry_wait",
                        step_start + work_dt,
                        step_start + dt,
                        &[("penalty_ns", ArgVal::F(dt - work_dt))],
                    );
                }
                rec.close(span, step_start + dt);
            } else {
                rec.leaf_with(
                    serving_track,
                    "prefill.step",
                    step_start,
                    step_start + dt,
                    &[
                        ("users", ArgVal::U(plan.prefill_users as u64)),
                        ("prefill_ns", ArgVal::F(plan.prefill_ns)),
                    ],
                );
            }
        }
        now += dt;
        if batch_died {
            flush_sched_events(&mut sched, rec, sched_track, now);
            continue;
        }
        if now > 4.0 * horizon_ns {
            break; // overload guard: stop accounting far past the window
        }
        let decoding = sched.decoding_count();
        if decoding > 0 {
            steps.record(decoding);
            if let (Some(a), Some(r)) = (attr.as_deref_mut(), report.as_ref()) {
                let parts = attribution_parts(r, dt, spec_charge);
                a.record_step(parts, dt, decoding.min(64));
                if let (Some(charge), Some(s)) = (spec_charge, r.spec) {
                    let (h, m, d) = spec_step_counts;
                    a.record_spec_step(
                        SpecSample {
                            charge,
                            chain_ns: s.chain_ns,
                            hit_visible_ns: s.hit_visible_ns,
                            serial_visible_ns: s.serial_visible_ns,
                            spec_miss_ns: parts[SPEC_MISS],
                            overlap_hidden_ns: parts[OVERLAP_HIDDEN],
                            penalty_ns: spec_penalty_ns,
                        },
                        h,
                        m,
                        d,
                    );
                }
            }
            generated_tokens += decoding;
        }
        for c in sched.advance_step(dt, now) {
            request_latencies.push(c.latency_ms);
            if ts_on {
                rec.timeseries
                    .observe_ms("lat.request_ms", now, c.latency_ms);
                if c.class == SloClass::Interactive {
                    rec.timeseries.slo_sample(now, c.latency_ms);
                }
            }
        }
        flush_sched_events(&mut sched, rec, sched_track, now);
        if ts_on {
            if decoding > 0 {
                rec.timeseries.rate_add("tokens", now, decoding as f64);
            }
            sample_sched_timeseries(rec, "", now, &sched);
        }
    }

    let token_lat = merged_token_counts(sched.class_samples().iter().map(|(tok, _)| *tok));
    let span_s = (now.max(1.0)) / 1e9;
    let slo_burn = finalize_slo_burn(rec);
    let metrics = ServeMetrics {
        completed: request_latencies.len(),
        rejected: sched.rejected(),
        in_flight: total_arrived
            - request_latencies.len()
            - sched.rejected()
            - sched.waiting_len()
            - degrade.failed_requests,
        throughput_tps: generated_tokens as f64 / span_s,
        p50_token_ms: token_lat.quantile_round(0.5),
        p99_token_ms: token_lat.quantile_round(0.99),
        p50_request_ms: percentile(&mut request_latencies, 0.5),
        p99_request_ms: percentile(&mut request_latencies, 0.99),
        mean_batch: steps.mean_batch(),
        retried_tokens: degrade.retried_tokens,
        degraded_tokens: degrade.degraded_tokens,
        failed_requests: degrade.failed_requests,
        degraded_quality_delta: if generated_tokens == 0 {
            0.0
        } else {
            degrade.degraded_tokens as f64 / generated_tokens as f64
        },
        spec_hits,
        spec_misses,
        spec_denied,
        slo_burn,
    };
    let sched_report = steps.attach(sched.finalize());
    if rec.is_enabled() {
        for (v, n) in token_lat.iter() {
            rec.observe_n("serving.token_latency_ms", v, n as u64);
        }
        rec.observe_all("serving.request_latency_ms", &mut request_latencies);
        rec.counter_add("serving.completed", metrics.completed as u64);
        rec.counter_add("serving.rejected", metrics.rejected as u64);
        rec.counter_add("serving.generated_tokens", generated_tokens as u64);
        rec.counter_add("serving.retried_tokens", metrics.retried_tokens as u64);
        rec.counter_add("serving.degraded_tokens", metrics.degraded_tokens as u64);
        rec.counter_add("serving.failed_requests", metrics.failed_requests as u64);
        rec.counter_add("serving.fault_events", fault_log.len() as u64);
        // Speculation counters exist only when a slot pool did: metrics
        // exports of lookahead-off runs keep their exact key set.
        if let Some(pool) = &spec_pool {
            rec.counter_add("serving.spec_hits", metrics.spec_hits as u64);
            rec.counter_add("serving.spec_misses", metrics.spec_misses as u64);
            rec.counter_add("serving.spec_denied", metrics.spec_denied as u64);
            rec.gauge_set("serving.spec_peak_slots", pool.peak_occupancy() as f64);
        }
        rec.gauge_set("serving.throughput_tps", metrics.throughput_tps);
        rec.gauge_set("serving.mean_batch", metrics.mean_batch);
        rec.gauge_set("serving.p50_token_ms", metrics.p50_token_ms);
        rec.gauge_set("serving.p99_token_ms", metrics.p99_token_ms);
        rec.counter_add("sched.preemptions", sched_report.preemptions as u64);
        rec.counter_add("sched.resumes", sched_report.resumes as u64);
        rec.counter_add("sched.prefill_chunks", sched_report.prefill_chunks as u64);
        rec.gauge_set("sched.peak_hbm_pages", sched_report.pages.peak_hbm as f64);
        rec.gauge_set("sched.peak_drex_pages", sched_report.pages.peak_drex as f64);
    }
    (metrics, sched_report, fault_log)
}

/// Records one telemetry sampling point for a scheduler: queue depth per
/// SLO class, batch size, and page occupancy in both tiers. `prefix` is
/// empty on the single-replica path and `r{i}.` inside fleets; series
/// intern themselves on first touch, so the per-sample cost is a window
/// index plus a hash lookup.
fn sample_sched_timeseries(rec: &mut Recorder, prefix: &str, now_ns: f64, sched: &Scheduler) {
    if !rec.timeseries.is_enabled() {
        return;
    }
    let q = sched.queue_depths();
    let load = sched.load();
    let ts = &mut rec.timeseries;
    ts.gauge(&format!("{prefix}queue.interactive"), now_ns, q[0] as f64);
    ts.gauge(&format!("{prefix}queue.batch"), now_ns, q[1] as f64);
    ts.gauge(&format!("{prefix}queue.best_effort"), now_ns, q[2] as f64);
    ts.gauge(&format!("{prefix}active"), now_ns, load.active as f64);
    ts.gauge(&format!("{prefix}hbm_pages"), now_ns, load.hbm_used as f64);
    ts.gauge(
        &format!("{prefix}drex_pages"),
        now_ns,
        load.drex_used as f64,
    );
    // Prefix-cache gauges exist only when the cache is armed (session
    // runs), so every sessionless series list is byte-identical.
    if sched.pages().prefix_capacity() > 0 {
        let stats = sched.pages().stats();
        let lookups = stats.prefix_hits + stats.prefix_misses;
        if lookups > 0 {
            ts.gauge(
                &format!("{prefix}prefix.reuse"),
                now_ns,
                stats.prefix_hits as f64 / lookups as f64,
            );
        }
        ts.gauge(
            &format!("{prefix}prefix.pinned_pages"),
            now_ns,
            sched.pages().prefix_pinned_pages() as f64,
        );
    }
}

/// Drains the burn-rate engine at end of run: emits one `slo.burn` trace
/// instant per alert window on a dedicated `slo` track and returns the
/// budget summary for `ServeMetrics`/`FleetReport`. Returns `None` — and
/// interns no track — when timeseries telemetry is off, keeping
/// telemetry-off traces byte-identical.
fn finalize_slo_burn(rec: &mut Recorder) -> Option<SloBurnSummary> {
    if !rec.timeseries.is_enabled() {
        return None;
    }
    let alerts = rec.timeseries.burn_alerts();
    let totals = rec.timeseries.burn_totals();
    let slo_track = rec.track("slo");
    for a in &alerts {
        rec.instant_with(
            slo_track,
            "slo.burn",
            a.t_ns,
            &[
                ("window", ArgVal::U(a.window as u64)),
                ("fast", ArgVal::F(a.fast)),
                ("slow", ArgVal::F(a.slow)),
            ],
        );
    }
    Some(SloBurnSummary {
        slo_ms: totals.slo_ms,
        budget: totals.budget,
        completions: totals.completions,
        misses: totals.misses,
        consumed: totals.consumed,
        alert_windows: alerts.len() as u64,
        first_alert_ms: alerts.first().map_or(0.0, |a| a.t_ns / 1e6),
    })
}

/// One replica's incremental simulation state inside a fleet run: its own
/// scheduler, page ledger, clock, and step-cost cache. The fleet driver
/// advances each replica to every arrival time, routes from the live
/// [`Scheduler::load`] snapshots, and injects into exactly one replica.
struct ReplicaSim {
    sched: Scheduler,
    now: f64,
    steps: StepTally,
    request_latencies: Vec<f64>,
    generated_tokens: usize,
    cache: Vec<((usize, usize), Option<StepReport>)>,
    serving_track: TrackId,
    sched_track: TrackId,
    /// Per-replica speculative slot pool: the tentpole pools slots per
    /// *device*, so replicas share nothing and multi-stream DReX sharing
    /// happens inside one replica's pool across its batched requests.
    spec_pool: Option<SpecSlotPool>,
    spec_track_name: String,
    spec_counts: (usize, usize, usize),
    /// Telemetry series prefix (`r{idx}.`), mirroring the track names.
    ts_prefix: String,
    /// Crashed and not yet repaired: time passes but no step runs, so
    /// anything queued here wedges until the `Up` event (what a naive
    /// router keeps feeding).
    down: bool,
    /// Fraction of the DReX offload budget retained this step; `1.0`
    /// outside brownouts, `profile.brownout_topk_factor` inside one.
    brownout_factor: f64,
    /// Tokens decoded under a shrunken brownout budget.
    degraded_tokens: usize,
    /// What the circuit breaker has not seen yet; `None` on runs without
    /// a breaker, so nothing is buffered.
    breaker_feed: Option<BreakerFeed>,
    /// Session-turn prefix publications: `(request id, content hash,
    /// tokens)`, inserted into this replica's prefix cache (at its own
    /// page size) when that request completes here. Always empty on
    /// sessionless runs.
    pending_publish: Vec<(usize, u64, usize)>,
}

/// The observable signals a replica produced since its breaker was last
/// fed — completions with classes in completion order, and tokens decoded
/// under a brownout. [`feed_breakers`] drains it at every arrival.
#[derive(Default)]
struct BreakerFeed {
    completions: Vec<(SloClass, f64)>,
    degraded_tokens: u64,
}

impl ReplicaSim {
    fn new(
        geometry: &KvDeviceGeometry,
        opts: &SchedOptions,
        rec: &mut Recorder,
        idx: usize,
        feeds_breaker: bool,
    ) -> Self {
        let mut sched = Scheduler::new(sched_config_for(geometry, opts));
        sched.set_event_recording(rec.is_enabled());
        Self {
            sched,
            now: 0.0,
            steps: StepTally::default(),
            request_latencies: Vec::new(),
            generated_tokens: 0,
            cache: Vec::new(),
            serving_track: rec.track(&format!("r{idx}.serving")),
            sched_track: rec.track(&format!("r{idx}.sched")),
            spec_pool: None,
            // Interned lazily on the first speculated step, like the
            // single-replica `spec` track: lookahead-off fleet traces keep
            // their exact track list.
            spec_track_name: format!("r{idx}.spec"),
            spec_counts: (0, 0, 0),
            ts_prefix: format!("r{idx}."),
            down: false,
            brownout_factor: 1.0,
            degraded_tokens: 0,
            breaker_feed: feeds_breaker.then(BreakerFeed::default),
            pending_publish: Vec::new(),
        }
    }

    /// Offers an arriving request to this replica's scheduler.
    fn inject(&mut self, sys: &mut dyn ServingSystem, rec: &mut Recorder, req: SchedRequest) {
        let Self {
            sched, cache, now, ..
        } = self;
        let mut feas = |users: usize, ctx: usize| -> bool {
            cached_step_cost(cache, sys, users, ctx, rec, *now).is_some()
        };
        sched.on_arrival(req, &mut feas);
    }

    /// Runs this replica forward until its clock reaches `t` (idling
    /// straight to `t` when the batch empties), mirroring the
    /// single-replica loop: drain the admission queue, plan a step,
    /// advance. The overload guard caps runaway accounting exactly like
    /// the single-replica path.
    fn advance_to(
        &mut self,
        sys: &mut dyn ServingSystem,
        rec: &mut Recorder,
        t: f64,
        horizon_ns: f64,
    ) {
        if self.down {
            // A crashed replica idles: its clock tracks fleet time but no
            // queue drains and no step runs until the `Up` event.
            self.now = self.now.max(t);
            return;
        }
        loop {
            self.drain(sys, rec);
            if self.sched.active_is_empty() {
                self.now = self.now.max(t);
                return;
            }
            if self.now >= t || self.now > 4.0 * horizon_ns {
                return;
            }
            self.step(sys, rec);
        }
    }

    /// Runs this replica to completion after the last arrival.
    fn drain_all(&mut self, sys: &mut dyn ServingSystem, rec: &mut Recorder, horizon_ns: f64) {
        if self.down {
            return;
        }
        loop {
            self.drain(sys, rec);
            if self.sched.active_is_empty() || self.now > 4.0 * horizon_ns {
                return;
            }
            self.step(sys, rec);
        }
    }

    fn drain(&mut self, sys: &mut dyn ServingSystem, rec: &mut Recorder) {
        let Self {
            sched, cache, now, ..
        } = self;
        let mut feas = |users: usize, ctx: usize| -> bool {
            cached_step_cost(cache, sys, users, ctx, rec, *now).is_some()
        };
        sched.drain_queue(&mut feas);
        flush_sched_events(&mut self.sched, rec, self.sched_track, self.now);
    }

    /// One synchronized step, identical in structure to the single-replica
    /// loop's fault-free path: fleet replicas take no token-level faults,
    /// but a replica-level brownout shrinks the step's offload share.
    fn step(&mut self, sys: &mut dyn ServingSystem, rec: &mut Recorder) {
        let plan = self.sched.plan_step();
        let report = if plan.decode_users > 0 {
            Some(
                cached_step_cost(
                    &mut self.cache,
                    sys,
                    plan.decode_users,
                    plan.max_decode_ctx,
                    rec,
                    self.now,
                )
                .expect("a decode subset of an admitted batch must evaluate"),
            )
        } else {
            None
        };
        let mut base_dt = report.map_or(0.0, |r| r.step_ns);
        // Same speculation resolution as the single-replica loop (no
        // token-level faults, so no void draws); draws key off the
        // global request id, so a request resolves identically wherever
        // the router placed it.
        if let Some(s) = report.and_then(|r| r.spec) {
            let pool = self
                .spec_pool
                .get_or_insert_with(|| SpecSlotPool::new(s.slots));
            let spec_track = rec.track(&self.spec_track_name);
            let (hits, misses, denied) = resolve_spec_step(
                pool,
                &s,
                self.sched
                    .active()
                    .iter()
                    .filter(|r| r.in_decode)
                    .map(|r| (r.req.id as u64, r.generated as u64)),
                None,
                rec,
                spec_track,
                self.now,
            );
            let (paced, _) = spec_pacing(&s, base_dt, misses, denied);
            base_dt = paced;
            self.spec_counts.0 += hits;
            self.spec_counts.1 += misses;
            self.spec_counts.2 += denied;
        }
        if self.brownout_factor < 1.0 {
            // Brownout: the DReX tier runs on a shrunken top-k budget, so
            // the offload share of the step contracts proportionally and
            // every token decoded under it loses part of its long-range
            // attention (charged below through the degraded-token path).
            if let Some(r) = report {
                let offload = r.breakdown.drex_offload_ns + r.breakdown.cxl_ns;
                base_dt = (base_dt - (1.0 - self.brownout_factor) * offload).max(0.0);
            }
        }
        let dt = base_dt.max(plan.prefill_ns);
        let step_start = self.now;
        if rec.is_enabled() {
            if plan.decode_users > 0 {
                rec.leaf_with(
                    self.serving_track,
                    "decode.step",
                    step_start,
                    step_start + dt,
                    &[
                        ("users", ArgVal::U(plan.users as u64)),
                        ("ctx", ArgVal::U(plan.max_decode_ctx as u64)),
                    ],
                );
            } else {
                rec.leaf_with(
                    self.serving_track,
                    "prefill.step",
                    step_start,
                    step_start + dt,
                    &[
                        ("users", ArgVal::U(plan.prefill_users as u64)),
                        ("prefill_ns", ArgVal::F(plan.prefill_ns)),
                    ],
                );
            }
        }
        self.now += dt;
        let decoding = self.sched.decoding_count();
        let ts_on = rec.timeseries.is_enabled();
        if decoding > 0 {
            self.steps.record(decoding);
            self.generated_tokens += decoding;
            if ts_on {
                rec.timeseries.rate_add("tokens", self.now, decoding as f64);
            }
            if self.brownout_factor < 1.0 {
                self.degraded_tokens += decoding;
                if let Some(feed) = self.breaker_feed.as_mut() {
                    feed.degraded_tokens += decoding as u64;
                }
                if ts_on {
                    rec.timeseries.rate_add(
                        &format!("{}degraded_tok", self.ts_prefix),
                        self.now,
                        decoding as f64,
                    );
                }
            }
        }
        for c in self.sched.advance_step(dt, self.now) {
            // A completed turn publishes its prefix under its content key
            // (session runs only; the list stays empty otherwise).
            if !self.pending_publish.is_empty() {
                if let Some(pos) = self.pending_publish.iter().position(|p| p.0 == c.id) {
                    let (_, hash, tokens) = self.pending_publish.swap_remove(pos);
                    let pages = self.sched.pages().config().pages_for(tokens);
                    self.sched.pages_mut().prefix_insert(hash, pages);
                }
            }
            self.request_latencies.push(c.latency_ms);
            if let Some(feed) = self.breaker_feed.as_mut() {
                feed.completions.push((c.class, c.latency_ms));
            }
            if ts_on {
                rec.timeseries
                    .observe_ms("lat.request_ms", self.now, c.latency_ms);
                if c.class == SloClass::Interactive {
                    rec.timeseries.slo_sample(self.now, c.latency_ms);
                }
            }
        }
        flush_sched_events(&mut self.sched, rec, self.sched_track, self.now);
        sample_sched_timeseries(rec, &self.ts_prefix, self.now, &self.sched);
    }
}

/// Closed-loop serving over a fleet of replicas behind a deterministic
/// front-end router, with no replica faults and no session workload:
/// [`simulate_fleet_with`] with both option sets disabled.
///
/// # Panics
///
/// Panics when `systems` is empty.
pub fn simulate_fleet(
    systems: &mut [Box<dyn ServingSystem>],
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    router_policy: RouterPolicy,
    rec: &mut Recorder,
) -> (ServeMetrics, FleetReport) {
    simulate_fleet_with(
        systems,
        model,
        workload,
        opts,
        router_policy,
        &FleetFaultOptions::disabled(),
        &SessionOptions::disabled(),
        rec,
    )
}

/// A fault-free fleet under a session workload: [`simulate_fleet_with`]
/// with fleet fault domains disabled.
///
/// # Panics
///
/// Panics when `systems` is empty.
pub fn simulate_fleet_sessions(
    systems: &mut [Box<dyn ServingSystem>],
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    router_policy: RouterPolicy,
    sess: &SessionOptions,
    rec: &mut Recorder,
) -> (ServeMetrics, FleetReport) {
    simulate_fleet_with(
        systems,
        model,
        workload,
        opts,
        router_policy,
        &FleetFaultOptions::disabled(),
        sess,
        rec,
    )
}

/// Closed-loop serving over a fleet of replicas behind a deterministic
/// front-end router, with replica fault domains (`fopts`) and a multi-turn
/// session workload (`sess`) as independent options of one loop.
///
/// **Routing.** The offered load is generated exactly as in
/// [`simulate_scheduled`] (same seed, same streams), or by the session
/// generator when `sess` is armed (see [`crate::session`]). Before each
/// arrival every replica advances to the arrival time, and the router
/// places the arrival from the [`Scheduler::load`] snapshots —
/// join-shortest-queue on free HBM pages with class-aware spillover,
/// round-robin, or session affinity. Placement is a pure function of
/// `(seed, arrival index, load)`, so the whole fleet timeline is
/// bit-identical at any worker-thread count. Routing decisions land on
/// the `router` track as `route.place` instants; each replica gets its
/// own `r<i>.serving` / `r<i>.sched` tracks.
///
/// **Fault domains.** A deterministic replica crash/brownout timeline is
/// drawn from `fopts.fault_seed` (never the workload seed — offered load
/// and fault schedule are independent streams). Per-replica circuit
/// breakers drive health-aware failover routing, and an SLO-aware
/// admission controller sheds arrivals the fleet has no queue room for. A
/// crash evacuates every in-flight request on the replica (its KV pages
/// are gone) and redispatches each through the router onto a surviving
/// replica, where it queues behind the restore-vs-recompute rebuild
/// charge of that replica's [`KvDeviceGeometry`]. Every arrival is placed
/// once, redispatched with a recorded reason, or shed — never lost; the
/// [`FleetReport`] audit enforces exactly that.
///
/// **Sessions.** Each session's turns extend the same growing context,
/// and every completed turn publishes its KV-prefix under a content hash
/// into its replica's prefix-cache carve-out. A follow-up turn resumes
/// one of three ways, cheapest first:
///
/// 1. **Local hit** — the placement replica still caches the prefix: the
///    turn pins it and pays prefill only for the suffix (the new user
///    message).
/// 2. **Pooled-DReX pull** — another replica owns the prefix: the pages
///    transfer over the CXL fabric at the target geometry's per-page
///    restore price × 2 (two fabric hops through the pooled tier — the
///    same [`longsight_cxl::CxlLink`]-derived transfer model as a
///    preemption restore), charged on top of the suffix prefill and taken
///    only when cheaper than re-prefilling from scratch. Pulls are traced
///    as `prefix.pull` spans on the `sessions` track and logged as
///    [`PullRecord`]s.
/// 3. **Cold re-prefill** — no usable copy (or the pull is dearer): full
///    prefill, exactly like a fresh request.
///
/// Under [`RouterPolicy::Affinity`] a resuming turn lands on its owning
/// replica while that replica passes the health gate and has free HBM,
/// and otherwise falls back to cost-aware JSQ with the owner's free-page
/// key credited by the cached prefix size. A crash wipes the replica's
/// prefix cache; a redispatched turn's pending publication follows it to
/// the redispatch target. A shed follow-up turn is counted in
/// [`SessionSummary::shed_turns`].
///
/// Disabled options leave no trace: a fault-free run interns no
/// `fleet.faults` track and attaches no fault summary, a sessionless run
/// no `sessions` track and no session summary. A single system with
/// sessions off runs the single-replica loop and is bit-identical to
/// [`simulate_scheduled`] (the report comes back wrapped in a degenerate
/// [`FleetReport`]).
///
/// # Panics
///
/// Panics when `systems` is empty, or when fault options are active over
/// a single-replica fleet (there is nothing to fail over to; the CLI
/// rejects the combination).
#[allow(clippy::too_many_arguments)]
pub fn simulate_fleet_with(
    systems: &mut [Box<dyn ServingSystem>],
    model: &ModelConfig,
    workload: &WorkloadConfig,
    opts: &SchedOptions,
    router_policy: RouterPolicy,
    fopts: &FleetFaultOptions,
    sess: &SessionOptions,
    rec: &mut Recorder,
) -> (ServeMetrics, FleetReport) {
    assert!(!systems.is_empty(), "fleet needs at least one replica");
    assert!(
        systems.len() > 1 || !fopts.is_active(),
        "fleet fault domains need at least two replicas"
    );
    let sessions_on = sess.is_active();
    if systems.len() == 1 && !sessions_on {
        let (m, rep, _) =
            simulate_scheduled(systems[0].as_mut(), model, workload, opts, None, rec, None);
        let mut fleet = FleetReport::single(router_policy, rep);
        fleet.slo_burn = m.slo_burn.clone();
        return (m, fleet);
    }
    let n = systems.len();
    let horizon_ns = workload.duration_s * 1e9;
    let (mut arrivals, mut classes, mut prefill_ns, mut turns) = if sessions_on {
        session::gen_session_turns(model, workload, &opts.mix, sess)
    } else {
        let (a, c, p) = gen_arrivals(model, workload, &opts.mix);
        (a, c, p, Vec::new())
    };
    let total_arrived = arrivals.len();
    let router = Router::new(router_policy, workload.seed);
    // Tracks intern in the order each single-feature run has always used
    // (`router`, then `fleet.faults`, then `sessions`, then the replica
    // tracks), and only for armed features, so fault-only and session-only
    // traces keep their exact track list.
    let router_track = rec.track("router");
    let active = fopts.is_active();
    let track = if active {
        rec.track("fleet.faults")
    } else {
        router_track
    };
    let sessions_track = if sessions_on {
        rec.track("sessions")
    } else {
        router_track
    };
    let mut events: Vec<ReplicaEvent> = if fopts.profile.is_enabled() {
        fleet_schedule(&fopts.profile, fopts.fault_seed, n, workload.duration_s)
    } else {
        Vec::new()
    };
    events.reverse(); // pop from the back in time order
    let mut breakers: Option<Vec<CircuitBreaker>> = fopts
        .breaker
        .map(|cfg| (0..n).map(|_| CircuitBreaker::new(cfg)).collect());
    let mut summary = FleetFaultSummary::new(n, total_arrived);
    let mut down_since = vec![0.0f64; n];
    let all_closed = vec![BreakerState::Closed; n];

    let mut replicas: Vec<ReplicaSim> = Vec::with_capacity(n);
    let mut geometries: Vec<KvDeviceGeometry> = Vec::with_capacity(n);
    for (i, sys) in systems.iter_mut().enumerate() {
        let g = geometry_for(sys.as_ref(), opts);
        let mut r = ReplicaSim::new(&g, opts, rec, i, breakers.is_some());
        if sessions_on {
            r.sched
                .pages_mut()
                .set_prefix_capacity(sess.prefix_cache_pages);
        }
        replicas.push(r);
        geometries.push(g);
    }

    // Content hash -> replica whose cache holds (or will hold) the prefix.
    let mut owners: HashMap<u64, usize> = HashMap::new();
    let mut session_summary = SessionSummary {
        sessions: 0,
        turns: total_arrived,
        prefix_hits: 0,
        cold_turns: 0,
        shed_turns: 0,
        pulls: Vec::new(),
    };
    let mut placements: Vec<Placement> = Vec::with_capacity(total_arrived);
    // Per-arrival load snapshot, refilled in place.
    let mut loads = Vec::with_capacity(n);
    while let Some(a) = arrivals.pop() {
        let pf_ns = prefill_ns.pop().expect("paired with arrivals");
        let class = classes.pop().expect("paired with arrivals");
        let turn = turns.pop();
        let follow_up = turn.as_ref().is_some_and(|t| t.turn > 0);
        if turn.is_some() && !follow_up {
            session_summary.sessions += 1;
        }
        while events.last().is_some_and(|e| e.at_ns <= a.arrival_ns) {
            let e = events.pop().expect("checked non-empty");
            apply_fleet_event(
                e,
                &fopts.profile,
                &router,
                &mut replicas,
                systems,
                &geometries,
                &mut breakers,
                &mut summary,
                &mut down_since,
                &mut owners,
                horizon_ns,
                rec,
                track,
            );
        }
        for (r, sys) in replicas.iter_mut().zip(systems.iter_mut()) {
            r.advance_to(sys.as_mut(), rec, a.arrival_ns, horizon_ns);
        }
        if let Some(bs) = breakers.as_mut() {
            feed_breakers(&mut replicas, bs, a.arrival_ns, rec, track);
            if rec.timeseries.is_enabled() {
                for (i, b) in bs.iter().enumerate() {
                    rec.timeseries.gauge(
                        &format!("r{i}.breaker"),
                        a.arrival_ns,
                        breaker_level(b.state()),
                    );
                }
            }
        }
        loads.clear();
        loads.extend(replicas.iter().map(|r| r.sched.load()));
        // The owning replica only counts while its cache still holds the
        // prefix (LRU reclaim or a crash wipe orphans the owner map entry).
        let (owner, owner_pages) = turn
            .as_ref()
            .and_then(|t| t.pin_hash)
            .and_then(|h| {
                let o = *owners.get(&h)?;
                Some((o, replicas[o].sched.pages().prefix_lookup(h)?))
            })
            .map_or((None, 0), |(o, p)| (Some(o), p));
        // Health gate first (a naive baseline sees every replica as closed
        // — it stays blind to downtime and wedges whatever it places on a
        // dead node), then the admission controller's per-class queue caps
        // on top. With neither armed every state is closed, and without
        // an affinity owner `route_affine` places exactly like
        // `Router::route`.
        let mut gated: Cow<[BreakerState]> = match breakers.as_ref() {
            Some(bs) => Cow::Owned(breaker_health(bs)),
            None => Cow::Borrowed(&all_closed),
        };
        let none_healthy = gated.iter().all(|&s| s == BreakerState::Open);
        if let Some(cap) = fopts.shed_queue_cap {
            for (s, r) in gated.to_mut().iter_mut().zip(&replicas) {
                if r.sched.queue_depth(class) >= class_queue_cap(cap, class) {
                    *s = BreakerState::Open;
                }
            }
        }
        let Ok(pick) = router.route_affine(a.id, class, &loads, &gated, owner, owner_pages) else {
            let reason = if none_healthy {
                "no-healthy-replica"
            } else {
                "queue-cap"
            };
            summary.shed.push(ShedRecord {
                id: a.id,
                class,
                at_ns: a.arrival_ns,
                reason,
            });
            if follow_up {
                session_summary.shed_turns += 1;
            }
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "shed",
                    a.arrival_ns,
                    &[
                        ("id", ArgVal::U(a.id as u64)),
                        ("class", ArgVal::S(class.name())),
                        ("reason", ArgVal::S(reason)),
                    ],
                );
            }
            rec.timeseries.rate_add("fleet.shed", a.arrival_ns, 1.0);
            continue;
        };
        placements.push((a.id, pick));
        if rec.is_enabled() {
            rec.instant_with(
                router_track,
                "route.place",
                a.arrival_ns,
                &[
                    ("id", ArgVal::U(a.id as u64)),
                    ("replica", ArgVal::U(pick as u64)),
                    ("class", ArgVal::S(class.name())),
                    ("free_hbm", ArgVal::U(loads[pick].free_hbm() as u64)),
                ],
            );
        }
        let g = &geometries[pick];
        // Three-way resume pricing: local pin, cross-replica pull, or cold
        // re-prefill.
        let mut prefill = pf_ns;
        let mut pull_field = f64::INFINITY;
        let mut prefix_hash: Option<u64> = None;
        if let Some(t) = &turn {
            if let Some(h) = t.pin_hash {
                let suffix_frac = (a.context - t.prefix_tokens) as f64 / a.context.max(1) as f64;
                let suffix_ns = pf_ns * suffix_frac;
                if replicas[pick].sched.pages_mut().prefix_pin(h).is_some() {
                    prefill = suffix_ns;
                    prefix_hash = Some(h);
                    session_summary.prefix_hits += 1;
                } else if let Some(o) = owner.filter(|&o| o != pick) {
                    // Two fabric hops through the pooled tier: source DReX
                    // -> fabric -> target DReX, priced per page by the same
                    // CxlLink-derived transfer model as a preemption
                    // restore.
                    let pull_ns = owner_pages as f64 * g.restore_ns_per_page * 2.0;
                    if pull_ns + suffix_ns < pf_ns
                        && replicas[pick]
                            .sched
                            .pages_mut()
                            .prefix_insert(h, owner_pages)
                    {
                        let pinned = replicas[pick].sched.pages_mut().prefix_pin(h);
                        debug_assert_eq!(pinned, Some(owner_pages));
                        prefill = suffix_ns + pull_ns;
                        pull_field = pull_ns;
                        prefix_hash = Some(h);
                        session_summary.pulls.push(PullRecord {
                            id: a.id,
                            hash: h,
                            from: o,
                            to: pick,
                            pages: owner_pages,
                            at_ns: a.arrival_ns,
                        });
                        if rec.is_enabled() {
                            rec.leaf_with(
                                sessions_track,
                                "prefix.pull",
                                a.arrival_ns,
                                a.arrival_ns + pull_ns,
                                &[
                                    ("id", ArgVal::U(a.id as u64)),
                                    ("from", ArgVal::U(o as u64)),
                                    ("to", ArgVal::U(pick as u64)),
                                    ("pages", ArgVal::U(owner_pages as u64)),
                                ],
                            );
                        }
                        rec.timeseries.rate_add("sessions.pull", a.arrival_ns, 1.0);
                    }
                }
            }
            if follow_up && prefix_hash.is_none() {
                session_summary.cold_turns += 1;
            }
            // This turn's completion publishes the next turn's prefix
            // wherever the turn completes.
            replicas[pick]
                .pending_publish
                .push((a.id, t.publish_hash, t.publish_tokens));
            owners.insert(t.publish_hash, pick);
        }
        let req = SchedRequest {
            id: a.id,
            class,
            arrival_ns: a.arrival_ns,
            context: a.context,
            output: a.output,
            prefill_ns: prefill,
            restore_ns: g.restore_ns(a.context),
            recompute_ns: g.recompute_ns(a.context),
            pull_ns: pull_field,
            prefix_hash,
        };
        replicas[pick].inject(systems[pick].as_mut(), rec, req);
        if rec.timeseries.is_enabled() {
            rec.timeseries.rate_add("fleet.admit", a.arrival_ns, 1.0);
            let prefix = replicas[pick].ts_prefix.clone();
            sample_sched_timeseries(rec, &prefix, a.arrival_ns, &replicas[pick].sched);
        }
    }
    // The tail of the fault timeline (repairs in particular) runs before
    // the final drain, so every crashed replica comes back up and serves
    // out whatever a naive router parked on it.
    while let Some(e) = events.pop() {
        apply_fleet_event(
            e,
            &fopts.profile,
            &router,
            &mut replicas,
            systems,
            &geometries,
            &mut breakers,
            &mut summary,
            &mut down_since,
            &mut owners,
            horizon_ns,
            rec,
            track,
        );
    }
    for (r, sys) in replicas.iter_mut().zip(systems.iter_mut()) {
        r.drain_all(sys.as_mut(), rec, horizon_ns);
    }

    // Fleet-wide aggregates: merged latencies, summed counters, the span
    // of the slowest replica.
    let mut request_latencies: Vec<f64> = Vec::new();
    let mut generated_tokens = 0usize;
    let mut steps = StepTally::default();
    let mut rejected = 0usize;
    let mut waiting = 0usize;
    let (mut spec_hits, mut spec_misses, mut spec_denied) = (0usize, 0usize, 0usize);
    let mut degraded_tokens = 0usize;
    let mut fleet_now = 0.0f64;
    let mut reports: Vec<SchedReport> = Vec::with_capacity(n);
    let mut samples: [(LatencyCounts, Vec<f64>); 3] = Default::default();
    for r in replicas.iter_mut() {
        steps.merge(&r.steps);
        request_latencies.extend_from_slice(&r.request_latencies);
        generated_tokens += r.generated_tokens;
        degraded_tokens += r.degraded_tokens;
        rejected += r.sched.rejected();
        waiting += r.sched.waiting_len();
        spec_hits += r.spec_counts.0;
        spec_misses += r.spec_counts.1;
        spec_denied += r.spec_counts.2;
        fleet_now = fleet_now.max(r.now);
        reports.push(r.steps.attach(r.sched.finalize()));
        for (i, (tok, req)) in r.sched.class_samples().iter().enumerate() {
            samples[i].0.merge(tok);
            samples[i].1.extend_from_slice(req);
        }
    }
    let token_lat = merged_token_counts(samples.iter().map(|(tok, _)| tok));
    let span_s = fleet_now.max(1.0) / 1e9;
    let shed_total = summary.shed.len();
    let metrics = ServeMetrics {
        completed: request_latencies.len(),
        rejected,
        in_flight: total_arrived - request_latencies.len() - rejected - waiting - shed_total,
        throughput_tps: generated_tokens as f64 / span_s,
        p50_token_ms: token_lat.quantile_round(0.5),
        p99_token_ms: token_lat.quantile_round(0.99),
        p50_request_ms: percentile(&mut request_latencies, 0.5),
        p99_request_ms: percentile(&mut request_latencies, 0.99),
        mean_batch: steps.mean_batch(),
        retried_tokens: 0,
        degraded_tokens,
        failed_requests: 0,
        // Brownout tokens keep the HBM window but lose a `1 - factor`
        // slice of their long-range top-k budget.
        degraded_quality_delta: if degraded_tokens == 0 {
            0.0
        } else {
            (1.0 - fopts.profile.brownout_topk_factor) * degraded_tokens as f64
                / generated_tokens.max(1) as f64
        },
        spec_hits,
        spec_misses,
        spec_denied,
        slo_burn: finalize_slo_burn(rec),
    };
    let fault_counts = (
        summary.crashes,
        summary.brownouts,
        summary.redispatches.len(),
        summary.shed.len(),
    );
    let mut fleet = FleetReport::assemble_with_faults(
        router_policy,
        reports,
        placements,
        samples,
        active.then_some(summary),
    );
    fleet.slo_burn = metrics.slo_burn.clone();
    if sessions_on {
        fleet.attach_sessions(session_summary);
    }
    if rec.is_enabled() {
        rec.counter_add("serving.completed", metrics.completed as u64);
        rec.counter_add("serving.rejected", metrics.rejected as u64);
        rec.counter_add("serving.generated_tokens", generated_tokens as u64);
        rec.counter_add("router.placements", fleet.placements.len() as u64);
        rec.gauge_set("serving.throughput_tps", metrics.throughput_tps);
        rec.gauge_set("serving.mean_batch", metrics.mean_batch);
        if active {
            rec.counter_add("fleet.crashes", fault_counts.0 as u64);
            rec.counter_add("fleet.brownouts", fault_counts.1 as u64);
            rec.counter_add("fleet.redispatched", fault_counts.2 as u64);
            rec.counter_add("fleet.shed", fault_counts.3 as u64);
        }
        if let Some(s) = &fleet.sessions {
            rec.counter_add("sessions.turns", s.turns as u64);
            rec.counter_add("sessions.prefix_hits", s.prefix_hits as u64);
            rec.counter_add("sessions.pulls", s.pulls.len() as u64);
            rec.counter_add("sessions.pulled_pages", s.pulled_pages() as u64);
            rec.counter_add("sessions.cold_turns", s.cold_turns as u64);
        }
    }
    (metrics, fleet)
}

/// Applies one replica fault-timeline event to the fleet.
///
/// `Down` advances the replica to the crash instant, evacuates its entire
/// in-flight set (pages freed — the KV state is gone), and redispatches
/// each evacuee through the router onto a surviving replica, where it
/// queues behind the target geometry's rebuild charge (full prefill when
/// caught mid-prefill, restore-vs-recompute otherwise). When every other
/// replica is also down the evacuee parks on the crashed replica and
/// resumes after repair — redispatch never loses a request. A session
/// turn's pending prefix publication moves with it, and `owners` repoints
/// the published hash at the target. `Up` restores the replica (and moves
/// a held-open breaker to half-open); brownout events toggle the
/// replica's offload-budget factor.
#[allow(clippy::too_many_arguments)]
fn apply_fleet_event(
    e: ReplicaEvent,
    profile: &ReplicaFaultProfile,
    router: &Router,
    replicas: &mut [ReplicaSim],
    systems: &mut [Box<dyn ServingSystem>],
    geometries: &[KvDeviceGeometry],
    breakers: &mut Option<Vec<CircuitBreaker>>,
    summary: &mut FleetFaultSummary,
    down_since: &mut [f64],
    owners: &mut HashMap<u64, usize>,
    horizon_ns: f64,
    rec: &mut Recorder,
    track: TrackId,
) {
    let r = e.replica;
    match e.kind {
        ReplicaEventKind::Down => {
            replicas[r].advance_to(systems[r].as_mut(), rec, e.at_ns, horizon_ns);
            let evac = replicas[r].sched.crash_evacuate();
            replicas[r].down = true;
            down_since[r] = e.at_ns;
            summary.crashes += 1;
            if rec.timeseries.is_enabled() {
                rec.timeseries.gauge(&format!("r{r}.up"), e.at_ns, 0.0);
                let prefix = replicas[r].ts_prefix.clone();
                sample_sched_timeseries(rec, &prefix, e.at_ns, &replicas[r].sched);
            }
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "replica.down",
                    e.at_ns,
                    &[
                        ("replica", ArgVal::U(r as u64)),
                        ("evacuated", ArgVal::U(evac.len() as u64)),
                    ],
                );
            }
            if let Some(bs) = breakers.as_mut() {
                if let Some(s) = bs[r].force_open(e.at_ns) {
                    if rec.timeseries.is_enabled() {
                        rec.timeseries
                            .gauge(&format!("r{r}.breaker"), e.at_ns, breaker_level(s));
                    }
                    if rec.is_enabled() {
                        rec.instant_with(
                            track,
                            breaker_instant_name(s),
                            e.at_ns,
                            &[("replica", ArgVal::U(r as u64))],
                        );
                    }
                }
            }
            // Survivors advance to the crash instant so every failover
            // decision is taken from one consistent snapshot.
            for i in 0..replicas.len() {
                if i != r && !replicas[i].down {
                    replicas[i].advance_to(systems[i].as_mut(), rec, e.at_ns, horizon_ns);
                }
            }
            for ev in evac {
                let loads: Vec<_> = replicas.iter().map(|x| x.sched.load()).collect();
                // Redispatch always routes around dead nodes, breaker or
                // not: the crashed stack is gone, not just slow. The
                // naive baseline differs only on *new* arrivals.
                let states: Vec<BreakerState> = match breakers.as_ref() {
                    Some(bs) => breaker_health(bs),
                    None => replicas
                        .iter()
                        .map(|x| {
                            if x.down {
                                BreakerState::Open
                            } else {
                                BreakerState::Closed
                            }
                        })
                        .collect(),
                };
                let (to, reason) =
                    match router.route_healthy(ev.req.id, ev.req.class, &loads, &states) {
                        Ok(t) => (t, "replica-crash"),
                        Err(_) => (r, "no-healthy-replica"),
                    };
                let pending = &mut replicas[r].pending_publish;
                if let Some(pos) = pending.iter().position(|p| p.0 == ev.req.id) {
                    let publish = pending.swap_remove(pos);
                    owners.insert(publish.1, to);
                    replicas[to].pending_publish.push(publish);
                }
                let mut moved = ev;
                moved.req.restore_ns = geometries[to].restore_ns(moved.req.context);
                moved.req.recompute_ns = geometries[to].recompute_ns(moved.req.context);
                replicas[to].sched.on_redispatch(moved);
                summary.redispatches.push(RedispatchRecord {
                    id: ev.req.id,
                    from: r,
                    to,
                    at_ns: e.at_ns,
                    reason,
                });
                if rec.is_enabled() {
                    rec.instant_with(
                        track,
                        "redispatch",
                        e.at_ns,
                        &[
                            ("id", ArgVal::U(ev.req.id as u64)),
                            ("from", ArgVal::U(r as u64)),
                            ("to", ArgVal::U(to as u64)),
                            ("class", ArgVal::S(ev.req.class.name())),
                        ],
                    );
                }
                rec.timeseries.rate_add("fleet.redispatch", e.at_ns, 1.0);
            }
        }
        ReplicaEventKind::Up => {
            summary.downtime_ns[r] += e.at_ns - down_since[r];
            replicas[r].now = replicas[r].now.max(e.at_ns);
            replicas[r].down = false;
            if rec.timeseries.is_enabled() {
                rec.timeseries.gauge(&format!("r{r}.up"), e.at_ns, 1.0);
            }
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "replica.up",
                    e.at_ns,
                    &[("replica", ArgVal::U(r as u64))],
                );
            }
            if let Some(bs) = breakers.as_mut() {
                if let Some(s) = bs[r].on_recovery() {
                    if rec.timeseries.is_enabled() {
                        rec.timeseries
                            .gauge(&format!("r{r}.breaker"), e.at_ns, breaker_level(s));
                    }
                    if rec.is_enabled() {
                        rec.instant_with(
                            track,
                            breaker_instant_name(s),
                            e.at_ns,
                            &[("replica", ArgVal::U(r as u64))],
                        );
                    }
                }
            }
        }
        ReplicaEventKind::BrownoutStart => {
            if !replicas[r].down {
                replicas[r].advance_to(systems[r].as_mut(), rec, e.at_ns, horizon_ns);
                replicas[r].brownout_factor = profile.brownout_topk_factor;
                summary.brownouts += 1;
                if rec.is_enabled() {
                    rec.instant_with(
                        track,
                        "replica.brownout_start",
                        e.at_ns,
                        &[
                            ("replica", ArgVal::U(r as u64)),
                            ("topk_factor", ArgVal::F(profile.brownout_topk_factor)),
                        ],
                    );
                }
            }
        }
        ReplicaEventKind::BrownoutEnd => {
            replicas[r].advance_to(systems[r].as_mut(), rec, e.at_ns, horizon_ns);
            replicas[r].brownout_factor = 1.0;
            if rec.is_enabled() {
                rec.instant_with(
                    track,
                    "replica.brownout_end",
                    e.at_ns,
                    &[("replica", ArgVal::U(r as u64))],
                );
            }
        }
    }
}

/// Feeds each breaker the completions and degraded tokens its replica
/// buffered since the last arrival, then ticks the cooldown — the breaker
/// observes exactly what a real front-end can observe, never the fault
/// schedule itself. Draining empties each replica's buffer. Transitions
/// land on the fault track.
fn feed_breakers(
    replicas: &mut [ReplicaSim],
    breakers: &mut [CircuitBreaker],
    now_ns: f64,
    rec: &mut Recorder,
    track: TrackId,
) {
    for (i, (r, b)) in replicas.iter_mut().zip(breakers.iter_mut()).enumerate() {
        let mut transitions: Vec<BreakerState> = Vec::new();
        if let Some(feed) = r.breaker_feed.as_mut() {
            for (class, lat) in feed.completions.drain(..) {
                if let Some(s) = b.note_completion(class, lat, now_ns) {
                    transitions.push(s);
                }
            }
            let degraded = std::mem::take(&mut feed.degraded_tokens);
            if degraded > 0 {
                if let Some(s) = b.note_degraded(degraded, now_ns) {
                    transitions.push(s);
                }
            }
        }
        if let Some(s) = b.poll(now_ns) {
            transitions.push(s);
        }
        if rec.is_enabled() {
            for s in transitions {
                rec.instant_with(
                    track,
                    breaker_instant_name(s),
                    now_ns,
                    &[("replica", ArgVal::U(i as u64))],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longsight::{LongSightConfig, LongSightSystem};

    fn run(arrivals_per_s: f64, seed: u64) -> ServeMetrics {
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed,
        };
        simulate(&mut sys, &model, &wl)
    }

    /// A FIFO run under token-level fault injection.
    fn run_faulted(
        sys: &mut dyn ServingSystem,
        model: &ModelConfig,
        wl: &WorkloadConfig,
        inj: &FaultInjector,
        retry: &RetryPolicy,
    ) -> (ServeMetrics, FaultLog) {
        let (m, _, log) = simulate_scheduled(
            sys,
            model,
            wl,
            &SchedOptions::fifo(),
            Some((inj, retry)),
            &mut Recorder::disabled(),
            None,
        );
        (m, log)
    }

    #[test]
    fn percentile_selection_matches_sort_then_index() {
        // Plain values, heavy duplicates, IEEE special values and raw bit
        // patterns; successive selections on one slice, as the roll-ups
        // run them, against the sort-then-index rule bit for bit.
        let mut rng = SimRng::seed_from(0x5eed);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
        ];
        for len in [0, 1, 2, 99, 100, 10_000] {
            let mut pops = [const { Vec::new() }; 4];
            for _ in 0..len {
                pops[0].push(rng.uniform() * 1e3);
                pops[1].push(rng.below(3) as f64);
                pops[2].push(specials[rng.below(specials.len())]);
                pops[3].push(f64::from_bits(rng.next_u64()));
            }
            for pop in pops {
                let mut sorted = pop.clone();
                sorted.sort_by(f64::total_cmp);
                let mut v = pop;
                for p in [0.0, 0.5, 0.99, 1.0] {
                    let want = if sorted.is_empty() {
                        0.0
                    } else {
                        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
                    };
                    let got = percentile(&mut v, p);
                    assert_eq!(got.to_bits(), want.to_bits(), "n {len} p {p}");
                }
            }
        }
    }

    #[test]
    fn quantile_round_on_counts_matches_the_expanded_percentile() {
        // Seeded (value, weight) populations — ties, signed zeros, IEEE
        // specials, zero weights, single elements — against the
        // round-index percentile over the expansion, bit for bit.
        let mut rng = SimRng::seed_from(0xc0_417);
        let specials = [0.0, -0.0, f64::INFINITY, f64::NAN, 1.0, -1.0];
        let mut pops: Vec<Vec<(f64, usize)>> =
            vec![vec![(3.25, 1)], vec![(0.0, 2), (-0.0, 2)], vec![(1.0, 0)]];
        for len in [0, 1, 2, 99, 100, 2_000] {
            let mut p = [const { Vec::new() }; 4];
            for _ in 0..len {
                let w = rng.below(70);
                p[0].push((rng.uniform() * 1e3, w));
                p[1].push((rng.below(3) as f64, w));
                p[2].push((specials[rng.below(specials.len())], w));
                p[3].push((f64::from_bits(rng.next_u64()), w));
            }
            pops.extend(p);
        }
        for pop in pops {
            let mut counts = LatencyCounts::new();
            let mut expanded = Vec::new();
            for &(v, w) in &pop {
                counts.add(v, w);
                expanded.extend(std::iter::repeat_n(v, w));
            }
            for p in [0.0, 0.5, 0.99, 1.0] {
                let want = percentile(&mut expanded, p);
                let got = counts.quantile_round(p);
                assert_eq!(got.to_bits(), want.to_bits(), "n {} p {p}", expanded.len());
            }
        }
    }

    #[test]
    fn step_tally_counts_capped_token_samples_and_the_mean_batch() {
        let mut t = StepTally::default();
        assert_eq!(t.mean_batch(), 0.0);
        for users in [3, 100, 64, 1] {
            t.record(users);
        }
        assert_eq!(t.token_samples, 3 + 64 + 64 + 1);
        let per_step: f64 = [3.0, 100.0, 64.0, 1.0].iter().sum();
        assert_eq!(t.mean_batch().to_bits(), (per_step / 4.0).to_bits());
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(run(2.0, 3), run(2.0, 3));
    }

    #[test]
    fn completes_requests_at_moderate_load() {
        let m = run(2.0, 1);
        assert!(m.completed > 0, "some requests must finish: {m:?}");
        assert!(m.p99_token_ms >= m.p50_token_ms);
        assert!(m.p99_request_ms >= m.p50_request_ms);
        assert!(m.throughput_tps > 0.0);
    }

    #[test]
    fn higher_load_means_bigger_batches_and_latency() {
        let low = run(1.0, 5);
        let high = run(16.0, 5);
        assert!(
            high.mean_batch > low.mean_batch,
            "more arrivals must grow the batch: {} vs {}",
            low.mean_batch,
            high.mean_batch
        );
        assert!(
            high.p50_token_ms >= low.p50_token_ms,
            "token latency should not shrink under load"
        );
    }

    #[test]
    fn disabled_injector_matches_fault_free_simulate() {
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 3,
        };
        let plain = simulate(&mut sys, &model, &wl);
        let (faulted, log) = run_faulted(
            &mut sys,
            &model,
            &wl,
            &FaultInjector::disabled(),
            &RetryPolicy::serving_default(),
        );
        assert_eq!(plain, faulted);
        assert!(log.is_empty());
        assert_eq!(plain.degraded_tokens, 0);
        assert_eq!(plain.degraded_quality_delta, 0.0);
    }

    #[test]
    fn injected_timeouts_degrade_and_slow_the_run() {
        use longsight_faults::{FaultKind, FaultProfile};
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 3,
        };
        let plain = simulate(&mut sys, &model, &wl);
        let inj = FaultInjector::new(
            FaultProfile {
                timeout_rate: 0.3,
                ..FaultProfile::disabled()
            },
            7,
        );
        let retry = RetryPolicy::serving_default();
        let (m, log) = run_faulted(&mut sys, &model, &wl, &inj, &retry);
        assert!(
            m.retried_tokens > 0,
            "30% timeouts must force retries: {m:?}"
        );
        // Degraded tokens in the metrics must equal Degraded events in the
        // log, and each one came from max_retries+1 logged timeouts.
        assert_eq!(
            m.degraded_tokens,
            log.count_matching(|k| matches!(k, FaultKind::Degraded))
        );
        let timeouts = log.count_matching(|k| matches!(k, FaultKind::Timeout { .. }));
        assert!(timeouts >= m.degraded_tokens * (retry.max_retries as usize + 1));
        assert!(
            m.p50_token_ms >= plain.p50_token_ms,
            "deadline penalties cannot make tokens faster"
        );
        assert!(m.throughput_tps <= plain.throughput_tps);
        // Determinism: same seed, same timeline.
        let (m2, log2) = run_faulted(&mut sys, &model, &wl, &inj, &retry);
        assert_eq!(m, m2);
        assert_eq!(log.to_text(), log2.to_text());
    }

    #[test]
    fn hard_faults_kill_requests() {
        use longsight_faults::FaultProfile;
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = WorkloadConfig {
            arrivals_per_s: 4.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (32, 128),
            duration_s: 5.0,
            seed: 5,
        };
        let inj = FaultInjector::new(
            FaultProfile {
                hard_fail_rate: 0.02,
                ..FaultProfile::disabled()
            },
            13,
        );
        let (m, _) = run_faulted(&mut sys, &model, &wl, &inj, &RetryPolicy::serving_default());
        assert!(m.failed_requests > 0, "2% per-token hard faults: {m:?}");
        let plain = simulate(&mut sys, &model, &wl);
        assert!(m.completed < plain.completed + m.failed_requests + 1);
    }

    #[test]
    fn request_latency_includes_prefill() {
        let m = run(0.5, 9);
        // A 32K-prompt prefill alone is ~0.1+ ms on the roofline; with decode
        // of ≥16 tokens the p50 request latency must exceed several ms.
        assert!(
            m.p50_request_ms > 1.0,
            "suspiciously low request latency: {m:?}"
        );
    }

    #[test]
    fn metrics_json_round_trips_bit_exactly() {
        let m = run(2.0, 3);
        let parsed = ServeMetrics::from_json(&m.to_json()).expect("own JSON must parse");
        assert_eq!(m, parsed);
    }

    #[test]
    fn metrics_json_round_trips_non_finite_as_zero() {
        let mut m = run(2.0, 3);
        m.throughput_tps = f64::NAN;
        m.mean_batch = f64::INFINITY;
        let parsed = ServeMetrics::from_json(&m.to_json()).expect("nulls must parse");
        assert_eq!(parsed.throughput_tps, 0.0);
        assert_eq!(parsed.mean_batch, 0.0);
        assert_eq!(parsed.completed, m.completed);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        assert!(ServeMetrics::from_json("{\"completed\":1}").is_err());
        assert!(ServeMetrics::from_json("not json").is_err());
    }

    fn session_fleet(
        replicas: usize,
        reuse: f64,
        cache_pages: usize,
        policy: RouterPolicy,
    ) -> (ServeMetrics, FleetReport) {
        let model = ModelConfig::llama3_1b();
        let mut systems: Vec<Box<dyn ServingSystem>> = (0..replicas)
            .map(|_| {
                Box::new(LongSightSystem::new(
                    LongSightConfig::paper_default(),
                    model.clone(),
                )) as Box<dyn ServingSystem>
            })
            .collect();
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 12.0,
            seed: 11,
        };
        // Think times comfortably above the ~1-2 s service time, so most
        // follow-ups arrive after their prefix has been published.
        let sess = SessionOptions {
            sessions: 6,
            turns: 3,
            think_time_ms: 1500.0,
            reuse,
            prefix_cache_pages: cache_pages,
        };
        simulate_fleet_sessions(
            &mut systems,
            &model,
            &wl,
            &SchedOptions::slo_aware(SloMix::all_interactive()),
            policy,
            &sess,
            &mut Recorder::disabled(),
        )
    }

    #[test]
    fn session_fleet_passes_audit_and_reuses_prefixes() {
        let (_, fleet) = session_fleet(2, 1.0, 4096, RouterPolicy::Affinity);
        assert_eq!(fleet.audit_violation, None, "{:?}", fleet.audit_violation);
        let s = fleet.sessions.as_ref().expect("session summary attached");
        assert_eq!(s.sessions, 6);
        assert_eq!(s.turns, 18);
        assert!(
            s.prefix_hits + s.pulls.len() > 0,
            "full reuse with a generous cache must hit: {s:?}"
        );
        // Deterministic: the placement log and summary reproduce exactly.
        let (_, again) = session_fleet(2, 1.0, 4096, RouterPolicy::Affinity);
        assert_eq!(fleet.placement_log(), again.placement_log());
        assert_eq!(fleet.sessions, again.sessions);
    }

    #[test]
    fn session_reuse_cuts_prefill_work_vs_cold_routing() {
        let (_, warm) = session_fleet(2, 1.0, 4096, RouterPolicy::Affinity);
        let (_, cold) = session_fleet(2, 1.0, 0, RouterPolicy::JsqSpillover);
        assert_eq!(cold.audit_violation, None);
        let work = |f: &FleetReport| -> f64 { f.replicas.iter().map(|r| r.prefill_work_ns).sum() };
        assert!(
            work(&warm) < work(&cold),
            "prefix reuse must cut prefill work: warm {} vs cold {}",
            work(&warm),
            work(&cold)
        );
        let s = cold.sessions.as_ref().expect("summary present even cold");
        assert_eq!(s.prefix_hits, 0);
        assert!(s.pulls.is_empty());
        assert_eq!(s.cold_turns, s.turns - s.sessions);
    }

    #[test]
    fn sessions_off_is_byte_identical_to_plain_fleet() {
        // Only `sessions` arms the workload: a zero-session option set with
        // every other knob non-default must not change a byte, trace
        // included (no `sessions` track, no prefix-cache carve-out).
        let model = ModelConfig::llama3_1b();
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 5.0,
            seed: 3,
        };
        let opts = SchedOptions::slo_aware(SloMix::all_interactive());
        let run = |sess: &SessionOptions| {
            let mut systems: Vec<Box<dyn ServingSystem>> = (0..2)
                .map(|_| {
                    Box::new(LongSightSystem::new(
                        LongSightConfig::paper_default(),
                        model.clone(),
                    )) as Box<dyn ServingSystem>
                })
                .collect();
            let mut rec = Recorder::enabled();
            let (m, f) = simulate_fleet_with(
                &mut systems,
                &model,
                &wl,
                &opts,
                RouterPolicy::JsqSpillover,
                &FleetFaultOptions::disabled(),
                sess,
                &mut rec,
            );
            (m, f, rec.chrome_trace_json())
        };
        let (m1, f1, t1) = run(&SessionOptions::disabled());
        let (m2, f2, t2) = run(&SessionOptions {
            sessions: 0,
            turns: 3,
            think_time_ms: 1500.0,
            reuse: 0.9,
            prefix_cache_pages: 4096,
        });
        assert_eq!(m1, m2);
        assert_eq!(f1, f2);
        assert!(f2.sessions.is_none());
        assert_eq!(f1.to_text(), f2.to_text());
        assert_eq!(t1, t2);
    }

    #[test]
    fn crash_moves_a_pending_publication_to_the_redispatch_target() {
        // One two-turn session on seed 1; fault seed 8 crashes the replica
        // serving the opening turn mid-flight. The turn is redispatched,
        // completes on the target and publishes its prefix there, so the
        // follow-up routes to the target and resumes from its cache.
        let model = ModelConfig::llama3_1b();
        let mut systems: Vec<Box<dyn ServingSystem>> = (0..2)
            .map(|_| {
                Box::new(LongSightSystem::new(
                    LongSightConfig::paper_default(),
                    model.clone(),
                )) as Box<dyn ServingSystem>
            })
            .collect();
        let wl = WorkloadConfig {
            arrivals_per_s: 2.0,
            context_tokens: (32_768, 65_536),
            output_tokens: (16, 64),
            duration_s: 8.0,
            seed: 1,
        };
        let sess = SessionOptions {
            sessions: 1,
            turns: 2,
            think_time_ms: 4000.0,
            reuse: 1.0,
            prefix_cache_pages: 4096,
        };
        let fopts = FleetFaultOptions {
            profile: ReplicaFaultProfile::scaled(0.3),
            fault_seed: 8,
            breaker: None,
            shed_queue_cap: None,
        };
        let (_, rep) = simulate_fleet_with(
            &mut systems,
            &model,
            &wl,
            &SchedOptions::slo_aware(SloMix::all_interactive()),
            RouterPolicy::Affinity,
            &fopts,
            &sess,
            &mut Recorder::disabled(),
        );
        assert_eq!(rep.audit_violation, None);
        let faults = rep.faults.as_ref().expect("fault summary attached");
        let moved = faults
            .redispatches
            .iter()
            .find(|r| r.id == 0)
            .expect("the crash evacuates the opening turn");
        assert_eq!(moved.reason, "replica-crash");
        assert_eq!(rep.placements[0], (0, moved.from));
        assert_eq!(
            rep.placements[1],
            (1, moved.to),
            "the follow-up routes to the replica the publication moved to"
        );
        let s = rep.sessions.as_ref().expect("session summary attached");
        assert_eq!((s.prefix_hits, s.pulls.len(), s.cold_turns), (1, 0, 0));
    }
}
