//! The three serving workloads: `fleet_poisson`, `fleet_sessions` and
//! `decode_8b_128k`.
//!
//! Every workload is open loop: arrivals (Poisson, or session turns with
//! think time) are drawn from the seed before the simulation runs and never
//! wait for the system. The simulated outputs are deterministic under the
//! seed, so every repetition of the timed phase must produce the same
//! digest.

use crate::report::{fnv1a, median, percentile_metric, Kind, Metric, Outcome};
use crate::spans::{timed, SharedTrace};
use crate::timed::TimedSystem;
use crate::Phase;
use longsight_faults::{FaultInjector, FaultProfile, RetryPolicy};
use longsight_model::ModelConfig;
use longsight_obs::{BurnConfig, Recorder};
use longsight_sched::{FleetReport, RouterPolicy, SloClass, SloMix};
use longsight_system::attribution::COMPONENT_NAMES;
use longsight_system::serving::{
    simulate_fleet, simulate_fleet_sessions, simulate_scheduled, SchedOptions, ServeMetrics,
    WorkloadConfig,
};
use longsight_system::{
    LongSightConfig, LongSightSystem, LookaheadConfig, ServingSystem, SessionOptions,
    TokenAttribution,
};
use std::collections::BTreeSet;
use std::time::Instant;

/// Simulated horizon of `fleet_poisson`, seconds (about 19K arrivals).
pub const FLEET_POISSON_HORIZON_S: f64 = 60.0;
/// Offered load of `fleet_poisson`, requests per second per replica: just
/// under the knee of this fleet.
pub const FLEET_POISSON_RATE: f64 = 5.0;
/// Replicas in `fleet_poisson` (the CLI's cap).
pub const FLEET_POISSON_REPLICAS: usize = 64;
/// Simulated horizon of `fleet_sessions`, seconds.
pub const SESSIONS_HORIZON_S: f64 = 1200.0;
/// Sessions opened per simulated second of `fleet_sessions` horizon.
pub const SESSIONS_PER_S: f64 = 2.0;
/// Simulated horizon of `decode_8b_128k`, seconds.
pub const DECODE_HORIZON_S: f64 = 600.0;
/// Token-fault stream seed of `decode_8b_128k`.
pub const DECODE_FAULT_SEED: u64 = 11;
/// Step of the capacity search, requests per second per replica.
pub const CAPACITY_STEP: f64 = 1.0 / 16.0;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingKind {
    FleetPoisson,
    FleetSessions,
    Decode,
}

/// How the simulation is driven.
#[derive(Debug, Clone)]
pub enum Mode {
    /// The multi-replica fleet driver.
    Fleet {
        opts: SchedOptions,
        router: RouterPolicy,
        sessions: SessionOptions,
    },
    /// One LongSight system on the FIFO path with token-level faults and
    /// per-token latency attribution.
    Single {
        faults: FaultProfile,
        fault_seed: u64,
    },
}

/// Everything that defines one serving workload.
#[derive(Debug, Clone)]
pub struct ServingSpec {
    pub model: ModelConfig,
    pub workload: WorkloadConfig,
    pub replicas: usize,
    pub config: LongSightConfig,
    pub mode: Mode,
}

impl ServingSpec {
    pub fn new(kind: ServingKind, seed: u64) -> Self {
        match kind {
            ServingKind::FleetPoisson => {
                Self::fleet_poisson(seed, FLEET_POISSON_RATE, FLEET_POISSON_HORIZON_S)
            }
            ServingKind::FleetSessions => {
                let sessions = (SESSIONS_PER_S * SESSIONS_HORIZON_S) as usize;
                ServingSpec {
                    model: ModelConfig::llama3_1b(),
                    workload: WorkloadConfig {
                        // Unused by the session generator; set to the
                        // mean offered turn rate (4 turns per session).
                        arrivals_per_s: SESSIONS_PER_S * 4.0,
                        context_tokens: (32_768, 65_536),
                        output_tokens: (32, 128),
                        duration_s: SESSIONS_HORIZON_S,
                        seed,
                    },
                    replicas: 8,
                    config: LongSightConfig::paper_default(),
                    mode: Mode::Fleet {
                        opts: SchedOptions::slo_aware(SloMix::all_interactive()),
                        router: RouterPolicy::Affinity,
                        sessions: SessionOptions {
                            sessions,
                            turns: 4,
                            think_time_ms: 3000.0,
                            reuse: 0.9,
                            prefix_cache_pages: 4096,
                        },
                    },
                }
            }
            ServingKind::Decode => {
                // The mild token-fault profile without unrecoverable
                // request failures, so every offered request can complete.
                let faults = FaultProfile {
                    hard_fail_rate: 0.0,
                    ..FaultProfile::mild()
                };
                ServingSpec {
                    model: ModelConfig::llama3_8b(),
                    workload: WorkloadConfig {
                        arrivals_per_s: 8.0,
                        context_tokens: (131_072, 131_072),
                        output_tokens: (32, 128),
                        duration_s: DECODE_HORIZON_S,
                        seed,
                    },
                    replicas: 1,
                    config: LongSightConfig::paper_default()
                        .with_lookahead(LookaheadConfig::serving_default()),
                    mode: Mode::Single {
                        faults,
                        fault_seed: DECODE_FAULT_SEED,
                    },
                }
            }
        }
    }

    /// `fleet_poisson` at a given per-replica rate and horizon.
    pub fn fleet_poisson(seed: u64, rate_per_replica: f64, horizon_s: f64) -> Self {
        ServingSpec {
            model: ModelConfig::llama3_1b(),
            workload: WorkloadConfig {
                arrivals_per_s: rate_per_replica * FLEET_POISSON_REPLICAS as f64,
                context_tokens: (16_384, 32_768),
                output_tokens: (32, 128),
                duration_s: horizon_s,
                seed,
            },
            replicas: FLEET_POISSON_REPLICAS,
            config: LongSightConfig::paper_default(),
            mode: Mode::Fleet {
                opts: SchedOptions::slo_aware(SloMix::mixed()),
                router: RouterPolicy::JsqSpillover,
                sessions: SessionOptions::disabled(),
            },
        }
    }

    /// System construction: the replicas the simulation runs on.
    pub fn build_systems(&self) -> Vec<Box<dyn ServingSystem>> {
        (0..self.replicas)
            .map(|_| {
                Box::new(LongSightSystem::new(
                    self.config.clone(),
                    self.model.clone(),
                )) as Box<dyn ServingSystem>
            })
            .collect()
    }
}

/// The simulated outputs of one run.
pub struct ServeRun {
    pub metrics: ServeMetrics,
    pub report: FleetReport,
    pub attribution: Option<TokenAttribution>,
    pub fault_events: usize,
}

impl ServeRun {
    /// FNV-1a over every simulated output: the metrics JSON, the fleet
    /// report and placement log, the attribution table and the fault count.
    pub fn digest(&self) -> u64 {
        let mut text = self.metrics.to_json();
        text.push_str(&self.report.to_text());
        text.push_str(&self.report.placement_log());
        if let Some(a) = &self.attribution {
            text.push_str(&a.to_table());
        }
        text.push_str(&format!("fault events {}\n", self.fault_events));
        fnv1a(text.as_bytes())
    }
}

/// Runs the simulation of `spec` on `systems`.
pub fn run(
    spec: &ServingSpec,
    systems: &mut [Box<dyn ServingSystem>],
    rec: &mut Recorder,
) -> ServeRun {
    match &spec.mode {
        Mode::Fleet {
            opts,
            router,
            sessions,
        } => {
            let (metrics, report) = if sessions.is_active() {
                simulate_fleet_sessions(
                    systems,
                    &spec.model,
                    &spec.workload,
                    opts,
                    *router,
                    sessions,
                    rec,
                )
            } else {
                simulate_fleet(systems, &spec.model, &spec.workload, opts, *router, rec)
            };
            ServeRun {
                metrics,
                report,
                attribution: None,
                fault_events: 0,
            }
        }
        Mode::Single { faults, fault_seed } => {
            let inj = FaultInjector::new(faults.clone(), *fault_seed);
            let retry = RetryPolicy::serving_default();
            let mut attr = TokenAttribution::new();
            // The FIFO path of `simulate_observed`, which
            // `simulate_scheduled` runs bit-identically while also
            // returning the scheduler report the conservation check needs.
            let (metrics, sched, log) = simulate_scheduled(
                systems[0].as_mut(),
                &spec.model,
                &spec.workload,
                &SchedOptions::fifo(),
                Some((&inj, &retry)),
                rec,
                Some(&mut attr),
            );
            ServeRun {
                metrics,
                report: FleetReport::single(RouterPolicy::RoundRobin, sched),
                attribution: Some(attr),
                fault_events: log.len(),
            }
        }
    }
}

/// Request outcome counts of one run, taken from the scheduler reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub offered: usize,
    pub completed: usize,
    pub rejected: usize,
    pub failed: usize,
    pub shed: usize,
    /// Still running or queued at the end of the run.
    pub unfinished: usize,
}

impl Tally {
    pub fn of(run: &ServeRun) -> Result<Tally, String> {
        let r = &run.report;
        let sum = |f: fn(&longsight_sched::ClassReport) -> usize| -> usize {
            r.per_class.iter().map(f).sum()
        };
        let offered = r.total_arrived();
        let completed = sum(|c| c.completed);
        let rejected = sum(|c| c.rejected);
        let failed = sum(|c| c.failed);
        let shed = r.faults.as_ref().map_or(0, |f| f.shed.len());
        let unfinished = offered
            .checked_sub(completed + rejected + failed + shed)
            .ok_or_else(|| {
                format!(
                    "completed {completed} + rejected {rejected} + failed {failed} + shed {shed} exceeds offered {offered}"
                )
            })?;
        Ok(Tally {
            offered,
            completed,
            rejected,
            failed,
            shed,
            unfinished,
        })
    }

    /// Share of offered requests not served.
    pub fn missed_share(&self) -> f64 {
        (self.offered - self.completed) as f64 / self.offered.max(1) as f64
    }
}

/// The correctness checks every serving run must pass.
pub fn check(run: &ServeRun, out: &mut Outcome) {
    if let Some(v) = &run.report.audit_violation {
        out.check(false, format!("fleet audit: {v}"));
    }
    let m = &run.metrics;
    match Tally::of(run) {
        Err(e) => out.check(false, format!("conservation: {e}")),
        Ok(t) => {
            out.check(t.offered > 0, "no arrivals offered");
            out.check(
                m.completed == t.completed && m.rejected == t.rejected,
                format!(
                    "ServeMetrics completed/rejected {}/{} disagree with the scheduler reports {}/{}",
                    m.completed, m.rejected, t.completed, t.rejected
                ),
            );
            out.check(
                m.in_flight <= t.unfinished,
                format!(
                    "in flight {} exceeds unfinished {} (offered {} = completed + rejected + failed + shed + unfinished)",
                    m.in_flight, t.unfinished, t.offered
                ),
            );
        }
    }
    if let Some(a) = &run.attribution {
        let (_, p50, p99) = a.total_stats();
        out.check(
            p50 == m.p50_token_ms && p99 == m.p99_token_ms,
            format!(
                "attribution total p50/p99 {p50}/{p99} ms does not reconcile with token p50/p99 {}/{} ms",
                m.p50_token_ms, m.p99_token_ms
            ),
        );
    }
}

/// Tokens decoded across every class (one token-latency sample each while
/// no step batches more than 64 users, the cap `ServeMetrics` applies).
fn tokens_decoded(run: &ServeRun) -> usize {
    match &run.attribution {
        Some(a) => a.len(),
        None => run.report.per_class.iter().map(|c| c.tokens).sum(),
    }
}

/// The simulated end-to-end metrics of one run.
pub fn sim_metrics(kind: ServingKind, run: &ServeRun, out: &mut Outcome) {
    let m = &run.metrics;
    if let Ok(t) = Tally::of(run) {
        out.push(
            Metric::new("missed_share", "ratio", Kind::Sim, t.missed_share()).note(format!(
                "(rejected {} + failed {} + shed {} + unfinished {}) / offered {}",
                t.rejected, t.failed, t.shed, t.unfinished, t.offered
            )),
        );
    }
    if kind != ServingKind::Decode {
        let c = &run.report.per_class[SloClass::Interactive.index()];
        for (name, value, p) in [
            ("sim_int_p50_request_ms", c.p50_request_ms, 0.5),
            ("sim_int_p99_request_ms", c.p99_request_ms, 0.99),
        ] {
            out.push(percentile_metric(
                name,
                Kind::Sim,
                value,
                p,
                c.completed,
                "ceil nearest-rank (FleetReport)",
            ));
        }
    }
    let n = tokens_decoded(run);
    for (name, value, p) in [
        ("sim_p50_token_ms", m.p50_token_ms, 0.5),
        ("sim_p99_token_ms", m.p99_token_ms, 0.99),
    ] {
        out.push(percentile_metric(
            name,
            Kind::Sim,
            value,
            p,
            n,
            "round((n-1)p) (ServeMetrics)",
        ));
    }
    out.push(Metric::new(
        "sim_throughput_tps",
        "tok/s",
        Kind::Sim,
        m.throughput_tps,
    ));
}

/// Whether a `fleet_poisson` run meets the serving limit: interactive p99
/// request latency within the burn-rate deadline, nothing rejected, and
/// nothing left running or queued.
pub fn meets_limit(run: &ServeRun) -> bool {
    let deadline_ms = BurnConfig::default().slo_ms;
    let c = &run.report.per_class[SloClass::Interactive.index()];
    match Tally::of(run) {
        Ok(t) => {
            c.p99_request_ms <= deadline_ms
                && t.rejected == 0
                && t.shed == 0
                && t.unfinished == 0
                && t.failed == 0
        }
        Err(_) => false,
    }
}

/// One probe of the capacity search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    pub rate: f64,
    pub int_p99_request_ms: f64,
    pub ok: bool,
}

/// The highest per-replica rate on a `CAPACITY_STEP` grid at which
/// `fleet_poisson` meets [`meets_limit`], found by bracketing from the
/// workload's own rate and then bisecting. Returns the rate and every probe
/// in the order run.
pub fn capacity(seed: u64, horizon_s: f64) -> (f64, Vec<Probe>) {
    fn probe(seed: u64, horizon_s: f64, rate: f64, probes: &mut Vec<Probe>) -> bool {
        let spec = ServingSpec::fleet_poisson(seed, rate, horizon_s);
        let run = run(&spec, &mut spec.build_systems(), &mut Recorder::disabled());
        let ok = meets_limit(&run);
        probes.push(Probe {
            rate,
            int_p99_request_ms: run.report.per_class[SloClass::Interactive.index()].p99_request_ms,
            ok,
        });
        ok
    }
    let mut probes = Vec::new();
    let mut lo = FLEET_POISSON_RATE - 1.0;
    while !probe(seed, horizon_s, lo, &mut probes) {
        if lo <= CAPACITY_STEP {
            return (0.0, probes);
        }
        lo = (lo / 2.0 / CAPACITY_STEP).floor().max(1.0) * CAPACITY_STEP;
    }
    let mut hi = FLEET_POISSON_RATE + 1.0;
    while probe(seed, horizon_s, hi, &mut probes) {
        lo = hi;
        hi *= 2.0;
    }
    while hi - lo > CAPACITY_STEP {
        let mid = ((lo + hi) / 2.0 / CAPACITY_STEP).round() * CAPACITY_STEP;
        if probe(seed, horizon_s, mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Median host time of the set-up, seconds: constructing the replicas and
/// one warm-up run of the workload. Construction alone takes microseconds,
/// too little to time steadily, and the first run in a process pays the
/// page faults and cold caches the timed phase should not see.
fn setup_seconds(spec: &ServingSpec) -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut systems = spec.build_systems();
            std::hint::black_box(run(spec, &mut systems, &mut Recorder::disabled()));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The end-to-end run: set-up, the timed phase, checks, and (on
/// `fleet_poisson`) the capacity search outside the timed phase.
pub fn end_to_end(kind: ServingKind, seed: u64, phase: &Phase) -> Outcome {
    let spec = ServingSpec::new(kind, seed);
    let mut out = Outcome::default();
    out.push(
        Metric::new("setup_s", "s", Kind::Host, setup_seconds(&spec)).note(format!(
            "construction of {} systems + one warm-up run, median of {SETUP_REPS}",
            spec.replicas
        )),
    );

    let mut first: Option<ServeRun> = None;
    let mut digests = Vec::new();
    let times = phase.repeat(|| {
        let mut sys = spec.build_systems();
        let t0 = Instant::now();
        let r = run(&spec, &mut sys, &mut Recorder::disabled());
        let dt = t0.elapsed().as_secs_f64();
        digests.push(r.digest());
        if first.is_none() {
            first = Some(r);
        }
        dt
    });
    let run0 = first.expect("the timed phase runs at least once");
    out.push(
        Metric::new("host_s", "s", Kind::Host, median(&times))
            .note(format!("median of {} repetitions", times.len())),
    );
    out.digest = digests[0];
    out.check(
        digests.iter().all(|&d| d == out.digest),
        "repetitions of the same seed produced different simulated outputs",
    );
    check(&run0, &mut out);
    if let Ok(t) = Tally::of(&run0) {
        out.attempted = t.offered as u64;
        out.missed = (t.offered - t.completed) as u64;
    }
    sim_metrics(kind, &run0, &mut out);

    if kind == ServingKind::FleetPoisson {
        let (rate, probes) = capacity(seed, spec.workload.duration_s);
        let ladder: Vec<String> = probes
            .iter()
            .map(|p| {
                format!(
                    "{:.4}:{}({:.0} ms)",
                    p.rate,
                    if p.ok { "ok" } else { "miss" },
                    p.int_p99_request_ms
                )
            })
            .collect();
        out.notes
            .push(format!("capacity probes: {}", ladder.join(" ")));
        out.check(rate > 0.0, "no probed rate met the serving limit");
        out.push(
            Metric::new("sim_capacity_rps", "req/s", Kind::Sim, rate).note(format!(
                "per replica; interactive p99 request <= {} ms, nothing rejected or unfinished; step {CAPACITY_STEP}",
                BurnConfig::default().slo_ms
            )),
        );
    }
    out
}

/// The traced run: the workload untraced (a warm-up, then the reference
/// digest and host time), once through the timing wrapper with spans, once
/// with the program's `Recorder` on, and the step shapes the wrapper saw
/// re-timed through `LongSightSystem::drex_layer`.
pub fn traced(kind: ServingKind, seed: u64, trace: &SharedTrace) -> Outcome {
    let spec = ServingSpec::new(kind, seed);
    let mut out = Outcome::default();

    // A warm-up run first, so the untraced reference is not the process's
    // cold first run.
    std::hint::black_box(run(
        &spec,
        &mut spec.build_systems(),
        &mut Recorder::disabled(),
    ));
    let mut plain_systems = spec.build_systems();
    let t0 = Instant::now();
    let plain = run(&spec, &mut plain_systems, &mut Recorder::disabled());
    let host_off = t0.elapsed().as_secs_f64();
    out.digest = plain.digest();

    let root = trace.borrow_mut().begin("bench.run");
    let mut systems: Vec<Box<dyn ServingSystem>> = timed(trace, "setup.systems", || {
        spec.build_systems()
            .into_iter()
            .map(|s| TimedSystem::wrap(s, trace))
            .collect()
    });
    let wrapped = timed(trace, "system.simulate", || {
        run(&spec, &mut systems, &mut Recorder::disabled())
    });
    drop(systems);
    let shapes: BTreeSet<(usize, usize)> = trace.borrow().shapes.clone();
    let drex = LongSightSystem::new(spec.config.clone(), spec.model.clone());
    for &(users, context) in &shapes {
        timed(trace, "drex.layer", || {
            std::hint::black_box(drex.drex_layer(users, context))
        });
    }
    trace.borrow_mut().end(root);

    let mut rec = Recorder::enabled();
    let mut rec_systems = spec.build_systems();
    let t0 = Instant::now();
    let recorded = run(&spec, &mut rec_systems, &mut rec);
    let host_on = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let chrome = rec.chrome_trace_json();
    let metrics_json = rec.metrics_json();
    let export_s = t0.elapsed().as_secs_f64();
    let trace_mb = (chrome.len() + metrics_json.len()) as f64 / (1024.0 * 1024.0);
    drop((chrome, metrics_json, rec));

    out.check(
        wrapped.digest() == out.digest,
        "the timed wrapper changed the simulated outputs",
    );
    out.check(
        recorded.digest() == out.digest,
        "recording changed the simulated outputs",
    );
    check(&plain, &mut out);
    let t = Tally::of(&plain).ok();
    out.attempted = t.map_or(0, |t| t.offered as u64);
    out.missed = t.map_or(0, |t| (t.offered - t.completed) as u64);

    let tr = trace.borrow();
    let selfs = tr.self_times();
    let simulate_s = tr.total("system.simulate");
    let step_cost_s: f64 = selfs
        .iter()
        .filter(|(k, _)| k.starts_with("step_cost."))
        .map(|(_, v)| v)
        .sum();
    let calls = tr.count_prefix("step_cost.");
    let evaluations = tr.durations("step_cost.evaluate").len();
    out.notes.push(format!(
        "host split: untraced simulate {host_off:.4} s | traced simulate {simulate_s:.4} s = loop self {:.4} s + step costing {step_cost_s:.4} s ({calls} trait calls)",
        selfs.get("system.simulate").copied().unwrap_or(0.0)
    ));
    layer_self_times(&selfs, host_off, &mut out);

    let host = |name: &str, unit: &'static str, v: f64| Metric::new(name, unit, Kind::Host, v);
    out.push(host(
        "system.loop.self_s",
        "s",
        selfs.get("system.simulate").copied().unwrap_or(0.0),
    ));
    let offered = t.map_or(0, |t| t.offered);
    out.push(host(
        "system.host_ms_per_1k_arrivals",
        "ms",
        host_off * 1e3 / (offered.max(1) as f64 / 1e3),
    ));
    out.push(host("step_cost.calls", "count", calls as f64));
    out.push(host("step_cost.s", "s", step_cost_s));
    out.push(host(
        "step_cost.unique_shapes",
        "count",
        shapes.len() as f64,
    ));
    out.push(host(
        "step_cost.unique_share",
        "ratio",
        shapes.len() as f64 / evaluations.max(1) as f64,
    ));
    out.push(host("drex.layer_s", "s", tr.total("drex.layer")));
    out.push(host("obs.trace_overhead", "x", host_on / host_off));
    out.push(host("obs.export_s", "s", export_s));
    out.push(host("obs.trace_mb", "MB", trace_mb));
    drop(tr);

    layer_sim_metrics(&plain, &mut out);
    out
}

/// Prints each layer's self time against the untraced simulate time.
fn layer_self_times(
    selfs: &std::collections::BTreeMap<&'static str, f64>,
    host_off: f64,
    out: &mut Outcome,
) {
    let mut rows: Vec<String> = Vec::new();
    let mut layers: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for (name, v) in selfs {
        let layer = match *name {
            "system.simulate" => "system.loop",
            n if n.starts_with("step_cost.") => "step_cost",
            n => n,
        };
        *layers.entry(layer).or_default() += v;
    }
    let accounted =
        layers.get("system.loop").unwrap_or(&0.0) + layers.get("step_cost").unwrap_or(&0.0);
    for (layer, v) in &layers {
        rows.push(format!("{layer} {v:.4} s"));
    }
    out.notes
        .push(format!("layer self times: {}", rows.join(" | ")));
    out.notes.push(format!(
        "system.loop + step_cost self time = {:.3} x untraced host time of the same run",
        accounted / host_off
    ));
}

/// The simulated per-layer metrics: scheduler, pages, router, attribution,
/// faults and lookahead.
fn layer_sim_metrics(run: &ServeRun, out: &mut Outcome) {
    let sim = |name: &str, unit: &'static str, v: f64| Metric::new(name, unit, Kind::Sim, v);
    let reps = &run.report.replicas;
    let m = &run.metrics;
    out.push(sim("sched.mean_batch", "users", m.mean_batch));
    out.push(sim(
        "sched.preemptions",
        "count",
        reps.iter().map(|r| r.preemptions).sum::<usize>() as f64,
    ));
    out.push(sim(
        "sched.resumes",
        "count",
        reps.iter().map(|r| r.resumes).sum::<usize>() as f64,
    ));
    out.push(sim(
        "sched.prefill_work_s",
        "s",
        reps.iter().map(|r| r.prefill_work_ns).sum::<f64>() / 1e9,
    ));
    let peak_hbm = reps
        .iter()
        .filter(|r| r.pages.hbm_limit > 0)
        .map(|r| r.pages.peak_hbm as f64 / r.pages.hbm_limit as f64)
        .fold(0.0, f64::max);
    out.push(sim("pages.peak_hbm_share", "ratio", peak_hbm));
    let hits: usize = reps.iter().map(|r| r.pages.prefix_hits).sum();
    let misses: usize = reps.iter().map(|r| r.pages.prefix_misses).sum();
    out.push(sim(
        "pages.prefix_hit_share",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    out.push(sim(
        "pages.prefix_reclaims",
        "count",
        reps.iter().map(|r| r.pages.prefix_reclaims).sum::<usize>() as f64,
    ));

    let (owner_share, pulls, cold) = match &run.report.sessions {
        Some(s) => {
            let follow_ups = s.turns.saturating_sub(s.sessions);
            (
                s.prefix_hits as f64 / follow_ups.max(1) as f64,
                s.pulls.len(),
                s.cold_turns,
            )
        }
        None => (0.0, 0, 0),
    };
    out.push(sim("router.owner_share", "ratio", owner_share));
    out.push(sim("router.pulls", "count", pulls as f64));
    out.push(sim("router.cold_turns", "count", cold as f64));
    let mut per_replica = vec![0usize; reps.len().max(1)];
    for &(_, r) in &run.report.placements {
        per_replica[r] += 1;
    }
    let mean = per_replica.iter().sum::<usize>() as f64 / per_replica.len() as f64;
    let max = per_replica.iter().copied().max().unwrap_or(0) as f64;
    out.push(sim("router.imbalance", "x", max / mean.max(1e-12)));

    for (c, name) in COMPONENT_NAMES.iter().enumerate() {
        let (mean, _, p99) = run
            .attribution
            .as_ref()
            .map_or((0.0, 0.0, 0.0), |a| a.component_stats(c));
        out.push(sim(&format!("attr.{name}.mean_ms"), "ms", mean));
        out.push(sim(&format!("attr.{name}.p99_ms"), "ms", p99));
    }
    out.push(sim("faults.events", "count", run.fault_events as f64));
    out.push(sim(
        "faults.retried_tokens",
        "count",
        m.retried_tokens as f64,
    ));
    out.push(sim(
        "faults.failed_requests",
        "count",
        m.failed_requests as f64,
    ));
    let spec_total = m.spec_hits + m.spec_misses + m.spec_denied;
    out.push(sim(
        "spec.hit_share",
        "ratio",
        m.spec_hits as f64 / spec_total.max(1) as f64,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short `fleet_poisson`, so the tests stay fast.
    fn short_spec(seed: u64) -> ServingSpec {
        ServingSpec::fleet_poisson(seed, FLEET_POISSON_RATE, 4.0)
    }

    #[test]
    fn timed_wrapper_is_transparent() {
        let spec = short_spec(3);
        let plain = run(&spec, &mut spec.build_systems(), &mut Recorder::disabled());
        let trace = crate::spans::Trace::shared();
        let mut wrapped_systems: Vec<Box<dyn ServingSystem>> = spec
            .build_systems()
            .into_iter()
            .map(|s| TimedSystem::wrap(s, &trace))
            .collect();
        let wrapped = run(&spec, &mut wrapped_systems, &mut Recorder::disabled());
        assert_eq!(plain.metrics, wrapped.metrics);
        assert_eq!(plain.report, wrapped.report);
        assert_eq!(plain.report.placements, wrapped.report.placements);
        assert!(trace.borrow().count_prefix("step_cost.evaluate") > 0);
    }

    #[test]
    fn capacity_is_deterministic_and_matches_a_direct_run() {
        let (rate, probes) = capacity(5, 4.0);
        let (again, probes_again) = capacity(5, 4.0);
        assert_eq!(rate, again);
        assert_eq!(probes, probes_again);
        assert!(rate > 0.0);
        let spec = ServingSpec::fleet_poisson(5, rate, 4.0);
        let direct = run(&spec, &mut spec.build_systems(), &mut Recorder::disabled());
        assert!(meets_limit(&direct), "the found rate must meet the limit");
        let above = rate + CAPACITY_STEP;
        let failed_above = probes.iter().any(|p| !p.ok && p.rate <= above + 1e-12);
        assert!(
            failed_above,
            "a probe one step above {rate} must miss: {probes:?}"
        );
    }

    #[test]
    fn every_serving_check_passes_on_short_runs() {
        for kind in [ServingKind::FleetSessions, ServingKind::Decode] {
            let mut spec = ServingSpec::new(kind, 2);
            spec.workload.duration_s = 20.0;
            if let Mode::Fleet { sessions, .. } = &mut spec.mode {
                sessions.sessions = 40;
            }
            let r = run(&spec, &mut spec.build_systems(), &mut Recorder::disabled());
            let mut out = Outcome::default();
            check(&r, &mut out);
            assert!(out.failures.is_empty(), "{kind:?}: {:?}", out.failures);
        }
    }
}
