//! Subcommand implementations.

use crate::args::Args;
use longsight_core::tuner::{tune_thresholds, ProbeResult, TunerConfig};
use longsight_core::{
    training, HybridConfig, ItqConfig, LongSightBackend, RotationTable, ThresholdTable,
};
use longsight_dram::Geometry;
use longsight_drex::layout::{self, UserPartition};
use longsight_faults::{FaultInjector, FaultProfile, ReplicaFaultProfile, RetryPolicy};
use longsight_gpu::{DataParallelGpus, GpuSpec};
use longsight_model::{
    corpus, perplexity, DenseBackend, InductionParams, Model, ModelConfig, ModelWeights,
};
use longsight_obs::{BurnConfig, Recorder};
use longsight_sched::{BreakerConfig, RouterPolicy, SchedPolicy, SloMix};
use longsight_system::serving::{
    simulate_fleet_with, simulate_scheduled, FleetFaultOptions, SchedOptions, ServeMetrics,
    WorkloadConfig,
};
use longsight_system::{
    AttAccSystem, GpuOnlySystem, LongSightConfig, LongSightSystem, LookaheadConfig, ServingSystem,
    SessionOptions, SlidingWindowSystem, TokenAttribution,
};
use longsight_tensor::SimRng;

fn model_flag(a: &Args) -> Result<ModelConfig, String> {
    match a.get("model").unwrap_or("8b") {
        "1b" => Ok(ModelConfig::llama3_1b()),
        "8b" => Ok(ModelConfig::llama3_8b()),
        other => Err(format!("unknown --model '{other}' (use 1b or 8b)")),
    }
}

/// Parses the shared fault-injection flags.
///
/// `--fault-profile` accepts `none`, `mild`, `severe`, or a rate in
/// `[0, 1]`; `--fault-seed` selects the deterministic fault timeline and
/// `--deadline-ms` overrides the per-attempt offload deadline.
fn fault_flags(a: &Args) -> Result<(FaultProfile, u64, RetryPolicy), String> {
    let profile = match a.get("fault-profile") {
        None => FaultProfile::disabled(),
        Some(spec) => FaultProfile::parse(spec)?,
    };
    let seed: u64 = a.get_or("fault-seed", 0)?;
    let mut retry = RetryPolicy::serving_default();
    if let Some(d) = a.get("deadline-ms") {
        let ms: f64 = d
            .parse()
            .map_err(|_| format!("invalid value '{d}' for --deadline-ms"))?;
        if !(ms > 0.0 && ms.is_finite()) {
            return Err(format!(
                "--deadline-ms must be a positive number, got '{d}'"
            ));
        }
        retry.offload_deadline_ns = ms * 1e6;
    }
    Ok((profile, seed, retry))
}

/// Parses the scheduler flags (`--sched`, `--mix`, `--page-tokens`,
/// `--prefill-chunk`, `--prefill-slots`, `--watermark`). Returns `None`
/// when none are given — the command then takes the legacy FIFO path with
/// no extra output.
///
/// `--mix` defaults to the representative 0.5/0.3/0.2 mix under
/// `--sched slo-aware` and to all-interactive under `--sched fifo`, so a
/// bare `--sched slo-aware` exercises preemption out of the box.
fn sched_flags(a: &Args) -> Result<Option<SchedOptions>, String> {
    let any = [
        "sched",
        "mix",
        "page-tokens",
        "prefill-chunk",
        "prefill-slots",
        "watermark",
    ]
    .iter()
    .any(|k| a.get(k).is_some());
    if !any {
        return Ok(None);
    }
    let policy = SchedPolicy::parse(a.get("sched").unwrap_or("slo-aware"))?;
    let mix = match a.get("mix") {
        Some(spec) => {
            let mix = SloMix::parse(spec)?;
            // The library normalizes any positive weights; the CLI is
            // stricter so a typo'd mix fails loudly instead of silently
            // rescaling.
            let sum = mix.interactive + mix.batch + mix.best_effort;
            if (sum - 1.0).abs() > 1e-6 {
                return Err(format!(
                    "--mix fractions must sum to 1, got '{spec}' (sum {sum})"
                ));
            }
            mix
        }
        None if policy == SchedPolicy::SloAware => SloMix::mixed(),
        None => SloMix::all_interactive(),
    };
    let watermark: f64 = a.get_or("watermark", 0.9)?;
    if !(watermark > 0.0 && watermark <= 1.0) {
        return Err(format!("--watermark must be in (0, 1], got {watermark}"));
    }
    let page_tokens: usize = a.get_or("page-tokens", 1024)?;
    if page_tokens == 0 {
        return Err("--page-tokens must be positive".into());
    }
    let prefill_chunk_tokens: usize = a.get_or("prefill-chunk", 8192)?;
    if prefill_chunk_tokens == 0 {
        return Err("--prefill-chunk must be positive".into());
    }
    let prefill_slots: usize = a.get_or("prefill-slots", 1)?;
    if prefill_slots == 0 {
        return Err("--prefill-slots must be >= 1 (0 slots can never finish a prefill)".into());
    }
    Ok(Some(SchedOptions {
        policy,
        mix,
        page_tokens,
        prefill_chunk_tokens,
        prefill_slots,
        hbm_watermark: watermark,
    }))
}

/// Parses the fleet failure-domain flags (`--crash-profile`,
/// `--crash-seed`, `--breaker on|off`, `--shed-cap`).
///
/// `--crash-profile` accepts `none`, `mild`, `severe`, or a bare
/// per-interval crash rate in `[0, 1]`; `--crash-seed` picks the
/// deterministic replica fault timeline (independent of the workload
/// seed). The breaker defaults to on whenever a crash profile is enabled
/// — `--breaker off` is the naive baseline that keeps routing into dead
/// replicas. `--shed-cap N` arms the admission controller with per-class
/// queue caps of N best-effort / 2N batch / 4N interactive.
fn fleet_fault_flags(a: &Args) -> Result<FleetFaultOptions, String> {
    let profile = match a.get("crash-profile") {
        Some(name) => ReplicaFaultProfile::parse(name)?,
        None => ReplicaFaultProfile::disabled(),
    };
    let fault_seed: u64 = a.get_or("crash-seed", 0)?;
    let breaker = match a.get("breaker") {
        None => profile.is_enabled().then(BreakerConfig::serving_default),
        Some("on") => Some(BreakerConfig::serving_default()),
        Some("off") => None,
        Some(other) => return Err(format!("--breaker must be 'on' or 'off', got '{other}'")),
    };
    let shed_queue_cap = match a.get("shed-cap") {
        None => None,
        Some(s) => {
            let cap: usize = s
                .parse()
                .map_err(|_| format!("--shed-cap must be a positive integer, got '{s}'"))?;
            if cap == 0 {
                return Err("--shed-cap must be >= 1 (a zero cap sheds everything)".into());
            }
            Some(cap)
        }
    };
    Ok(FleetFaultOptions {
        profile,
        fault_seed,
        breaker,
        shed_queue_cap,
    })
}

/// Parses the lookahead-pipeline flags (`--lookahead on|off`,
/// `--spec-slots`, `--spec-miss`, `--spec-penalty-ms`). Returns `None`
/// when none are given — the command then takes the legacy synchronous
/// path, byte-identical to builds that predate the pipeline. An explicit
/// `--lookahead off` also returns a config (the disabled one), so the
/// gated-off path is exercised through the same plumbing.
fn lookahead_flags(a: &Args) -> Result<Option<LookaheadConfig>, String> {
    let any = ["lookahead", "spec-slots", "spec-miss", "spec-penalty-ms"]
        .iter()
        .any(|k| a.get(k).is_some());
    if !any {
        return Ok(None);
    }
    let enabled = match a.get("lookahead").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("invalid --lookahead '{other}' (use on or off)")),
    };
    let mut la = if enabled {
        LookaheadConfig::serving_default()
    } else {
        LookaheadConfig::disabled()
    };
    la.slots = a.get_or("spec-slots", la.slots)?;
    if enabled && la.slots == 0 {
        return Err("--spec-slots must be >= 1 (an empty pool can never issue)".into());
    }
    la.miss_rate = a.get_or("spec-miss", la.miss_rate)?;
    if !(0.0..=1.0).contains(&la.miss_rate) {
        return Err(format!(
            "--spec-miss must be in [0, 1], got {}",
            la.miss_rate
        ));
    }
    let penalty_ms: f64 = a.get_or("spec-penalty-ms", la.refilter_penalty_ns / 1e6)?;
    if !(penalty_ms >= 0.0 && penalty_ms.is_finite()) {
        return Err(format!(
            "--spec-penalty-ms must be a non-negative number, got {penalty_ms}"
        ));
    }
    la.refilter_penalty_ns = penalty_ms * 1e6;
    Ok(Some(la))
}

/// Parses the session-workload flags (`--sessions`, `--turns`,
/// `--think-time-ms`, `--reuse`, `--prefix-cache`). `--sessions 0` (or the
/// flag absent) disables the session workload; the follow-up flags without
/// `--sessions` are then a contradiction, not a silent no-op, so a typo'd
/// sweep fails loudly instead of re-running the Poisson baseline.
fn session_flags(a: &Args) -> Result<SessionOptions, String> {
    let sessions: usize = a.get_or("sessions", 0)?;
    if sessions == 0 {
        for k in ["turns", "think-time-ms", "reuse", "prefix-cache"] {
            if a.get(k).is_some() {
                return Err(format!(
                    "--{k} needs --sessions >= 1 (no session workload armed)"
                ));
            }
        }
        return Ok(SessionOptions::disabled());
    }
    let turns: usize = a.get_or("turns", 4)?;
    if turns == 0 {
        return Err("--turns must be >= 1 (a session needs its opening turn)".into());
    }
    let think_time_ms: f64 = a.get_or("think-time-ms", 2000.0)?;
    if !(think_time_ms >= 0.0 && think_time_ms.is_finite()) {
        return Err(format!(
            "--think-time-ms must be a non-negative number, got {think_time_ms}"
        ));
    }
    let reuse: f64 = a.get_or("reuse", 0.5)?;
    if !(0.0..=1.0).contains(&reuse) {
        return Err(format!("--reuse must be in [0, 1], got {reuse}"));
    }
    let prefix_cache_pages: usize = a.get_or("prefix-cache", 4096)?;
    Ok(SessionOptions {
        sessions,
        turns,
        think_time_ms,
        reuse,
        prefix_cache_pages,
    })
}

/// Export paths selected by the observability flags.
struct ObsPaths {
    trace: Option<String>,
    metrics: Option<String>,
    timeseries: Option<String>,
}

/// Builds the recorder selected by `--trace-out` / `--metrics-out` /
/// `--timeseries-out` (disabled — and thereby free — when none is given)
/// together with the output paths. `--timeseries-out` additionally arms
/// the windowed sampler; `--ts-window-ms` sets its base window (default
/// 250 ms of simulated time) and is rejected without `--timeseries-out`.
fn obs_flags(a: &Args) -> Result<(Recorder, ObsPaths), String> {
    let paths = ObsPaths {
        trace: a.get("trace-out").map(str::to_string),
        metrics: a.get("metrics-out").map(str::to_string),
        timeseries: a.get("timeseries-out").map(str::to_string),
    };
    let window_ms: f64 = a.get_or("ts-window-ms", 250.0)?;
    if paths.timeseries.is_none() {
        if a.get("ts-window-ms").is_some() {
            return Err("--ts-window-ms needs --timeseries-out".into());
        }
    } else if !(window_ms > 0.0 && window_ms.is_finite()) {
        return Err(format!(
            "--ts-window-ms must be a positive number of milliseconds, got {window_ms}"
        ));
    }
    let mut rec = if paths.trace.is_some() || paths.metrics.is_some() || paths.timeseries.is_some()
    {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    if paths.timeseries.is_some() {
        rec.enable_timeseries(window_ms * 1e6, BurnConfig::default());
    }
    Ok((rec, paths))
}

/// Writes the recorded trace/metrics/timeseries to the requested files.
/// The timeseries export format follows the file extension: `.json` gets
/// the JSON form, anything else the TSV form.
fn write_observability(rec: &Recorder, paths: &ObsPaths) -> Result<(), String> {
    if let Some(path) = paths.trace.as_deref() {
        std::fs::write(path, rec.chrome_trace_json())
            .map_err(|e| format!("writing --trace-out {path}: {e}"))?;
        println!("  trace written to {path}");
    }
    if let Some(path) = paths.metrics.as_deref() {
        std::fs::write(path, rec.metrics_json())
            .map_err(|e| format!("writing --metrics-out {path}: {e}"))?;
        println!("  metrics written to {path}");
    }
    if let Some(path) = paths.timeseries.as_deref() {
        let body = if path.ends_with(".json") {
            rec.timeseries.to_json()
        } else {
            rec.timeseries.to_tsv()
        };
        std::fs::write(path, body).map_err(|e| format!("writing --timeseries-out {path}: {e}"))?;
        println!("  timeseries written to {path}");
    }
    Ok(())
}

/// Prints the paged KV-cache capacity panel for `serve` when
/// `--page-tokens` / `--watermark` is given: page geometry on both tiers
/// and how many users of this context the memory manager would admit.
fn print_paged_kv(a: &Args, sys: &dyn ServingSystem, ctx: usize) -> Result<(), String> {
    if a.get("page-tokens").is_none() && a.get("watermark").is_none() {
        return Ok(());
    }
    let page_tokens: usize = a.get_or("page-tokens", 1024)?;
    if page_tokens == 0 {
        return Err("--page-tokens must be positive".into());
    }
    let watermark: f64 = a.get_or("watermark", 0.9)?;
    if !(watermark > 0.0 && watermark <= 1.0) {
        return Err(format!("--watermark must be in (0, 1], got {watermark}"));
    }
    match sys.kv_geometry(page_tokens) {
        Some(g) => {
            println!(
                "  paged KV: {} tokens/page | HBM {} pages ({} usable at {:.0}% watermark) | DReX {} pages",
                g.page_tokens,
                g.hbm_capacity_pages,
                g.page_config(watermark).hbm_limit_pages(),
                100.0 * watermark,
                g.drex_capacity_pages
            );
            println!(
                "  paged KV admits {} users at {} tokens ({} HBM + {} DReX pages each)",
                g.memory_max_users(ctx, watermark),
                ctx,
                g.hbm_pages_for(ctx),
                g.drex_pages_for(ctx)
            );
        }
        None => println!("  paged KV: no page geometry for this system"),
    }
    Ok(())
}

fn build_system(
    name: &str,
    model: ModelConfig,
    lookahead: Option<LookaheadConfig>,
) -> Result<Box<dyn ServingSystem>, String> {
    if let Some(la) = lookahead {
        if name != "longsight" {
            return Err(format!(
                "--lookahead applies to --system longsight only (got '{name}')"
            ));
        }
        return Ok(Box::new(LongSightSystem::new(
            LongSightConfig::paper_default().with_lookahead(la),
            model,
        )));
    }
    Ok(match name {
        "longsight" => Box::new(LongSightSystem::new(
            LongSightConfig::paper_default(),
            model,
        )),
        "gpu" => Box::new(GpuOnlySystem {
            gpus: DataParallelGpus::new(GpuSpec::h100_sxm(), 1),
            model,
        }),
        "gpu2" => Box::new(GpuOnlySystem {
            gpus: DataParallelGpus::new(GpuSpec::h100_sxm(), 2),
            model,
        }),
        "attacc" => Box::new(AttAccSystem::h100_pim(model)),
        "window" => Box::new(SlidingWindowSystem {
            gpus: DataParallelGpus::new(GpuSpec::h100_sxm(), 1),
            model,
            window: 1024,
            sinks: 16,
        }),
        other => return Err(format!("unknown --system '{other}'")),
    })
}

/// `longsight quality` — the artifact's example run.
pub fn quality(a: &Args) -> Result<(), String> {
    a.ensure_known(&["ctx", "window", "k", "threshold", "itq", "seed"])?;
    let ctx: usize = a.get_or("ctx", 1024)?;
    let window: usize = a.get_or("window", 256)?;
    let k: usize = a.get_or("k", 128)?;
    let seed: u64 = a.get_or("seed", 2025)?;
    let use_itq: bool = a.get_or("itq", true)?;

    let hybrid_cfg = HybridConfig {
        window,
        sinks: 16,
        top_k: k,
    };
    hybrid_cfg
        .validate()
        .map_err(|e| format!("--window/--k: {e}"))?;

    let cfg = ModelConfig::tiny();
    let threshold: u32 = a.get_or("threshold", cfg.head_dim as u32 / 2 + 5)?;
    let mut rng = SimRng::seed_from(seed);
    let model = Model::new(ModelWeights::induction(
        &cfg,
        &InductionParams::default(),
        &mut rng,
    ));
    let text = corpus::generate(&corpus::CorpusConfig::long_book(cfg.vocab), ctx, &mut rng);
    let skip = (ctx / 16).max(2);

    let dense = perplexity::evaluate(&model, &text, &mut DenseBackend::new(), skip);
    let rotations = if use_itq {
        training::train_rotations(&model, &text.tokens[..512.min(ctx)], &ItqConfig::default())
    } else {
        RotationTable::identity(cfg.layers, cfg.kv_heads, cfg.head_dim)
    };
    let mut hybrid = LongSightBackend::new(
        hybrid_cfg,
        ThresholdTable::uniform(cfg.layers, cfg.kv_heads, threshold),
        rotations,
    );
    let sparse = perplexity::evaluate(&model, &text, &mut hybrid, skip);

    println!("context {ctx}, window {window}, k {k}, threshold {threshold}, itq {use_itq}");
    println!("dense perplexity:     {:.2}", dense.perplexity);
    println!(
        "LongSight perplexity: {:.2} ({:+.2}%)",
        sparse.perplexity,
        100.0 * sparse.relative_increase_over(&dense)
    );
    let s = hybrid.stats();
    println!(
        "filter ratio (non-window): {:.1}x | sparsity: {:.1}%",
        s.filter_ratio_nonwindow(),
        100.0 * s.sparsity()
    );
    Ok(())
}

fn print_report(name: &str, r: &longsight_system::StepReport) {
    print!("{}", r.to_text(name));
}

/// Prints a serving run's speculation counters (silent when the run never
/// speculated, keeping lookahead-off output byte-identical).
fn print_spec_counters(m: &ServeMetrics) {
    if m.spec_hits + m.spec_misses + m.spec_denied > 0 {
        println!(
            "  speculation: {} hit | {} miss | {} denied",
            m.spec_hits, m.spec_misses, m.spec_denied
        );
    }
}

/// Prints the speculation summary of a lookahead-on step report (silent
/// for lookahead-off reports, keeping legacy output byte-identical).
fn print_spec_line(r: &longsight_system::StepReport) {
    if let Some(s) = r.spec {
        println!(
            "  speculation: chain {:.3} ms | hidden {:.3} ms | visible {:.3} ms | serial {:.3} ms/token | {} slots | miss rate {}",
            s.chain_ns / 1e6,
            (s.chain_ns - s.hit_visible_ns) / 1e6,
            s.hit_visible_ns / 1e6,
            s.serial_step_ns / 1e6,
            s.slots,
            s.miss_rate
        );
    }
}

/// `longsight serve` — one evaluation row.
pub fn serve(a: &Args) -> Result<(), String> {
    a.ensure_known(&[
        "model",
        "ctx",
        "users",
        "system",
        "fault-profile",
        "fault-seed",
        "deadline-ms",
        "trace-out",
        "metrics-out",
        "timeseries-out",
        "ts-window-ms",
        "page-tokens",
        "watermark",
        "lookahead",
        "spec-slots",
        "spec-miss",
        "spec-penalty-ms",
    ])?;
    let model = model_flag(a)?;
    let ctx: usize = a.get_or("ctx", 131_072)?;
    let users: usize = a.get_or("users", 8)?;
    let (faults, fault_seed, retry) = fault_flags(a)?;
    let lookahead = lookahead_flags(a)?;
    let (mut rec, obs_paths) = obs_flags(a)?;
    let sys_name = a.get("system").unwrap_or("longsight");
    if faults.is_enabled() {
        if sys_name != "longsight" {
            return Err(format!(
                "--fault-profile applies to --system longsight only (got '{sys_name}')"
            ));
        }
        let mut cfg = LongSightConfig::paper_default().with_faults(faults, fault_seed);
        cfg.retry = retry;
        if let Some(la) = lookahead {
            cfg = cfg.with_lookahead(la);
        }
        let mut sys = LongSightSystem::new(cfg, model);
        match sys.evaluate_with_faults(users, ctx) {
            Ok((r, log, stats)) => {
                print_report(&sys.name(), &r);
                print_spec_line(&r);
                println!(
                    "  faults (seed {fault_seed}): {} events | retried {} | degraded {} | failed {}",
                    log.len(),
                    stats.retried_tokens,
                    stats.degraded_tokens,
                    stats.failed_requests
                );
                if rec.is_enabled() {
                    ServingSystem::record_step_detail(&mut sys, users, ctx, &mut rec, 0.0);
                    let faults_track = rec.track("faults");
                    log.record_tail_into(0, &mut rec, faults_track, 0.0);
                    rec.counter_add("serve.fault_events", log.len() as u64);
                    rec.counter_add("serve.retried_tokens", stats.retried_tokens as u64);
                    rec.counter_add("serve.degraded_tokens", stats.degraded_tokens as u64);
                    rec.gauge_set("serve.step_ms", r.latency_ms());
                    rec.gauge_set("serve.throughput_tps", r.throughput_tps);
                }
            }
            Err(e) => println!(
                "{}: infeasible at {} users x {} tokens ({e})",
                sys.name(),
                users,
                ctx
            ),
        }
        println!("  max users at this context: {}", sys.max_users(ctx));
        print_paged_kv(a, &sys, ctx)?;
        return write_observability(&rec, &obs_paths);
    }
    let mut sys = build_system(sys_name, model, lookahead)?;
    match sys.evaluate(users, ctx) {
        Ok(r) => {
            print_report(&sys.name(), &r);
            print_spec_line(&r);
            if rec.is_enabled() {
                sys.record_step_detail(users, ctx, &mut rec, 0.0);
                rec.gauge_set("serve.step_ms", r.latency_ms());
                rec.gauge_set("serve.throughput_tps", r.throughput_tps);
            }
        }
        Err(e) => println!(
            "{}: infeasible at {} users x {} tokens ({e})",
            sys.name(),
            users,
            ctx
        ),
    }
    println!("  max users at this context: {}", sys.max_users(ctx));
    print_paged_kv(a, sys.as_ref(), ctx)?;
    write_observability(&rec, &obs_paths)
}

/// `longsight loadtest` — closed-loop serving simulation.
pub fn loadtest(a: &Args) -> Result<(), String> {
    a.ensure_known(&[
        "model",
        "rate",
        "duration",
        "ctx-min",
        "ctx-max",
        "out-min",
        "out-max",
        "system",
        "seed",
        "fault-profile",
        "fault-seed",
        "deadline-ms",
        "trace-out",
        "metrics-out",
        "timeseries-out",
        "ts-window-ms",
        "sched",
        "mix",
        "page-tokens",
        "prefill-chunk",
        "prefill-slots",
        "watermark",
        "replicas",
        "router",
        "crash-profile",
        "crash-seed",
        "breaker",
        "shed-cap",
        "lookahead",
        "spec-slots",
        "spec-miss",
        "spec-penalty-ms",
        "sessions",
        "turns",
        "think-time-ms",
        "reuse",
        "prefix-cache",
    ])?;
    let model = model_flag(a)?;
    let wl = WorkloadConfig {
        arrivals_per_s: a.get_or("rate", 2.0)?,
        context_tokens: (a.get_or("ctx-min", 32_768)?, a.get_or("ctx-max", 131_072)?),
        output_tokens: (a.get_or("out-min", 32)?, a.get_or("out-max", 128)?),
        duration_s: a.get_or("duration", 10.0)?,
        seed: a.get_or("seed", 7)?,
    };
    let (faults, fault_seed, retry) = fault_flags(a)?;
    let sched_opts = sched_flags(a)?;
    let lookahead = lookahead_flags(a)?;
    let (mut rec, obs_paths) = obs_flags(a)?;
    let sys_name = a.get("system").unwrap_or("longsight");
    let injected = faults.is_enabled();
    let replicas: usize = a.get_or("replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be >= 1".into());
    }
    if replicas > 64 {
        return Err(format!("--replicas {replicas} is past the 64-replica cap"));
    }
    let router = RouterPolicy::parse(a.get("router").unwrap_or("jsq"))?;
    let sess = session_flags(a)?;
    if router == RouterPolicy::Affinity && replicas < 2 {
        return Err(
            "--router affinity needs --replicas >= 2 (one replica always owns every prefix)".into(),
        );
    }
    let fopts = fleet_fault_flags(a)?;
    if fopts.is_active() && replicas < 2 {
        return Err(
            "--crash-profile/--breaker/--shed-cap need --replicas >= 2 (nothing to fail over to)"
                .into(),
        );
    }
    if replicas > 1 || sess.is_active() {
        if injected {
            return Err(
                "--fault-profile applies to single-replica runs only (fleets use --crash-profile)"
                    .into(),
            );
        }
        // A bare `--replicas N` gets the representative SLO-aware setup.
        let opts = sched_opts.unwrap_or_else(|| SchedOptions::slo_aware(SloMix::mixed()));
        if fopts.is_active() && opts.policy != SchedPolicy::SloAware {
            return Err("fleet fault domains require --sched slo-aware".into());
        }
        let mut systems = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            systems.push(build_system(sys_name, model.clone(), lookahead)?);
        }
        let (m, fleet) = simulate_fleet_with(
            &mut systems,
            &model,
            &wl,
            &opts,
            router,
            &fopts,
            &sess,
            &mut rec,
        );
        println!(
            "{} x{replicas} under {:.1} req/s for {:.0}s ({}-{} ctx tokens), {} scheduler, {} router:",
            systems[0].name(),
            wl.arrivals_per_s,
            wl.duration_s,
            wl.context_tokens.0,
            wl.context_tokens.1,
            opts.policy.name(),
            router.name()
        );
        if fopts.is_active() {
            println!(
                "  fault domains: crash profile {} (seed {}) | breaker {} | shed cap {}",
                if fopts.profile.is_enabled() {
                    format!("on ({:.2}/interval)", fopts.profile.crash_rate)
                } else {
                    "off".to_string()
                },
                fopts.fault_seed,
                if fopts.breaker.is_some() { "on" } else { "off" },
                fopts
                    .shed_queue_cap
                    .map_or("off".to_string(), |c| c.to_string()),
            );
        }
        if sess.is_active() {
            println!(
                "  session workload: {} sessions x {} turns | think {:.0} ms | reuse {:.2} | prefix cache {} pages/replica",
                sess.sessions, sess.turns, sess.think_time_ms, sess.reuse, sess.prefix_cache_pages
            );
        }
        print!("{}", m.to_text());
        print_spec_counters(&m);
        print!("{}", fleet.to_text());
        if let Some(v) = &fleet.audit_violation {
            return Err(format!("fleet audit failed: {v}"));
        }
        return write_observability(&rec, &obs_paths);
    }
    let mut sys = build_system(sys_name, model.clone(), lookahead)?;
    let inj = FaultInjector::new(faults, fault_seed);
    let fault_args = injected.then_some((&inj, &retry));
    let opts = sched_opts.clone().unwrap_or_else(SchedOptions::fifo);
    let (m, rep, fault_log) =
        simulate_scheduled(sys.as_mut(), &model, &wl, &opts, fault_args, &mut rec, None);
    // An explicit `--sched` names the policy and prints the scheduler report.
    let scheduler = sched_opts.as_ref().map_or(String::new(), |o| {
        format!(", {} scheduler", o.policy.name())
    });
    println!(
        "{} under {:.1} req/s for {:.0}s ({}-{} ctx tokens){scheduler}:",
        sys.name(),
        wl.arrivals_per_s,
        wl.duration_s,
        wl.context_tokens.0,
        wl.context_tokens.1,
    );
    print!("{}", m.to_text());
    print_spec_counters(&m);
    if sched_opts.is_some() {
        print!("{}", rep.to_text());
    }
    if injected {
        let share = if sched_opts.is_some() {
            String::new()
        } else {
            format!(" ({:.2}% of tokens)", 100.0 * m.degraded_quality_delta)
        };
        println!(
            "  faults (seed {fault_seed}): {} events | retried {} | degraded {}{share} | failed requests {}",
            fault_log.len(),
            m.retried_tokens,
            m.degraded_tokens,
            m.failed_requests
        );
    }
    write_observability(&rec, &obs_paths)
}

/// `longsight profile` — per-token latency attribution over a serving run.
///
/// Runs the same closed-loop simulation as `loadtest` (fixed 128K contexts
/// by default) while decomposing every generated token's latency into the
/// window / weights / merge / filter / score / queue / link / retry
/// components. The `total` row reproduces the run's reported token-latency
/// p50/p99 exactly, and the mean column sums to the mean token latency.
///
/// `--host-kernels on` appends the host-side SCF scan-kernel comparison:
/// the legacy per-key `scf_pass` walk (the baseline) against the bitplane
/// `filter_block_packed` kernel over the same packed sign store. The
/// attribution rows above it are simulated device time and are unaffected;
/// this section profiles the simulator's own scan hot path, wall-clock.
pub fn profile(a: &Args) -> Result<(), String> {
    a.ensure_known(&[
        "model",
        "rate",
        "duration",
        "ctx-min",
        "ctx-max",
        "out-min",
        "out-max",
        "system",
        "seed",
        "fault-profile",
        "fault-seed",
        "deadline-ms",
        "trace-out",
        "metrics-out",
        "lookahead",
        "spec-slots",
        "spec-miss",
        "spec-penalty-ms",
        "host-kernels",
    ])?;
    let host_kernels = match a.get("host-kernels").unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => {
            return Err(format!(
                "--host-kernels must be 'on' or 'off', got '{other}'"
            ))
        }
    };
    let model = model_flag(a)?;
    let wl = WorkloadConfig {
        arrivals_per_s: a.get_or("rate", 2.0)?,
        context_tokens: (a.get_or("ctx-min", 131_072)?, a.get_or("ctx-max", 131_072)?),
        output_tokens: (a.get_or("out-min", 32)?, a.get_or("out-max", 128)?),
        duration_s: a.get_or("duration", 10.0)?,
        seed: a.get_or("seed", 7)?,
    };
    let (faults, fault_seed, retry) = fault_flags(a)?;
    let lookahead = lookahead_flags(a)?;
    let (mut rec, obs_paths) = obs_flags(a)?;
    let mut sys = build_system(
        a.get("system").unwrap_or("longsight"),
        model.clone(),
        lookahead,
    )?;
    let injected = faults.is_enabled();
    let mut attr = TokenAttribution::new();
    let inj = FaultInjector::new(faults, fault_seed);
    let fault_args = injected.then_some((&inj, &retry));
    let (m, _, fault_log) = simulate_scheduled(
        sys.as_mut(),
        &model,
        &wl,
        &SchedOptions::fifo(),
        fault_args,
        &mut rec,
        Some(&mut attr),
    );
    println!(
        "{} per-token latency attribution under {:.1} req/s for {:.0}s ({}-{} ctx tokens):",
        sys.name(),
        wl.arrivals_per_s,
        wl.duration_s,
        wl.context_tokens.0,
        wl.context_tokens.1
    );
    print!("{}", attr.to_table());
    println!(
        "  tokens {} | reported token latency p50 {:.2} ms  p99 {:.2} ms",
        attr.len(),
        m.p50_token_ms,
        m.p99_token_ms
    );
    if injected {
        println!(
            "  faults (seed {fault_seed}): {} events | retried {} | degraded {} | failed requests {}",
            fault_log.len(),
            m.retried_tokens,
            m.degraded_tokens,
            m.failed_requests
        );
    }
    if host_kernels {
        let kb = longsight_bench::fig7::scan_kernel_bench(65_536, 128);
        println!();
        longsight_bench::print_table(
            "host SCF scan kernel: per-key baseline vs bitplane-packed (wall-clock)",
            &["kernel", "keys", "dim", "ns per key", "speedup"],
            &longsight_bench::fig7::scan_kernel_rows(&kb),
        );
        if !kb.identical {
            return Err("packed scan kernel diverged from the per-key baseline".into());
        }
    }
    write_observability(&rec, &obs_paths)
}

/// `longsight trace-validate` — checks that a `--trace-out` file is valid,
/// non-empty Chrome trace-event JSON (the format chrome://tracing and
/// Perfetto load).
pub fn trace_validate(a: &Args) -> Result<(), String> {
    a.ensure_known(&["file"])?;
    let path = a.get("file").ok_or("trace-validate needs --file PATH")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = longsight_obs::json::parse(&src).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("{path}: missing traceEvents array"))?;
    if events.is_empty() {
        return Err(format!("{path}: traceEvents is empty"));
    }
    let (mut spans, mut instants, mut meta) = (0usize, 0usize, 0usize);
    for e in events {
        match e.get("ph").and_then(|p| p.as_str()) {
            Some("X") => spans += 1,
            Some("i") => instants += 1,
            Some("M") => meta += 1,
            other => {
                return Err(format!(
                    "{path}: unexpected event phase {other:?} (want X, i, or M)"
                ))
            }
        }
    }
    println!(
        "{path}: valid Chrome trace — {} events ({spans} spans, {instants} instants, {meta} metadata)",
        events.len()
    );
    Ok(())
}

/// `longsight offload` — Fig 8-style DReX profile.
pub fn offload(a: &Args) -> Result<(), String> {
    a.ensure_known(&[
        "model",
        "ctx",
        "users",
        "fault-profile",
        "fault-seed",
        "deadline-ms",
        "trace-out",
        "metrics-out",
        "lookahead",
        "spec-slots",
        "spec-miss",
        "spec-penalty-ms",
    ])?;
    let model = model_flag(a)?;
    let ctx: usize = a.get_or("ctx", 131_072)?;
    let users: usize = a.get_or("users", 1)?;
    let (faults, fault_seed, retry) = fault_flags(a)?;
    let lookahead = lookahead_flags(a)?;
    let (mut rec, obs_paths) = obs_flags(a)?;
    let injected = faults.is_enabled();
    let mut cfg = LongSightConfig::paper_default().with_faults(faults, fault_seed);
    cfg.retry = retry;
    if let Some(la) = lookahead {
        cfg = cfg.with_lookahead(la);
    }
    let sys = LongSightSystem::new(cfg, model);
    let (observed, p) = sys.drex_layer_traced(users, ctx, &mut rec, 0.0);
    if rec.is_enabled() {
        rec.gauge_set("offload.observed_us", observed / 1e3);
        rec.gauge_set("offload.queue_wait_us", p.queue_wait_ns / 1e3);
        rec.gauge_set("offload.value_cxl_us", p.value_cxl_ns / 1e3);
    }
    println!("DReX offload profile: {users} user(s), {ctx} tokens, per layer:");
    println!("  filter      {:>10.2} us", p.filter_ns / 1e3);
    println!("  bitmap read {:>10.2} us", p.bitmap_ns / 1e3);
    println!("  addr gen    {:>10.2} us", p.addr_gen_ns / 1e3);
    println!("  fetch+dot   {:>10.2} us", p.fetch_score_ns / 1e3);
    println!("  top-k       {:>10.2} us", p.topk_ns / 1e3);
    println!("  queue wait  {:>10.2} us", p.queue_wait_ns / 1e3);
    println!("  value/CXL   {:>10.2} us", p.value_cxl_ns / 1e3);
    println!("  observed    {:>10.2} us (last user)", observed / 1e3);
    if lookahead.is_some_and(|la| la.enabled) {
        // The issue/complete halves the lookahead pipeline puts in flight:
        // issue covers the speculative chain up to device-ready, complete
        // the polling + value read the GPU pays at use time.
        let mut quiet = Recorder::disabled();
        if let Some(issued) = sys.drex_layer_issue(users, ctx, &mut quiet, 0.0) {
            let (complete_observed, _) = sys.drex_layer_complete(&issued, &mut quiet, 0.0);
            println!(
                "  issue ready {:>10.2} us (speculative half: filter->topk + queue)",
                issued.ready_rel_ns / 1e3
            );
            println!(
                "  complete    {:>10.2} us (poll + value read at use time)",
                (complete_observed - issued.ready_rel_ns) / 1e3
            );
        }
    }
    if injected {
        let f = sys.drex_layer_faulty(users, ctx);
        println!(
            "  faulted     {:>10.2} us (seed {fault_seed}: {} events, {} replay rounds, {} straggled slices, retried {}, degraded {})",
            f.layer_ns / 1e3,
            f.log.len(),
            f.replay_rounds,
            f.straggled_slices,
            f.stats.retried_tokens,
            f.stats.degraded_tokens
        );
        if rec.is_enabled() {
            let faults_track = rec.track("faults");
            f.log.record_tail_into(0, &mut rec, faults_track, 0.0);
            rec.counter_add("offload.fault_events", f.log.len() as u64);
            rec.gauge_set("offload.faulted_us", f.layer_ns / 1e3);
        }
    }
    write_observability(&rec, &obs_paths)
}

/// `longsight tune` — the §8.1.3 threshold tuner.
pub fn tune(a: &Args) -> Result<(), String> {
    a.ensure_known(&["ctx", "window", "k", "budget", "seed"])?;
    let ctx: usize = a.get_or("ctx", 768)?;
    let window: usize = a.get_or("window", 192)?;
    let k: usize = a.get_or("k", 96)?;
    let budget: f64 = a.get_or("budget", 0.05)?;
    let seed: u64 = a.get_or("seed", 2025)?;
    let hybrid_cfg = HybridConfig {
        window,
        sinks: 16,
        top_k: k,
    };
    hybrid_cfg
        .validate()
        .map_err(|e| format!("--window/--k: {e}"))?;

    let cfg = ModelConfig::tiny();
    let mut rng = SimRng::seed_from(seed);
    let model = Model::new(ModelWeights::induction(
        &cfg,
        &InductionParams::default(),
        &mut rng,
    ));
    let text = corpus::generate(&corpus::CorpusConfig::long_book(cfg.vocab), ctx, &mut rng);
    let rotations =
        training::train_rotations(&model, &text.tokens[..512.min(ctx)], &ItqConfig::default());

    let outcome = tune_thresholds(
        cfg.layers,
        cfg.kv_heads,
        &TunerConfig {
            quality_budget: budget,
            step: 4,
            max_threshold: cfg.head_dim as u32,
            max_rounds: 48,
        },
        |thresholds| {
            let mut backend =
                LongSightBackend::new(hybrid_cfg.clone(), thresholds.clone(), rotations.clone());
            let r = perplexity::evaluate(&model, &text, &mut backend, (ctx / 16).max(2));
            ProbeResult {
                quality: r.perplexity,
                stats: backend.take_stats(),
            }
        },
    );
    println!(
        "tuned in {} probes: ppl {:.1} -> {:.1} ({:+.2}%), filter ratio {:.1}x",
        outcome.probes,
        outcome.baseline_quality,
        outcome.final_quality,
        100.0 * outcome.quality_increase(),
        outcome.final_stats.filter_ratio_nonwindow()
    );
    for ((l, h), th) in outcome.thresholds.iter() {
        println!("  layer {l} kv-head {h}: threshold {th}/{}", cfg.head_dim);
    }
    Ok(())
}

/// `longsight layout` — partition planning and capacity.
pub fn layout(a: &Args) -> Result<(), String> {
    a.ensure_known(&["model", "ctx"])?;
    let model = model_flag(a)?;
    let ctx: usize = a.get_or("ctx", 1 << 20)?;
    let geo = Geometry::drex();
    let plan = UserPartition::plan(&geo, model.kv_heads, model.layers, model.head_dim, ctx, 0);
    println!(
        "{} @ {ctx} tokens on DReX ({} GB):",
        model,
        geo.total_bytes() >> 30
    );
    println!(
        "  slices per head: {} (max {} keys each)",
        plan.slices[0].len(),
        layout::MAX_CONTEXT_SLICE_KEYS
    );
    println!("  packages touched: {}", plan.packages_touched());
    println!(
        "  footprint: {:.1} GiB/user (keys+values+signs, all layers)",
        plan.footprint_bytes() as f64 / (1u64 << 30) as f64
    );
    println!(
        "  max concurrent users: {}",
        layout::max_users(&geo, model.kv_heads, model.layers, model.head_dim, ctx)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn quality_runs_small() {
        quality(&args(&["--ctx", "256", "--window", "64", "--k", "32"])).unwrap();
    }

    #[test]
    fn serve_runs_every_system() {
        for sys in ["longsight", "gpu", "gpu2", "attacc", "window"] {
            serve(&args(&["--system", sys, "--ctx", "32768", "--users", "2"])).unwrap();
        }
    }

    #[test]
    fn offload_and_layout_run() {
        offload(&args(&["--ctx", "65536"])).unwrap();
        layout(&args(&["--model", "1b", "--ctx", "131072"])).unwrap();
    }

    #[test]
    fn loadtest_runs_briefly() {
        loadtest(&args(&["--model", "1b", "--rate", "2", "--duration", "2"])).unwrap();
    }

    #[test]
    fn profile_runs_and_trace_round_trips() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("longsight_cli_trace_{}.json", std::process::id()));
        let metrics = dir.join(format!("longsight_cli_metrics_{}.json", std::process::id()));
        let trace_s = trace.to_str().unwrap().to_string();
        let metrics_s = metrics.to_str().unwrap().to_string();
        profile(&args(&[
            "--model",
            "1b",
            "--duration",
            "2",
            "--ctx-min",
            "65536",
            "--ctx-max",
            "65536",
            "--trace-out",
            &trace_s,
            "--metrics-out",
            &metrics_s,
        ]))
        .unwrap();
        trace_validate(&args(&["--file", &trace_s])).unwrap();
        // The metrics dump is valid JSON with the serving counters.
        let m = std::fs::read_to_string(&metrics).unwrap();
        let doc = longsight_obs::json::parse(&m).unwrap();
        assert!(doc.get("counters").is_some());
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn trace_validate_rejects_bad_input() {
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("longsight_cli_bad_{}.json", std::process::id()));
        std::fs::write(&bad, "{\"traceEvents\":[]}").unwrap();
        assert!(trace_validate(&args(&["--file", bad.to_str().unwrap()])).is_err());
        std::fs::write(&bad, "not json").unwrap();
        assert!(trace_validate(&args(&["--file", bad.to_str().unwrap()])).is_err());
        assert!(trace_validate(&args(&["--file", "/nonexistent/x.json"])).is_err());
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(serve(&args(&["--system", "bogus"])).is_err());
        assert!(quality(&args(&["--nope", "1"])).is_err());
        assert!(model_flag(&args(&["--model", "70b"])).is_err());
        assert!(profile(&args(&["--host-kernels", "maybe"])).is_err());
    }

    #[test]
    fn profile_host_kernels_section_runs() {
        profile(&args(&[
            "--model",
            "1b",
            "--duration",
            "2",
            "--ctx-min",
            "65536",
            "--ctx-max",
            "65536",
            "--host-kernels",
            "on",
        ]))
        .unwrap();
    }

    #[test]
    fn bad_fault_flags_are_rejected() {
        assert!(serve(&args(&["--fault-profile", "bogus"])).is_err());
        assert!(serve(&args(&["--fault-profile", "1.5"])).is_err());
        assert!(serve(&args(&["--fault-profile", "mild", "--system", "gpu"])).is_err());
        assert!(serve(&args(&["--deadline-ms", "-3"])).is_err());
        assert!(offload(&args(&["--deadline-ms", "nan"])).is_err());
        assert!(loadtest(&args(&["--fault-seed", "abc"])).is_err());
    }

    #[test]
    fn scheduled_loadtest_runs_both_policies() {
        for policy in ["slo-aware", "fifo"] {
            loadtest(&args(&[
                "--model",
                "1b",
                "--rate",
                "4",
                "--duration",
                "2",
                "--sched",
                policy,
            ]))
            .unwrap();
        }
        loadtest(&args(&[
            "--model",
            "1b",
            "--rate",
            "4",
            "--duration",
            "2",
            "--sched",
            "slo-aware",
            "--mix",
            "0.6,0.2,0.2",
            "--watermark",
            "0.8",
            "--page-tokens",
            "2048",
            "--prefill-chunk",
            "4096",
        ]))
        .unwrap();
    }

    #[test]
    fn fleet_loadtest_runs_both_routers() {
        for router in ["jsq", "rr"] {
            loadtest(&args(&[
                "--model",
                "1b",
                "--rate",
                "6",
                "--duration",
                "2",
                "--ctx-min",
                "16384",
                "--ctx-max",
                "32768",
                "--sched",
                "slo-aware",
                "--watermark",
                "0.01",
                "--prefill-chunk",
                "128",
                "--replicas",
                "2",
                "--router",
                router,
            ]))
            .unwrap();
        }
        // A bare --replicas gets the representative SLO-aware defaults.
        loadtest(&args(&[
            "--model",
            "1b",
            "--rate",
            "4",
            "--duration",
            "2",
            "--replicas",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn bad_fleet_flags_are_rejected() {
        let zero = loadtest(&args(&["--replicas", "0"])).unwrap_err();
        assert!(zero.contains("--replicas must be >= 1"), "{zero}");
        assert!(loadtest(&args(&["--replicas", "65"])).is_err());
        assert!(loadtest(&args(&["--replicas", "2", "--router", "bogus"])).is_err());
        assert!(loadtest(&args(&["--replicas", "2", "--fault-profile", "mild"])).is_err());
    }

    #[test]
    fn crashy_fleet_loadtest_runs_and_audits() {
        // A guaranteed-crash profile: the run must still place, redispatch,
        // or shed every arrival (loadtest fails on any audit violation).
        for breaker in ["on", "off"] {
            loadtest(&args(&[
                "--model",
                "1b",
                "--rate",
                "4",
                "--duration",
                "3",
                "--ctx-min",
                "16384",
                "--ctx-max",
                "32768",
                "--replicas",
                "2",
                "--crash-profile",
                "1.0",
                "--crash-seed",
                "11",
                "--breaker",
                breaker,
                "--shed-cap",
                "8",
            ]))
            .unwrap();
        }
    }

    #[test]
    fn bad_fleet_fault_flags_are_rejected() {
        // Fault domains need a fleet to fail over inside.
        let single = loadtest(&args(&["--crash-profile", "mild"])).unwrap_err();
        assert!(single.contains("--replicas >= 2"), "{single}");
        assert!(loadtest(&args(&["--breaker", "on"])).is_err());
        assert!(loadtest(&args(&["--shed-cap", "4"])).is_err());
        let bogus = loadtest(&args(&["--replicas", "2", "--crash-profile", "bogus"])).unwrap_err();
        assert!(bogus.contains("invalid crash profile"), "{bogus}");
        assert!(loadtest(&args(&["--replicas", "2", "--crash-profile", "1.5"])).is_err());
        assert!(loadtest(&args(&["--replicas", "2", "--breaker", "maybe"])).is_err());
        assert!(loadtest(&args(&["--replicas", "2", "--shed-cap", "0"])).is_err());
        assert!(loadtest(&args(&[
            "--replicas",
            "2",
            "--crash-profile",
            "mild",
            "--sched",
            "fifo",
        ]))
        .is_err());
    }

    #[test]
    fn session_loadtest_runs_with_affinity_and_audits() {
        // The loadtest command fails on any fleet-audit violation, so this
        // run also exercises the session pin/pull conservation checks.
        loadtest(&args(&[
            "--model",
            "1b",
            "--duration",
            "8",
            "--ctx-min",
            "16384",
            "--ctx-max",
            "32768",
            "--out-min",
            "16",
            "--out-max",
            "64",
            "--replicas",
            "2",
            "--router",
            "affinity",
            "--sessions",
            "4",
            "--turns",
            "3",
            "--think-time-ms",
            "1500",
            "--reuse",
            "0.9",
        ]))
        .unwrap();
    }

    #[test]
    fn session_loadtest_composes_with_replica_faults() {
        // Sessions and fleet fault domains run in one loop; the command
        // fails on a fleet or session audit violation.
        loadtest(&args(&[
            "--model",
            "1b",
            "--duration",
            "8",
            "--ctx-min",
            "16384",
            "--ctx-max",
            "32768",
            "--replicas",
            "2",
            "--router",
            "affinity",
            "--sessions",
            "4",
            "--turns",
            "3",
            "--crash-profile",
            "0.1",
            "--crash-seed",
            "11",
            "--breaker",
            "on",
            "--shed-cap",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn bad_session_flags_are_rejected() {
        let turns = loadtest(&args(&["--sessions", "4", "--turns", "0"])).unwrap_err();
        assert!(turns.contains("--turns"), "{turns}");
        let think = loadtest(&args(&["--sessions", "4", "--think-time-ms", "-5"])).unwrap_err();
        assert!(think.contains("--think-time-ms"), "{think}");
        assert!(loadtest(&args(&["--sessions", "4", "--think-time-ms", "nan"])).is_err());
        assert!(loadtest(&args(&["--sessions", "4", "--reuse", "1.5"])).is_err());
        assert!(loadtest(&args(&["--sessions", "4", "--reuse", "-0.1"])).is_err());
        // Affinity routing is meaningless on a single replica.
        let aff = loadtest(&args(&["--router", "affinity"])).unwrap_err();
        assert!(aff.contains("--replicas >= 2"), "{aff}");
        // Session follow-up flags without --sessions are a contradiction.
        let orphan = loadtest(&args(&["--turns", "3"])).unwrap_err();
        assert!(orphan.contains("--sessions"), "{orphan}");
        assert!(loadtest(&args(&["--reuse", "0.5"])).is_err());
        assert!(loadtest(&args(&["--prefix-cache", "512"])).is_err());
    }

    #[test]
    fn serve_prints_paged_kv_panel() {
        serve(&args(&[
            "--model",
            "1b",
            "--ctx",
            "65536",
            "--users",
            "2",
            "--page-tokens",
            "1024",
        ]))
        .unwrap();
        serve(&args(&[
            "--system",
            "gpu",
            "--ctx",
            "32768",
            "--watermark",
            "0.5",
        ]))
        .unwrap();
    }

    #[test]
    fn bad_sched_flags_are_rejected() {
        assert!(loadtest(&args(&["--sched", "bogus"])).is_err());
        assert!(loadtest(&args(&["--sched", "slo-aware", "--mix", "0.5"])).is_err());
        assert!(loadtest(&args(&["--sched", "slo-aware", "--mix", "0,0,0"])).is_err());
        assert!(loadtest(&args(&["--sched", "slo-aware", "--mix", "a,b,c"])).is_err());
        // Weights that parse but don't sum to 1 are a typo, not a request
        // for silent renormalization.
        let over = loadtest(&args(&["--sched", "slo-aware", "--mix", "0.5,0.4,0.2"])).unwrap_err();
        assert!(over.contains("must sum to 1"), "{over}");
        assert!(loadtest(&args(&["--sched", "slo-aware", "--mix", "0.2,0.2,0.2"])).is_err());
        assert!(loadtest(&args(&["--sched", "slo-aware", "--watermark", "0"])).is_err());
        assert!(loadtest(&args(&["--sched", "slo-aware", "--watermark", "1.5"])).is_err());
        assert!(loadtest(&args(&["--sched", "slo-aware", "--page-tokens", "0"])).is_err());
        assert!(loadtest(&args(&["--sched", "slo-aware", "--prefill-chunk", "0"])).is_err());
        assert!(loadtest(&args(&["--sched", "slo-aware", "--prefill-slots", "0"])).is_err());
        assert!(serve(&args(&["--page-tokens", "0"])).is_err());
        assert!(serve(&args(&["--watermark", "-0.1"])).is_err());
    }

    #[test]
    fn faulted_commands_run() {
        serve(&args(&[
            "--model",
            "1b",
            "--ctx",
            "32768",
            "--users",
            "2",
            "--fault-profile",
            "mild",
            "--fault-seed",
            "11",
        ]))
        .unwrap();
        offload(&args(&[
            "--ctx",
            "65536",
            "--fault-profile",
            "0.1",
            "--deadline-ms",
            "1.5",
        ]))
        .unwrap();
        loadtest(&args(&[
            "--model",
            "1b",
            "--rate",
            "2",
            "--duration",
            "2",
            "--fault-profile",
            "severe",
            "--fault-seed",
            "3",
        ]))
        .unwrap();
    }
}
